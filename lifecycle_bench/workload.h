#ifndef EPFIS_LIFECYCLE_BENCH_WORKLOAD_H_
#define EPFIS_LIFECYCLE_BENCH_WORKLOAD_H_

// The lifecycle workloads and the steps they share:
//
//   trace -> LRU-Fit -> catalog v3 save/reopen/publish
//         -> AccessPathOptimizer -> BufferPool execution
//
// Every workload is a closed loop with one client on the calling thread;
// no ThreadPool is ever passed to the library.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/stats_catalog.h"
#include "exec/optimizer.h"
#include "harness.h"
#include "workload/dataset.h"

namespace lcb {

/// Per-lifecycle work counts, keyed by per-layer metric name.
using Counts = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates every input and oracle truth from `seed`; files go under
  /// `dir`. The library only ever sees what this produced.
  virtual epfis::Status Setup(uint64_t seed, const std::string& dir) = 0;

  /// Digest of the generated inputs: equal seeds give equal digests.
  virtual uint64_t InputDigest() const = 0;

  /// One lifecycle iteration — the timed section.
  virtual void Lifecycle(Tracer& tracer, Checks& checks) = 0;

  /// Output checks on the iteration that just ran (untimed).
  virtual void CheckIteration(Checks& checks) = 0;

  /// Traced runs only: re-times the nested inner calls of the iteration
  /// that just ran, in their own passes over the same inputs (untimed).
  virtual void SeparatePasses(Tracer& tracer, Checks& checks) = 0;

  /// One-off checks after the loop.
  virtual void FinalChecks(Checks& checks) { (void)checks; }

  /// Statistics throughput of the last iteration: references turned into
  /// catalog entries per thread CPU second, in Mrefs/s.
  virtual double StatsMrefsPerS() const = 0;

  /// Prints the workload's own metrics, by name with their units.
  virtual void ReportWorkload(Report& report) const = 0;

  /// Per-lifecycle work counts for the per-layer metrics.
  virtual Counts LayerCounts() const = 0;
};

std::unique_ptr<Workload> MakeRefresh();
std::unique_ptr<Workload> MakeQuery();
std::unique_ptr<Workload> MakeDrift();

// ---- Statistics collection (refresh, query) ----

/// One index whose full-scan trace sits in a file.
struct TraceIndex {
  std::string name;
  std::string path;
  uint64_t table_pages = 0;     ///< T
  uint64_t distinct_keys = 0;   ///< I
  uint64_t records = 0;         ///< N (oracle: trace length)
  uint64_t pages_accessed = 0;  ///< A (oracle: distinct pages)
  double sample_rate = 1.0;
};

/// Counts distinct values of a page trace over [0, table_pages).
uint64_t DistinctPages(const std::vector<epfis::PageId>& trace,
                       uint64_t table_pages);

/// OpenTraceSource -> RunLruFit -> StatsCatalog::Put for one index.
/// Returns the RunLruFit span id (for SeparateCollectPasses) and adds the
/// thread CPU time from open to put to `*seconds`.
uint32_t CollectIndex(const TraceIndex& index, uint64_t group,
                      epfis::StatsCatalog& catalog, Tracer& tracer,
                      Checks& checks, double* seconds);

/// Re-times the two calls RunLruFit nests for `index`: draining the trace
/// source, and the kernel pass over it (ComputeSampledStackDistances,
/// which reads the trace too). The kernel is charged its pass minus the
/// drain, and RunLruFit keeps the rest.
void SeparateCollectPasses(const TraceIndex& index, uint64_t group,
                           uint32_t fit_span, Tracer& tracer,
                           Checks& checks);

// ---- Planning (query, drift) ----

/// One query the optimizer plans: the paper's mixed scan generator picks
/// the key range, B/T is drawn from 5..90% in 5% steps, and a share of
/// the queries carries a sargable predicate (S < 1).
struct PlannedQuery {
  epfis::Query query;
  std::string index_name;
  uint64_t buffer_pages = 0;
  double buffer_frac = 0.0;
  uint32_t table = 0;  ///< Position in the workload's table list.
};

/// A materialized table with one index over its key column.
struct Table {
  std::string name;
  std::string index_name;
  std::unique_ptr<epfis::Dataset> dataset;
};

/// Materializes a §5.2 synthetic table and registers it with `catalog`.
epfis::Status MakeTable(const std::string& name, uint64_t records,
                        uint64_t distinct, double theta, double window,
                        uint64_t seed, epfis::Catalog& catalog, Table* out);

/// Generates `count` queries over `tables`.
std::vector<PlannedQuery> GenerateQueries(const std::vector<Table>& tables,
                                          size_t count, uint64_t seed,
                                          Digest& digest);

/// Choose calls per planning span. The first call of each block is timed
/// alone for the latency distribution; the rest run without clock reads.
inline constexpr size_t kPlanBlock = 16;

/// Latency samples PlanQueries takes for `queries` planned queries.
inline size_t PlanSamples(size_t queries) {
  return (queries + kPlanBlock - 1) / kPlanBlock;
}

/// Plans every query with Choose in blocks of kPlanBlock, one span per
/// block (grouped by the block's first query), writing PlanSamples()
/// latencies (ns) to `latency_ns`. When `chose_index`/`estimate` are
/// non-null they receive, per query, whether an index scan won and the
/// chosen plan's estimated fetches.
void PlanQueries(const epfis::AccessPathOptimizer& optimizer,
                 const std::vector<PlannedQuery>& queries, Tracer& tracer,
                 Checks& checks, float* latency_ns, uint8_t* chose_index,
                 double* estimate);

/// Re-times the calls Choose nests — StatsCatalog::Get, then
/// EstIo::Estimate — over `queries` repeated `repeats` times, each in its
/// own pass. Both are charged out of exec.optimizer's self time.
void SeparatePlanPasses(const epfis::Catalog& catalog,
                        const std::vector<PlannedQuery>& queries,
                        size_t repeats, uint32_t parent, Tracer& tracer,
                        Checks& checks);

/// Current totals of the library's metrics registry (cross-checks only;
/// workloads subtract the value they saw at set-up).
uint64_t RegistryCounter(const std::string& name);
uint64_t RegistryHistogramSum(const std::string& name);

/// Latency percentiles with their sample counts, in microseconds.
void ReportLatency(Report& report, const std::vector<float>& latency_ns);

}  // namespace lcb

#endif  // EPFIS_LIFECYCLE_BENCH_WORKLOAD_H_
