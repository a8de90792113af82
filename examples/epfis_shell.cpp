// epfis_shell — a scriptable mini-console over the whole stack, the kind
// of driver an open-source release ships for poking at the system without
// writing C++. Reads commands from stdin (one per line, '#' comments):
//
//   create NAME records distinct rpp window theta [noise seed]
//       synthesize a table + index (the §5.2 generator)
//   gwl COLUMN [scale]
//       synthesize a GWL-like column (e.g. gwl CMAC.BRAN 0.25)
//   stats NAME [--sample-rate=R] [--sample-max-pages=K]
//              [--online [--window=W] [--drift-band=E]]
//       run LRU-Fit + build a histogram; store both in the catalog.
//       --sample-rate runs the SHARDS-sampled collection pass at rate R
//       (0 < R <= 1); --sample-max-pages is target pages, rate K/T: the
//       pass runs at min(R, K/T). Defaults are the exact pass.
//       --online streams the trace through the OnlineLruFit engine
//       instead: the catalog entry is bootstrap-published at the first
//       refresh and re-published whenever the drift detector fires.
//       --window sets the decay window in references (default: the whole
//       trace), --drift-band the relative-error band (default 0.05).
//   show NAME
//       table shape and catalog statistics
//   estimate NAME sigma buffer [sargable]
//       Est-IO estimate, served lock-free from the published catalog
//       snapshot. When the index's statistics are missing or quarantined
//       the estimate degrades to the Yao/Cardenas formula and is flagged
//       "(degraded)".
//   estimate --batch NAME sigma1[,sigma2,...] buf1[,buf2,...] [sargable]
//       one EstIo::EstimateBatch call over the cross product of the sigma
//       and buffer lists (the handle is resolved once); prints per-probe
//       provenance
//   save PATH [v2|v3]
//       write the statistics catalog (crash-safe: tmp + fsync + rename);
//       v2 = checksummed text (default), v3 = binary mmap-able
//   catalog convert SRC DST [v2|v3]
//       re-encode a catalog file between formats (default: to v3); SRC
//       may be any loadable version (v1/v2 text or v3 binary)
//   load PATH
//       recovering catalog load; prints the provenance report (entries
//       loaded / quarantined, checksum failures)
//   explain NAME lo hi buffer [sorted]
//       enumerate optimizer plans (sigma from the histogram)
//   run NAME lo hi buffer
//       physically execute index scan + table scan, report fetches
//   quit
//
// Example session:  ./build/examples/epfis_shell <<'EOF'
//   create orders 40000 400 40 0.2 0
//   stats orders
//   estimate orders 0.1 250
//   explain orders 1 40 250
//   run orders 1 40 250
// EOF

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "epfis/epfis.h"
#include "exec/index_scan.h"
#include "exec/optimizer.h"
#include "exec/table_scan.h"
#include "util/table_printer.h"
#include "workload/data_gen.h"
#include "workload/gwl.h"

using namespace epfis;

namespace {

class Shell {
 public:
  int Loop(std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      size_t hash = line.find('#');
      if (hash != std::string::npos) line.resize(hash);
      std::istringstream tokens(line);
      std::string command;
      if (!(tokens >> command)) continue;
      if (command == "quit" || command == "exit") break;
      Status status = Dispatch(command, tokens);
      if (!status.ok()) {
        std::cout << "error: " << status.ToString() << '\n';
      }
    }
    return 0;
  }

 private:
  Status Dispatch(const std::string& command, std::istringstream& args) {
    if (command == "create") return Create(args);
    if (command == "gwl") return Gwl(args);
    if (command == "stats") return Stats(args);
    if (command == "show") return Show(args);
    if (command == "estimate") return Estimate(args);
    if (command == "explain") return Explain(args);
    if (command == "run") return Run(args);
    if (command == "save") return Save(args);
    if (command == "load") return Load(args);
    if (command == "catalog") return CatalogCmd(args);
    if (command == "help") {
      std::cout << "commands: create gwl stats show estimate explain run "
                   "save load catalog quit\n";
      return Status::Ok();
    }
    return Status::InvalidArgument("unknown command '" + command +
                                   "' (try help)");
  }

  Result<Dataset*> Find(const std::string& name) {
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      return Status::NotFound("no table named " + name +
                              " (use create or gwl first)");
    }
    return it->second.get();
  }

  Status Register(const std::string& name, std::unique_ptr<Dataset> dataset) {
    EPFIS_RETURN_IF_ERROR(catalog_.RegisterTable(name, dataset->table()));
    EPFIS_RETURN_IF_ERROR(catalog_.RegisterIndex(name + ".key", name, 0,
                                                 dataset->index()));
    datasets_[name] = std::move(dataset);
    std::cout << "created " << name << ": N=" << datasets_[name]->num_records()
              << " T=" << datasets_[name]->num_pages()
              << " I=" << datasets_[name]->num_distinct() << '\n';
    return Status::Ok();
  }

  Status Create(std::istringstream& args) {
    SyntheticSpec spec;
    std::string name;
    if (!(args >> name >> spec.num_records >> spec.num_distinct >>
          spec.records_per_page >> spec.window_fraction >> spec.theta)) {
      return Status::InvalidArgument(
          "usage: create NAME records distinct rpp window theta "
          "[noise seed]");
    }
    args >> spec.noise >> spec.seed;
    spec.name = name;
    if (datasets_.count(name) > 0) {
      return Status::AlreadyExists("table " + name + " exists");
    }
    EPFIS_ASSIGN_OR_RETURN(std::unique_ptr<Dataset> dataset,
                           GenerateSynthetic(spec));
    return Register(name, std::move(dataset));
  }

  Status Gwl(std::istringstream& args) {
    std::string column;
    if (!(args >> column)) {
      return Status::InvalidArgument("usage: gwl COLUMN [scale]");
    }
    GwlOptions options;
    options.scale = 0.25;
    args >> options.scale;
    EPFIS_ASSIGN_OR_RETURN(GwlColumnSpec spec, GwlColumnByName(column));
    if (datasets_.count(column) > 0) {
      return Status::AlreadyExists("table " + column + " exists");
    }
    EPFIS_ASSIGN_OR_RETURN(GwlSynthesis synthesis,
                           SynthesizeGwlColumn(spec, options));
    std::cout << "calibrated K=" << synthesis.calibrated_k
              << " measured C=" << synthesis.measured_c << " (target "
              << spec.target_clustering << ")\n";
    return Register(column, std::move(synthesis.dataset));
  }

  // The --online variant of `stats`: streams the trace through the
  // OnlineLruFit engine instead of the batch pass. The engine owns
  // publication — the entry lands in the catalog through the same RCU
  // Publish() path a background refresher would use (bootstrap at the
  // first refresh, then drift-triggered), so `estimate` picks it up with
  // no extra plumbing here.
  Status OnlineStats(const std::string& name, const Dataset& dataset,
                     const std::vector<PageId>& trace,
                     const LruFitOptions& fit, uint64_t window,
                     double drift_band) {
    if (trace.empty()) {
      return Status::InvalidArgument("stats: empty page trace");
    }
    OnlineLruFitOptions options;
    options.table_pages = dataset.num_pages();
    options.table_records = dataset.num_records();
    options.distinct_keys = dataset.num_distinct();
    options.window_refs = window > 0 ? window : trace.size();
    uint64_t span = std::min<uint64_t>(options.window_refs, trace.size());
    options.refresh_interval = std::max<uint64_t>(span / 5, 1);
    options.sample_rate = fit.sample_rate;
    options.sample_max_pages = fit.sample_max_pages;
    options.drift.band = drift_band;
    OnlineLruFit engine(name + ".key", options, &catalog_.stats());
    EPFIS_RETURN_IF_ERROR(engine.Ingest(trace));
    if (engine.publishes() == 0) EPFIS_RETURN_IF_ERROR(engine.Refresh());
    std::cout << "Online LRU-Fit: " << engine.total_refs()
              << " refs, window " << options.window_refs << ", "
              << engine.refreshes() << " refreshes, " << engine.publishes()
              << " publishes";
    if (!std::isnan(engine.last_drift_error())) {
      std::cout << ", last drift error " << engine.last_drift_error();
    }
    std::cout << '\n';
    return Status::Ok();
  }

  Status Stats(std::istringstream& args) {
    std::string name;
    if (!(args >> name)) {
      return Status::InvalidArgument(
          "usage: stats NAME [--sample-rate=R] [--sample-max-pages=K "
          "(target pages, rate K/T)] [--online [--window=W] "
          "[--drift-band=E]]");
    }
    LruFitOptions options;
    bool online = false;
    uint64_t window = 0;
    double drift_band = 0.05;
    std::string flag;
    while (args >> flag) {
      if (flag.rfind("--sample-rate=", 0) == 0) {
        options.sample_rate = std::strtod(flag.c_str() + 14, nullptr);
      } else if (flag.rfind("--sample-max-pages=", 0) == 0) {
        options.sample_max_pages =
            std::strtoull(flag.c_str() + 19, nullptr, 10);
      } else if (flag == "--online") {
        online = true;
      } else if (flag.rfind("--window=", 0) == 0) {
        window = std::strtoull(flag.c_str() + 9, nullptr, 10);
      } else if (flag.rfind("--drift-band=", 0) == 0) {
        drift_band = std::strtod(flag.c_str() + 13, nullptr);
      } else {
        return Status::InvalidArgument(
            "stats: unknown flag '" + flag +
            "' (expected --sample-rate=, --sample-max-pages=, --online, "
            "--window= or --drift-band=)");
      }
    }
    if (!online && (window != 0 || drift_band != 0.05)) {
      return Status::InvalidArgument(
          "stats: --window/--drift-band only apply with --online");
    }
    EPFIS_ASSIGN_OR_RETURN(Dataset * dataset, Find(name));
    EPFIS_ASSIGN_OR_RETURN(std::vector<PageId> trace,
                           dataset->FullIndexPageTrace());
    if (online) {
      EPFIS_RETURN_IF_ERROR(OnlineStats(name, *dataset, trace, options,
                                        window, drift_band));
    } else {
      EPFIS_ASSIGN_OR_RETURN(
          IndexStats stats,
          RunLruFit(trace, dataset->num_pages(), dataset->num_distinct(),
                    name + ".key", options));
      std::cout << "LRU-Fit: C=" << stats.clustering << ", B in ["
                << stats.b_min << ", " << stats.b_max << "], "
                << stats.fpf->num_segments() << " segments";
      if (stats.sample_rate < 1.0) {
        std::cout << ", sampled at R=" << stats.sample_rate << " ("
                  << stats.sampled_refs << " of " << stats.table_records
                  << " refs)";
      } else {
        std::cout << ", exact (" << stats.table_records << " refs)";
      }
      std::cout << '\n';
      catalog_.stats().Put(std::move(stats));
      // Swap the new entry into the serving snapshot (RCU publish): the
      // estimate command reads the snapshot, never the mutable catalog.
      EPFIS_RETURN_IF_ERROR(catalog_.stats().Publish());
    }
    EPFIS_ASSIGN_OR_RETURN(
        EquiDepthHistogram histogram,
        EquiDepthHistogram::Build(dataset->key_counts(), 20));
    EPFIS_RETURN_IF_ERROR(
        catalog_.PutHistogram(name + ".key", std::move(histogram)));
    std::cout << "histogram: 20 equi-depth buckets\n";
    return Status::Ok();
  }

  Status Show(std::istringstream& args) {
    std::string name;
    if (!(args >> name)) return Status::InvalidArgument("usage: show NAME");
    EPFIS_ASSIGN_OR_RETURN(Dataset * dataset, Find(name));
    std::cout << name << ": N=" << dataset->num_records()
              << " T=" << dataset->num_pages()
              << " I=" << dataset->num_distinct()
              << " R=" << dataset->records_per_page() << '\n';
    auto stats = catalog_.stats().Get(name + ".key");
    if (stats.ok()) {
      std::cout << "  stats: C=" << stats->clustering
                << " F_min=" << stats->f_min << " knots=";
      for (const Knot& knot : stats->fpf->knots()) {
        std::cout << " (" << knot.x << "," << knot.y << ")";
      }
      std::cout << '\n';
    } else if (catalog_.stats().IsQuarantined(name + ".key")) {
      std::cout << "  stats: QUARANTINED (" << stats.status().message()
                << ") — rerun `stats " << name << "` to refresh\n";
    } else {
      std::cout << "  (no statistics collected yet)\n";
    }
    return Status::Ok();
  }

  Status Estimate(std::istringstream& args) {
    std::string name;
    if (!(args >> name)) {
      return Status::InvalidArgument(
          "usage: estimate [--batch] NAME sigma buffer [sargable]");
    }
    if (name == "--batch") return EstimateBatchCmd(args);
    ScanSpec scan;
    if (!(args >> scan.sigma >> scan.buffer_pages)) {
      return Status::InvalidArgument(
          "usage: estimate NAME sigma buffer [sargable]");
    }
    args >> scan.sargable_selectivity;
    EPFIS_ASSIGN_OR_RETURN(Dataset * dataset, Find(name));
    TableShape shape;
    shape.table_pages = dataset->num_pages();
    shape.table_records = dataset->num_records();
    // Serving path: read the published immutable snapshot (one atomic
    // load, no catalog mutex) with graceful degradation — missing or
    // quarantined statistics fall back to the Yao/Cardenas formula (and
    // the output says so) instead of failing the command; a malformed
    // spec (sigma outside [0, 1], buffer of 0 pages) still prints an
    // error instead of a silently clamped number.
    std::shared_ptr<const CatalogSnapshot> snapshot =
        catalog_.stats().snapshot();
    EPFIS_ASSIGN_OR_RETURN(
        CatalogEstimate est,
        EstIo::EstimateFromCatalog(*snapshot, name + ".key", scan, shape));
    std::cout << "estimated fetches: " << est.fetches;
    if (est.source == EstimateSource::kFormulaFallback) {
      std::cout << "  [DEGRADED: formula fallback — "
                << est.stats_status.message() << "]";
    }
    std::cout << '\n';
    return Status::Ok();
  }

  static Result<std::vector<double>> ParseList(const std::string& csv,
                                               const char* what) {
    std::vector<double> values;
    std::istringstream stream(csv);
    std::string item;
    while (std::getline(stream, item, ',')) {
      char* end = nullptr;
      double v = std::strtod(item.c_str(), &end);
      if (end == item.c_str() || *end != '\0') {
        return Status::InvalidArgument(std::string("estimate --batch: bad ") +
                                       what + " '" + item + "'");
      }
      values.push_back(v);
    }
    if (values.empty()) {
      return Status::InvalidArgument(std::string("estimate --batch: empty ") +
                                     what + " list");
    }
    return values;
  }

  Status EstimateBatchCmd(std::istringstream& args) {
    std::string name, sigma_csv, buffer_csv;
    if (!(args >> name >> sigma_csv >> buffer_csv)) {
      return Status::InvalidArgument(
          "usage: estimate --batch NAME sigma1[,sigma2,...] "
          "buf1[,buf2,...] [sargable]");
    }
    double sargable = 1.0;
    args >> sargable;
    EPFIS_ASSIGN_OR_RETURN(std::vector<double> sigmas,
                           ParseList(sigma_csv, "sigma"));
    EPFIS_ASSIGN_OR_RETURN(std::vector<double> buffers,
                           ParseList(buffer_csv, "buffer"));
    EPFIS_ASSIGN_OR_RETURN(Dataset * dataset, Find(name));
    TableShape shape;
    shape.table_pages = dataset->num_pages();
    shape.table_records = dataset->num_records();

    // One snapshot, one name resolution, one EstimateBatch call for the
    // whole sigma x buffer cross product — the serving-path idiom.
    std::shared_ptr<const CatalogSnapshot> snapshot =
        catalog_.stats().snapshot();
    CatalogSnapshot::Handle handle = snapshot->Resolve(name + ".key");
    std::vector<BatchProbe> probes;
    probes.reserve(sigmas.size() * buffers.size());
    for (double sigma : sigmas) {
      for (double buffer : buffers) {
        ScanSpec scan;
        scan.sigma = sigma;
        scan.sargable_selectivity = sargable;
        scan.buffer_pages = buffer < 0 ? 0 : static_cast<uint64_t>(buffer);
        probes.push_back(BatchProbe{handle, scan, shape});
      }
    }
    std::vector<CatalogEstimate> results(probes.size());
    EPFIS_RETURN_IF_ERROR(
        EstIo::EstimateBatch(*snapshot, probes, results));

    TablePrinter table({"sigma", "buffer", "estimated F", "source"});
    for (size_t i = 0; i < probes.size(); ++i) {
      const char* source = "lru-fit";
      if (results[i].source == EstimateSource::kFormulaFallback) {
        source = "DEGRADED";
      } else if (results[i].source == EstimateSource::kRejected) {
        source = "REJECTED";
      }
      table.AddRow()
          .Cell(probes[i].scan.sigma, 3)
          .Cell(probes[i].scan.buffer_pages)
          .Cell(results[i].fetches, 1)
          .Cell(source);
    }
    table.Print(std::cout);
    return Status::Ok();
  }

  Status Save(std::istringstream& args) {
    std::string path;
    if (!(args >> path)) {
      return Status::InvalidArgument("usage: save PATH [v2|v3]");
    }
    std::string format = "v2";
    args >> format;
    if (format == "v3") {
      EPFIS_RETURN_IF_ERROR(catalog_.stats().SaveToFileV3(path));
    } else if (format == "v2") {
      EPFIS_RETURN_IF_ERROR(catalog_.stats().SaveToFile(path));
    } else {
      return Status::InvalidArgument("save: format must be v2 or v3");
    }
    std::cout << "saved " << catalog_.stats().size() << " entries to "
              << path << " (" << format << ")\n";
    return Status::Ok();
  }

  Status CatalogCmd(std::istringstream& args) {
    std::string verb;
    if (!(args >> verb) || verb != "convert") {
      return Status::InvalidArgument("usage: catalog convert SRC DST [v2|v3]");
    }
    std::string src, dst;
    if (!(args >> src >> dst)) {
      return Status::InvalidArgument("usage: catalog convert SRC DST [v2|v3]");
    }
    std::string format = "v3";
    args >> format;
    if (format != "v2" && format != "v3") {
      return Status::InvalidArgument(
          "catalog convert: format must be v2 or v3");
    }
    // Round-trip through a scratch catalog: SRC may be any loadable
    // version (the load sniffs v3 magic, else parses v1/v2 text). Strict
    // load — converting silently past corrupt entries would launder them.
    StatsCatalog scratch;
    EPFIS_RETURN_IF_ERROR(scratch.LoadFromFile(src));
    EPFIS_RETURN_IF_ERROR(format == "v3" ? scratch.SaveToFileV3(dst)
                                         : scratch.SaveToFile(dst));
    std::cout << "converted " << src << " -> " << dst << " (" << format
              << ", " << scratch.size() << " entries)\n";
    return Status::Ok();
  }

  Status Load(std::istringstream& args) {
    std::string path;
    if (!(args >> path)) return Status::InvalidArgument("usage: load PATH");
    EPFIS_ASSIGN_OR_RETURN(CatalogLoadReport report,
                           catalog_.stats().RecoverFromFile(path));
    EPFIS_RETURN_IF_ERROR(catalog_.stats().Publish());
    std::cout << "loaded " << path << " (v" << report.format_version
              << "): " << report.entries_loaded << " entries, "
              << report.entries_quarantined << " quarantined ("
              << report.checksum_failures << " checksum failures)\n";
    for (const std::string& reason : report.quarantine_reasons) {
      std::cout << "  quarantined: " << reason << '\n';
    }
    return Status::Ok();
  }

  Status Explain(std::istringstream& args) {
    std::string name;
    int64_t lo, hi;
    uint64_t buffer;
    if (!(args >> name >> lo >> hi >> buffer)) {
      return Status::InvalidArgument(
          "usage: explain NAME lo hi buffer [sorted]");
    }
    std::string sorted;
    args >> sorted;
    Query query;
    query.table = name;
    query.column = 0;
    query.range = KeyRange::Closed(lo, hi);
    query.estimate_sigma = true;
    query.require_sorted = (sorted == "sorted");
    AccessPathOptimizer optimizer(&catalog_);
    EPFIS_ASSIGN_OR_RETURN(std::vector<AccessPlan> plans,
                           optimizer.EnumeratePlans(query, buffer));
    for (size_t i = 0; i < plans.size(); ++i) {
      std::cout << (i == 0 ? "-> " : "   ") << plans[i].ToString() << '\n';
    }
    return Status::Ok();
  }

  Status Run(std::istringstream& args) {
    std::string name;
    int64_t lo, hi;
    uint64_t buffer;
    if (!(args >> name >> lo >> hi >> buffer)) {
      return Status::InvalidArgument("usage: run NAME lo hi buffer");
    }
    EPFIS_ASSIGN_OR_RETURN(Dataset * dataset, Find(name));
    KeyRange range = KeyRange::Closed(lo, hi);

    auto index_pool = dataset->MakeDataPool(buffer);
    EPFIS_ASSIGN_OR_RETURN(
        IndexScanResult index_run,
        RunIndexScan(*dataset->index(), *dataset->table(), index_pool.get(),
                     range));
    auto table_pool = dataset->MakeDataPool(buffer);
    EPFIS_ASSIGN_OR_RETURN(
        TableScanResult table_run,
        RunTableScan(*dataset->table(), table_pool.get(), range, 0));

    TablePrinter table({"plan", "records", "page fetches"});
    table.AddRow()
        .Cell("index scan")
        .Cell(index_run.records_fetched)
        .Cell(index_run.data_page_fetches);
    table.AddRow()
        .Cell("table scan")
        .Cell(static_cast<uint64_t>(table_run.records_qualifying))
        .Cell(table_run.pages_fetched);
    table.Print(std::cout);
    return Status::Ok();
  }

  std::map<std::string, std::unique_ptr<Dataset>> datasets_;
  Catalog catalog_;
};

}  // namespace

int main() {
  std::cout << "epfis shell — type 'help' for commands\n";
  Shell shell;
  return shell.Loop(std::cin);
}
