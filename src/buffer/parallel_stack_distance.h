#ifndef EPFIS_BUFFER_PARALLEL_STACK_DISTANCE_H_
#define EPFIS_BUFFER_PARALLEL_STACK_DISTANCE_H_

#include "buffer/sampling.h"
#include "buffer/stack_distance.h"
#include "epfis/trace_source.h"
#include "util/result.h"

// The entry points below are the one serial pass of the
// StackDistanceKernel over a streamed trace. Nothing here runs in
// parallel; the header keeps its name because the lifecycle benchmark
// includes it (DESIGN.md §7.2).

namespace epfis {

class ThreadPool;

/// Options for the serial stack-distance pass.
struct StackDistanceOptions {
  /// SHARDS spatial sampling at a fixed rate
  /// (ComputeSampledStackDistances only; the exact entry point rejects
  /// it).
  SamplingOptions sampling;
};

/// Computes the LRU stack-distance histogram of `trace` by streaming it
/// through the StackDistanceKernel, bit-identical to the legacy
/// StackDistanceSimulator. The trace is consumed in 64K-reference chunks
/// and never materialized whole.
///
/// Fails with InvalidArgument on an empty trace, on a chunk that holds a
/// page id at or above kPageIdLimit (see ValidatePageRefs), or if
/// `options.sampling` requests sampling (use ComputeSampledStackDistances
/// — an exact entry point silently downgraded to an estimate would be a
/// trap).
Result<StackDistanceHistogram> ComputeStackDistances(
    TraceSource& trace, const StackDistanceOptions& options = {});

/// Sampling-aware variant: applies `options.sampling` and returns the
/// histogram together with its sampling provenance, wrapped in the
/// rescaling accessors of SampledStackDistances. With sampling disabled
/// this is ComputeStackDistances plus an exact summary, bit-identical to
/// the exact paths.
///
/// `pool` must be null; a non-null pool is an InvalidArgument. The pass
/// is serial, and the parameter stays only because the lifecycle
/// benchmark passes it.
///
/// Fails with InvalidArgument on invalid sampling options, on an empty
/// trace, on a chunk that holds a page id at or above kPageIdLimit, and
/// with FailedPrecondition when the trace is non-empty but no reference
/// survived the filter (the rate is too low for the trace; an all-zero
/// curve would be an estimate of nothing).
Result<SampledStackDistances> ComputeSampledStackDistances(
    TraceSource& trace, ThreadPool* pool = nullptr,
    const StackDistanceOptions& options = {});

}  // namespace epfis

#endif  // EPFIS_BUFFER_PARALLEL_STACK_DISTANCE_H_
