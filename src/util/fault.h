#ifndef EPFIS_UTIL_FAULT_H_
#define EPFIS_UTIL_FAULT_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/cancel.h"
#include "util/status.h"

/// Compile-time gate for the fault-injection framework, set from the
/// EPFIS_FAULTS CMake option (default ON). With it OFF the call-site
/// helpers below are empty inline functions returning OK, so every
/// injection point compiles away to nothing — the same pattern as
/// EPFIS_METRICS_ENABLED in obs/metrics.h. The FaultInjector class itself
/// always compiles (Arm/Disarm stay callable from tests and tools); only
/// the checks on the production paths vanish.
#ifndef EPFIS_FAULTS_ENABLED
#define EPFIS_FAULTS_ENABLED 1
#endif

namespace epfis {

/// What an armed injection point does when it fires.
enum class FaultKind {
  /// Check()/CheckIo() return the configured Status (the default).
  kError,
  /// CheckIo() clamps the caller's I/O request to `short_io_bytes`,
  /// simulating a partial read(2)/write(2). The caller's retry loop is
  /// expected to absorb it; Check() at a kShortRead point is a no-op.
  kShortRead,
  /// CheckIo() reports a simulated EINTR-interrupted syscall (no bytes
  /// transferred). Bounded retry loops must absorb a finite burst and
  /// fail with IoError once their budget is exhausted. Check() is a no-op.
  kEintr,
  /// Fires FaultSpec::cancel_token and lets the call proceed (Check() and
  /// CheckIo() both return OK). The pipeline then notices the token at its
  /// next cooperative poll — this is how the cancellation sweep injects a
  /// cancel "at" each existing fault point without new control flow.
  kCancel,
};

/// Failure schedule for one injection point. The default spec fires on
/// every call with an IoError, i.e. Arm(point, {}) is "always fail".
struct FaultSpec {
  FaultKind kind = FaultKind::kError;

  /// Status code returned when a kError fault fires.
  StatusCode code = StatusCode::kIoError;

  /// Message of the returned Status; empty = "injected fault at <point>".
  std::string message;

  /// Calls let through before the point becomes eligible. fail-Nth-call
  /// is skip_calls = N-1 (counted from arming, not process start).
  uint64_t skip_calls = 0;

  /// Fires after which the point disarms itself; 1 = one-shot.
  uint64_t max_fires = std::numeric_limits<uint64_t>::max();

  /// Once eligible, fire with this probability per call, drawn from the
  /// repo's deterministic PRNG (util/random.h) seeded with `seed` at
  /// arming time — the same seed always yields the same fire pattern.
  double probability = 1.0;
  uint64_t seed = 0x9e3779b97f4a7c15ULL;

  /// kShortRead: bytes the clamped request is allowed to transfer
  /// (floored at 1 so a retry loop always makes progress).
  uint64_t short_io_bytes = 1;

  /// kCancel: the token fired when the point fires. Tests hand the same
  /// token to the pipeline under drill. (Not expressible in the env
  /// grammar — a token is a live object.)
  CancellationToken cancel_token;
};

/// Lifetime call/fire counters for one injection point.
struct FaultCounters {
  uint64_t calls = 0;  ///< Times the point was checked (armed or not).
  uint64_t fires = 0;  ///< Times it actually injected a fault.
};

/// Outcome of CheckIo at a point that may alter an I/O request.
struct FaultIoOutcome {
  Status status;       ///< Non-OK when a kError fault fired.
  bool eintr = false;  ///< A kEintr fault fired: act as if read returned EINTR.
};

/// Process-wide registry of named fault-injection points.
///
/// Production code declares points with EPFIS_FAULT_POINT / FaultIoPoint;
/// tests (or the EPFIS_FAULTS environment variable) arm them with a
/// schedule, and the instrumented call site returns the configured Status
/// through the repo's normal error taxonomy — no special control flow, a
/// fired fault is indistinguishable from the real failure it models.
///
/// Env grammar (parsed once at first Global() use, and on ArmFromSpec):
///   EPFIS_FAULTS="point=tok[,tok...][;point2=...]"
/// with tokens
///   nth:<k>      fire exactly on the k-th call (k >= 1)
///   after:<k>    skip k calls, then fire on every later call
///   once         at most one fire (max_fires = 1)
///   prob:<p>     fire with probability p once eligible
///   seed:<s>     PRNG seed for prob
///   code:<name>  io_error | corruption | internal | not_found |
///                invalid_argument | failed_precondition |
///                resource_exhausted | out_of_range | already_exists
///   short[:<b>]  kShortRead serving b bytes per call (default 1)
///   eintr        kEintr
/// Example: EPFIS_FAULTS="catalog.save.write=nth:1,code:io_error"
///
/// Thread-safe: all state is behind one mutex; checks are off every hot
/// loop (they guard file opens, fsyncs, job starts — not per-reference
/// work), so the lock cost is irrelevant even when compiled in.
class FaultInjector {
 public:
  /// The process-wide injector (intentionally leaked, like the metrics
  /// registry). Arms from $EPFIS_FAULTS on first use.
  static FaultInjector& Global();

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs (or replaces) the schedule for `point`. Scheduling counters
  /// restart: skip_calls counts from this call.
  void Arm(const std::string& point, FaultSpec spec);

  void Disarm(const std::string& point);
  void DisarmAll();

  /// Parses the env grammar above and arms every listed point. An empty
  /// or null spec is a no-op. Returns InvalidArgument on a malformed spec
  /// (nothing is armed then).
  Status ArmFromSpec(const char* spec);

  /// Every point name this process has checked or armed, sorted. The
  /// fault-sweep harness iterates this after one clean pipeline pass.
  std::vector<std::string> RegisteredPoints() const;

  std::vector<std::string> ArmedPoints() const;
  FaultCounters counters(const std::string& point) const;

  /// Call-site check for pure go/no-go points. Registers `point`, applies
  /// the armed schedule, and returns the configured Status when a kError
  /// fault fires (OK otherwise, including for fired kShortRead/kEintr,
  /// which only make sense at I/O points).
  Status Check(std::string_view point);

  /// Call-site check for byte-granular I/O points. On kShortRead clamps
  /// *request_bytes (never below 1); on kEintr sets .eintr; on kError
  /// returns the Status in .status.
  FaultIoOutcome CheckIo(std::string_view point, uint64_t* request_bytes);

  // Opaque internals, defined in fault.cc (kept out of the header so it
  // pulls in no map/mutex for the compiled-out configuration).
  struct PointState;
  struct State;

 private:
  State& state() const;
  mutable State* state_ = nullptr;
};

/// Canonical list of the injection points wired into the library, for the
/// fault-sweep harness (tests add no points of their own; new production
/// points must be appended here so the sweep covers them).
inline constexpr const char* kAllFaultPoints[] = {
    "catalog.save.open",    "catalog.save.write", "catalog.save.fsync",
    "catalog.save.rename",  "catalog.load.open",  "catalog.load.read",
    "catalog.publish.swap", "trace.save.open",    "trace.save.write",
    "trace.open",           "trace.read.header",  "trace.read.body",
    "trace.mmap.map",       "lru_fit.batch.job",  "est_io.lookup",
    "online.refresh.emit",  "online.publish",
};

#if EPFIS_FAULTS_ENABLED

/// Status-returning check; wrap with EPFIS_RETURN_IF_ERROR at call sites
/// that simply propagate, or branch on it where cleanup is needed.
inline Status FaultPoint(std::string_view point) {
  return FaultInjector::Global().Check(point);
}

inline FaultIoOutcome FaultIoPoint(std::string_view point,
                                   uint64_t* request_bytes) {
  return FaultInjector::Global().CheckIo(point, request_bytes);
}

#else  // !EPFIS_FAULTS_ENABLED

inline Status FaultPoint(std::string_view) { return Status::Ok(); }

inline FaultIoOutcome FaultIoPoint(std::string_view, uint64_t*) {
  return FaultIoOutcome{};
}

#endif  // EPFIS_FAULTS_ENABLED

}  // namespace epfis

#endif  // EPFIS_UTIL_FAULT_H_
