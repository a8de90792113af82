#include "util/fault.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "obs/metrics.h"
#include "util/random.h"
#include "util/result.h"

namespace epfis {
namespace {

std::optional<StatusCode> CodeByName(std::string_view name) {
  if (name == "io_error") return StatusCode::kIoError;
  if (name == "corruption") return StatusCode::kCorruption;
  if (name == "internal") return StatusCode::kInternal;
  if (name == "not_found") return StatusCode::kNotFound;
  if (name == "invalid_argument") return StatusCode::kInvalidArgument;
  if (name == "failed_precondition") return StatusCode::kFailedPrecondition;
  if (name == "resource_exhausted") return StatusCode::kResourceExhausted;
  if (name == "out_of_range") return StatusCode::kOutOfRange;
  if (name == "already_exists") return StatusCode::kAlreadyExists;
  return std::nullopt;
}

// Splits `s` on `sep`, keeping empty pieces out.
std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string_view::npos) end = s.size();
    if (end > start) out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

Result<FaultSpec> ParseSpecTokens(std::string_view point,
                                  std::string_view tokens) {
  FaultSpec spec;
  for (const std::string& token : Split(tokens, ',')) {
    size_t colon = token.find(':');
    std::string key = token.substr(0, colon);
    std::string arg =
        colon == std::string::npos ? "" : token.substr(colon + 1);
    auto bad = [&](const std::string& what) {
      return Status::InvalidArgument("EPFIS_FAULTS: point '" +
                                     std::string(point) + "': " + what);
    };
    if (key == "nth") {
      uint64_t n = std::strtoull(arg.c_str(), nullptr, 10);
      if (n == 0) return bad("nth wants a call number >= 1");
      spec.skip_calls = n - 1;
      spec.max_fires = 1;
    } else if (key == "after") {
      spec.skip_calls = std::strtoull(arg.c_str(), nullptr, 10);
    } else if (key == "once") {
      spec.max_fires = 1;
    } else if (key == "prob") {
      char* end = nullptr;
      spec.probability = std::strtod(arg.c_str(), &end);
      if (end == arg.c_str() || spec.probability < 0.0 ||
          spec.probability > 1.0) {
        return bad("prob wants a probability in [0, 1]");
      }
    } else if (key == "seed") {
      spec.seed = std::strtoull(arg.c_str(), nullptr, 10);
    } else if (key == "code") {
      auto code = CodeByName(arg);
      if (!code.has_value()) return bad("unknown status code '" + arg + "'");
      spec.code = *code;
    } else if (key == "short") {
      spec.kind = FaultKind::kShortRead;
      if (!arg.empty()) {
        spec.short_io_bytes =
            std::max<uint64_t>(1, std::strtoull(arg.c_str(), nullptr, 10));
      }
    } else if (key == "eintr") {
      spec.kind = FaultKind::kEintr;
    } else {
      return bad("unknown token '" + key + "'");
    }
  }
  return spec;
}

}  // namespace

struct FaultInjector::PointState {
  // Lifetime counters (survive disarm, reset never).
  FaultCounters counters;
  // Armed schedule, if any.
  bool armed = false;
  FaultSpec spec;
  uint64_t calls_since_arm = 0;
  uint64_t fires_since_arm = 0;
  std::unique_ptr<Rng> rng;  // Probability draws; seeded at Arm.
};

struct FaultInjector::State {
  mutable std::mutex mu;
  std::map<std::string, PointState, std::less<>> points;  // Guarded by mu.
};

FaultInjector::State& FaultInjector::state() const {
  // Leaked on purpose (process-lifetime), mirroring MetricsRegistry.
  if (state_ == nullptr) state_ = new State();
  return *state_;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = [] {
    auto* inj = new FaultInjector();
    inj->state();  // Force allocation before any concurrent use.
    if (const char* env = std::getenv("EPFIS_FAULTS")) {
      // A malformed env spec must not take the process down; it arms
      // nothing and the parse error is recorded as a metric.
      if (!inj->ArmFromSpec(env).ok()) {
        static Counter bad_env =
            MetricsRegistry::Global().GetCounter("fault.bad_env_spec");
        bad_env.Increment();
      }
    }
    return inj;
  }();
  return *injector;
}

void FaultInjector::Arm(const std::string& point, FaultSpec spec) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  PointState& st = s.points[point];
  st.armed = true;
  st.spec = std::move(spec);
  st.calls_since_arm = 0;
  st.fires_since_arm = 0;
  st.rng = std::make_unique<Rng>(st.spec.seed);
}

void FaultInjector::Disarm(const std::string& point) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.points.find(point);
  if (it != s.points.end()) {
    it->second.armed = false;
    it->second.rng.reset();
  }
}

void FaultInjector::DisarmAll() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  for (auto& [name, st] : s.points) {
    st.armed = false;
    st.rng.reset();
  }
}

Status FaultInjector::ArmFromSpec(const char* spec) {
  if (spec == nullptr || *spec == '\0') return Status::Ok();
  // Parse everything first so a malformed tail arms nothing.
  std::vector<std::pair<std::string, FaultSpec>> parsed;
  for (const std::string& clause : Split(spec, ';')) {
    size_t eq = clause.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument(
          "EPFIS_FAULTS: expected point=spec, got '" + clause + "'");
    }
    std::string point = clause.substr(0, eq);
    EPFIS_ASSIGN_OR_RETURN(FaultSpec fs,
                           ParseSpecTokens(point, clause.substr(eq + 1)));
    parsed.emplace_back(std::move(point), std::move(fs));
  }
  for (auto& [point, fs] : parsed) Arm(point, std::move(fs));
  return Status::Ok();
}

std::vector<std::string> FaultInjector::RegisteredPoints() const {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<std::string> names;
  names.reserve(s.points.size());
  for (const auto& [name, st] : s.points) names.push_back(name);
  return names;
}

std::vector<std::string> FaultInjector::ArmedPoints() const {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<std::string> names;
  for (const auto& [name, st] : s.points) {
    if (st.armed) names.push_back(name);
  }
  return names;
}

FaultCounters FaultInjector::counters(const std::string& point) const {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.points.find(point);
  return it == s.points.end() ? FaultCounters{} : it->second.counters;
}

namespace {

// Shared schedule evaluation; the caller holds the state lock. Returns
// whether the point fires on this call and maintains the self-disarm.
bool Fires(FaultInjector::PointState& st) {
  ++st.counters.calls;
  if (!st.armed) return false;
  ++st.calls_since_arm;
  if (st.calls_since_arm <= st.spec.skip_calls) return false;
  if (st.fires_since_arm >= st.spec.max_fires) return false;
  if (st.spec.probability < 1.0 &&
      !st.rng->NextBernoulli(st.spec.probability)) {
    return false;
  }
  ++st.fires_since_arm;
  ++st.counters.fires;
  if (st.fires_since_arm >= st.spec.max_fires) st.armed = false;
  static Counter injected =
      MetricsRegistry::Global().GetCounter("fault.injected");
  injected.Increment();
  return true;
}

Status MakeFaultStatus(std::string_view point, const FaultSpec& spec) {
  std::string msg = spec.message.empty()
                        ? "injected fault at " + std::string(point)
                        : spec.message;
  return Status(spec.code, std::move(msg));
}

}  // namespace

Status FaultInjector::Check(std::string_view point) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  PointState& st = s.points.try_emplace(std::string(point)).first->second;
  if (!Fires(st)) return Status::Ok();
  // Short-read / EINTR only mean something at byte-granular I/O points;
  // firing them at a plain check is a configuration mismatch we treat as
  // a no-op rather than inventing an error the caller never returns.
  if (st.spec.kind != FaultKind::kError) return Status::Ok();
  return MakeFaultStatus(point, st.spec);
}

FaultIoOutcome FaultInjector::CheckIo(std::string_view point,
                                      uint64_t* request_bytes) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  PointState& st = s.points.try_emplace(std::string(point)).first->second;
  FaultIoOutcome outcome;
  if (!Fires(st)) return outcome;
  switch (st.spec.kind) {
    case FaultKind::kError:
      outcome.status = MakeFaultStatus(point, st.spec);
      break;
    case FaultKind::kShortRead:
      if (request_bytes != nullptr && *request_bytes > 0) {
        *request_bytes =
            std::min(*request_bytes,
                     std::max<uint64_t>(1, st.spec.short_io_bytes));
      }
      break;
    case FaultKind::kEintr:
      outcome.eintr = true;
      break;
  }
  return outcome;
}

}  // namespace epfis
