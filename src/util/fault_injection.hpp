#pragma once
// Deterministic fault injection (the chaos layer behind tests/chaos_test).
//
// A fault *site* is a named point in the code — `fault_point("x.y")` —
// that normally does nothing. Arming the injector with a spec like
//
//   plan_store.disk_read:0.3,compile.alloc:0.1:5,seed:42
//
// makes each listed site fire with the given probability (an optional
// third field bounds how many times it may fire at all; `seed:N` seeds
// the RNG). What "fire" means is the call site's business: throwing
// std::bad_alloc, failing a disk read, sleeping in the worker loop —
// the injector only answers yes/no.
//
// Determinism: each armed site owns its own mt19937_64 seeded from
// (spec seed ^ site-name hash), so the k-th evaluation of a given site
// draws the same value regardless of how other sites or threads
// interleave. The chaos tests rely on this to reproduce failures from a
// seed alone.
//
// Overhead: fault_point() on an unarmed global injector is one inline
// relaxed atomic load and a branch — cheap enough to leave in production
// code unconditionally (bench/unarmed_overhead gates it at <1% of request
// latency). Armed sites take a mutex; chaos runs are not benchmarks.
//
// The process-global injector (FaultInjector::global) arms itself from
// DYNASPARSE_FAULT_SPEC on first use — how CI's chaos lane injects
// faults into unmodified binaries — and the first fault_point() call is
// such a use. ServiceOptions::fault_spec routes through the same
// instance.

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <atomic>
#include <mutex>

#include "util/ordered_mutex.hpp"
namespace dynasparse {

/// What an armed `runtime.kernel_fault` site throws — a stand-in for the
/// transient execution failures (device faults, poisoned inputs) the
/// service must absorb without corrupting neighbors.
struct FaultInjectedError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// The known injection sites. fault_point() takes any string, but the
// spec parser rejects names outside this list — a typo in
// DYNASPARSE_FAULT_SPEC must be a loud error, not a silently-unarmed
// chaos run.
inline constexpr const char* kFaultCompileAlloc = "compile.alloc";
inline constexpr const char* kFaultPlanStoreDiskRead = "plan_store.disk_read";
inline constexpr const char* kFaultPlanStoreDiskWrite = "plan_store.disk_write";
inline constexpr const char* kFaultQueueDelay = "queue.delay";
inline constexpr const char* kFaultRuntimeKernelFault = "runtime.kernel_fault";
/// Network front-end sites (net/server.cpp, net/connection.cpp): a fired
/// net.accept drops the just-accepted connection (the client sees an
/// immediate close), a fired net.read kills an established connection as
/// if the transport reset it — driving the teardown-cancels-in-flight
/// path the same way the service sites drive the request pipeline.
inline constexpr const char* kFaultNetAccept = "net.accept";
inline constexpr const char* kFaultNetRead = "net.read";

/// All known site names, for spec validation and exhaustive chaos tests.
const std::vector<std::string>& fault_site_names();

/// One armed site.
struct FaultSiteSpec {
  std::string site;
  double probability = 0.0;   // in [0, 1]
  std::int64_t count = -1;    // max injections; -1 = unlimited
};

struct FaultSpec {
  std::uint64_t seed = 2023;
  std::vector<FaultSiteSpec> sites;
  bool empty() const { return sites.empty(); }
};

/// Parse "site:prob[:count],...,seed:N". Throws std::invalid_argument on
/// unknown site names, probabilities outside [0,1], negative counts, or
/// malformed numbers (util/strict_parse discipline: the whole token must
/// parse). An empty string parses to an empty (disarmed) spec.
FaultSpec parse_fault_spec(const std::string& spec);

/// Per-site counters (snapshot).
struct FaultSiteStats {
  std::int64_t evaluations = 0;  // times the site was reached while armed
  std::int64_t injected = 0;     // times it fired
};

class FaultInjector {
 public:
  /// Replace the armed spec (an empty spec disarms). Resets counters and
  /// reseeds every site's RNG — arming is the start of a fresh
  /// deterministic chaos run.
  void arm(const FaultSpec& spec);
  void disarm() { arm(FaultSpec{}); }
  /// Any site armed? One relaxed load.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Should the site fire now? Counts the evaluation, draws from the
  /// site's own RNG, honors the count budget. Unarmed/unknown sites and
  /// paused injectors return false without counting.
  bool should_inject(const std::string& site);

  /// Suspend/resume injection without losing the armed sites or their
  /// RNG positions — how tests compute fault-free reference results in
  /// the middle of a chaos run. Nestable.
  void pause() { pause_depth_.fetch_add(1, std::memory_order_relaxed); }
  void resume() { pause_depth_.fetch_sub(1, std::memory_order_relaxed); }

  FaultSiteStats site_stats(const std::string& site) const;
  /// (site, stats) for every armed site, in spec order.
  std::vector<std::pair<std::string, FaultSiteStats>> all_stats() const;

  /// The process-global injector. First access arms it from
  /// DYNASPARSE_FAULT_SPEC (malformed values are a hard
  /// std::invalid_argument — a chaos run must never silently not run).
  static FaultInjector& global();

 private:
  struct Site {
    FaultSiteSpec spec;
    std::mt19937_64 rng;
    FaultSiteStats stats;
  };

  std::atomic<bool> armed_{false};
  bool is_global_ = false;  // arm() also mirrors into g_global_fault_armed
  std::atomic<int> pause_depth_{0};
  mutable OrderedMutex mu_{LockRank::kFaultInjector};
  std::unordered_map<std::string, Site> sites_;
  std::vector<std::string> order_;  // spec order, for all_stats()
};

namespace detail {
/// The global injector's armed() state, mirrored where fault_point() can
/// read it without a call. It starts true, so the first evaluation takes
/// the out-of-line path, which builds the global injector (arming it from
/// DYNASPARSE_FAULT_SPEC) and stores the real state.
inline std::atomic<bool> g_global_fault_armed{true};
bool global_should_inject(const char* site);
}  // namespace detail

/// The injection point: false (and nearly free) unless the global
/// injector arms `site`. Call sites decide what a `true` means.
inline bool fault_point(const char* site) {
  if (!detail::g_global_fault_armed.load(std::memory_order_relaxed))
    return false;
  return detail::global_should_inject(site);
}

/// RAII pause of the global injector, for computing fault-free reference
/// results inside chaos tests.
class FaultPauseScope {
 public:
  FaultPauseScope() { FaultInjector::global().pause(); }
  ~FaultPauseScope() { FaultInjector::global().resume(); }
  FaultPauseScope(const FaultPauseScope&) = delete;
  FaultPauseScope& operator=(const FaultPauseScope&) = delete;
};

}  // namespace dynasparse
