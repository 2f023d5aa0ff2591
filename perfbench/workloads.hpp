#pragma once
// The benchmark's workloads and their seeded request sequences, shared by
// perfbench_drive (over the wire) and perfbench_trace (in-process replay)
// so both see exactly the same traffic for a given --seed.
//
// The seed picks the order of requests and the arrival times only; the
// content of every dataset and model is fixed by the roster, so the same
// compiled programs and reference outputs serve every seed.

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "service/request_stream.hpp"

namespace perfbench {

using dynasparse::GnnModelKind;
using dynasparse::StreamRequestSpec;

/// One arrival: a single request, or on fused_burst a sweep of requests
/// that are sent together.
using Unit = std::vector<StreamRequestSpec>;

/// Server worker threads on every workload (dynasparse_serve --workers).
inline constexpr int kWorkers = 4;

struct Workload {
  std::string name;
  /// Server knobs beyond the defaults. perfbench_drive passes them as
  /// dynasparse_serve flags; the replay sets the matching ServiceOptions.
  std::size_t memoize = 0;     // --memoize
  int batch_window_us = 0;     // --batch-window
  std::size_t batch_max = 0;   // --batch-max
  std::size_t plan_store = 0;  // --plan-store
  std::vector<Unit> roster;
  double rate = 0.0;  // open-loop arrivals (units) per second
};

inline StreamRequestSpec spec_of(const char* dataset, GnnModelKind model,
                                 double prune = 0.0) {
  StreamRequestSpec s;
  s.dataset = dataset;
  s.model = model;
  s.prune = prune;
  return s;  // content seed: the request-stream default
}

inline std::vector<Workload> all_workloads() {
  const GnnModelKind gcn = GnnModelKind::kGcn, sage = GnnModelKind::kSage,
                     gin = GnnModelKind::kGin, sgc = GnnModelKind::kSgc;
  std::vector<Workload> out;

  // Execution in the runtime dominates: every paper model and every
  // primitive (GEMM/SpDMM/SPMM/skip) appears, and compile is all hits.
  Workload steady;
  steady.name = "steady_mix";
  for (const auto& [ds, model] :
       std::vector<std::pair<const char*, GnnModelKind>>{
           {"CI", gcn}, {"CO", gcn}, {"PU", gcn}, {"CI", sage}, {"CO", sage}})
    steady.roster.push_back({spec_of(ds, model)});
  steady.roster.push_back({spec_of("CO", gin, 0.9)});
  steady.roster.push_back({spec_of("CO", sgc, 0.9)});
  steady.rate = 100.0;
  out.push_back(steady);

  // Every request is a memo hit after warm-up: the cost left is
  // make_compile_key rehashing each input plus the report copy and
  // fingerprint on the event loop. The runtime does no work here.
  Workload memo;
  memo.name = "repeat_memo";
  memo.memoize = 64;
  for (const auto& [ds, model] :
       std::vector<std::pair<const char*, GnnModelKind>>{
           {"PU", gcn}, {"RE", gcn}, {"NE", gcn}, {"RE", sgc}, {"PU", sage},
           {"NE", sage}})
    memo.roster.push_back({spec_of(ds, model)});
  memo.rate = 60.0;
  out.push_back(memo);

  // Sweeps of one shape over four pruning levels arrive together: the
  // batch scheduler, fused execute_batch, the plan store and tile-pool
  // sharing carry the load.
  Workload fused;
  fused.name = "fused_burst";
  fused.batch_window_us = 2000;
  fused.batch_max = 4;
  fused.plan_store = 32;
  for (const auto& [ds, model] :
       std::vector<std::pair<const char*, GnnModelKind>>{
           {"CI", gcn}, {"CO", gcn}, {"PU", gcn}, {"CO", sage}}) {
    Unit sweep;
    for (double prune : {0.0, 0.1, 0.2, 0.3}) sweep.push_back(spec_of(ds, model, prune));
    fused.roster.push_back(sweep);
  }
  fused.rate = 25.0;
  out.push_back(fused);
  return out;
}

/// Every distinct spec of the workload, in roster order.
inline std::vector<StreamRequestSpec> unique_specs(const Workload& w) {
  std::vector<StreamRequestSpec> out;
  for (const Unit& u : w.roster)
    for (const StreamRequestSpec& s : u) out.push_back(s);
  return out;
}

/// Index in unique_specs(w) of member `member` of roster entry `unit`
/// (every roster entry of a workload has the same size).
inline std::size_t spec_index(const Workload& w, std::size_t unit, std::size_t member) {
  return unit * w.roster.front().size() + member;
}

/// Phases draw from separate streams of one seed, so the replay can
/// regenerate the timed window without the ramp before it.
enum class Phase : std::uint64_t { kRamp = 1, kWindow = 2, kClosed = 3 };

/// Seeded uniform roster picks, drawn as successive shuffled decks: each
/// entry appears equally often over a window, so the traffic mix (and
/// with it the mean simulated latency) barely moves between seeds while
/// the order does.
class Picker {
 public:
  /// `stream` tells apart several pickers of one phase.
  Picker(const Workload& w, std::uint64_t seed, Phase phase, std::uint64_t stream = 0)
      : n_(w.roster.size()),
        gen_(seed * 0x9E3779B97F4A7C15ull + (static_cast<std::uint64_t>(phase) << 32) +
             stream) {}

  std::size_t next() {
    if (deck_.empty()) {
      for (std::size_t k = 0; k < n_; ++k) deck_.push_back(k);
      for (std::size_t k = n_; k > 1; --k) std::swap(deck_[k - 1], deck_[gen_() % k]);
    }
    const std::size_t pick = deck_.back();
    deck_.pop_back();
    return pick;
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(gen_() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  std::size_t n_;
  std::mt19937_64 gen_;
  std::vector<std::size_t> deck_;
};

/// An open-loop arrival schedule: roster pick and Poisson offset per
/// arrival.
struct Schedule {
  std::vector<std::size_t> unit;  // roster index per arrival
  std::vector<double> at_s;       // arrival offset from phase start
};

/// Poisson arrivals at the workload's rate for `seconds`, extended until
/// the schedule holds at least `min_requests` requests.
inline Schedule make_schedule(const Workload& w, std::uint64_t seed, Phase phase,
                              double seconds, std::size_t min_requests) {
  Picker picker(w, seed, phase);
  Schedule s;
  std::size_t requests = 0;
  for (double t = 0.0; t < seconds || requests < min_requests;
       t += -std::log(1.0 - picker.uniform()) / w.rate) {
    s.unit.push_back(picker.next());
    s.at_s.push_back(t);
    requests += w.roster[s.unit.back()].size();
  }
  return s;
}

/// The timed window: --seconds of arrivals, and never fewer than 1000
/// requests, so its p99 has ten samples beyond it.
inline constexpr std::size_t kWindowMinRequests = 1000;
/// The untimed ramp before it, at the same rate and mix.
inline constexpr std::size_t kRampRequests = 300;

inline const Workload* find_workload(const std::vector<Workload>& all,
                                     const std::string& name) {
  for (const Workload& w : all)
    if (w.name == name) return &w;
  return nullptr;
}

}  // namespace perfbench
