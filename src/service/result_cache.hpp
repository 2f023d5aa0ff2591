#pragma once
// Result memoization: the logical endpoint of the DynaSparse amortization
// idea. The compilation cache shares preprocessing across content-equal
// requests; this cache shares the *entire run*. It is sound because the
// simulator is deterministic end to end — a ResultKey
// (compiler/signature.hpp) pins the compilation content AND every
// RuntimeOptions field, and two runs under an equal key produce
// bit-identical deterministic report fields (the invariant
// tests/golden_report_test.cpp and the service bit-identity checks
// enforce). A repeat request therefore returns the stored
// InferenceReport without executing anything.
//
// Entries are bounded by report count and, through the service's
// MemoryBudget tier, by the budget's limit on approximate resident bytes
// (InferenceReport::approx_footprint_bytes — reports carry the full
// functional output matrix, so bytes are what actually cost memory).
// Each entry keeps its report's deterministic fingerprint, computed once
// by the fill, so a hit hands it out without rehashing the output.
// The cache mechanics (in-flight dedup, poisoned-entry erase on a
// throwing run, never evicting a report a caller still holds, the
// budget's eviction hook) live in the shared util/keyed_future_cache.hpp
// core, which every reuse tier uses.
//
// Thread-safe. max_entries 0 disables storage (every call executes) but
// still counts stats, keeping the memoization-off baseline measurable
// through the same code path.

#include <cstdint>
#include <functional>
#include <memory>

#include "compiler/signature.hpp"
#include "core/report.hpp"
#include "util/keyed_future_cache.hpp"

namespace dynasparse {

/// `bytes` is the approximate resident footprint of ready entries.
using ResultCacheStats = KeyedCacheStats;

class ResultCache {
 public:
  /// max_entries 0 disables memoization. `tier` (optional) charges the
  /// reports' bytes to a shared MemoryBudget, whose limit bounds them.
  explicit ResultCache(std::size_t max_entries = 0,
                       std::shared_ptr<MemoryBudget::Tier> tier = nullptr)
      : impl_(max_entries,
              [](const Memoized& m) { return m.report.approx_footprint_bytes(); },
              std::move(tier), LockRank::kResultCache) {}

  bool enabled() const { return impl_.max_entries() > 0; }

  /// Return the memoized report for `key`, running `run` at most once per
  /// key. May block while another thread runs the same key. Throws
  /// whatever `run` throws. The report is the entry itself, shared and
  /// read-only — no copy; holding it pins the entry against eviction.
  /// The fill also computes the report's deterministic_fingerprint() once
  /// and keeps it beside the report; `fingerprint`, when given, receives
  /// it, so a hit never rehashes the output.
  std::shared_ptr<const InferenceReport> get_or_run_shared(
      const ResultKey& key, const std::function<InferenceReport()>& run,
      std::uint64_t* fingerprint = nullptr) {
    std::shared_ptr<const Memoized> m = impl_.get_or_make(key, [&] {
      InferenceReport report = run();
      const std::uint64_t fp = report.deterministic_fingerprint();
      return std::make_shared<const Memoized>(Memoized{std::move(report), fp});
    });
    if (fingerprint) *fingerprint = m->fingerprint;
    const InferenceReport* report = &m->report;
    return std::shared_ptr<const InferenceReport>(std::move(m), report);
  }

  /// get_or_run_shared, then one copy of the report, for callers that
  /// need an owned one.
  InferenceReport get_or_run(const ResultKey& key,
                             const std::function<InferenceReport()>& run,
                             std::uint64_t* fingerprint = nullptr) {
    return *get_or_run_shared(key, run, fingerprint);
  }

  ResultCacheStats stats() const { return impl_.stats(); }

 private:
  struct Memoized {
    InferenceReport report;
    std::uint64_t fingerprint = 0;  // report.deterministic_fingerprint()
  };
  KeyedFutureCache<ResultKey, Memoized> impl_;
};

}  // namespace dynasparse
