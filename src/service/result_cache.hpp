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
// Entries are bounded two ways: by report count and by approximate
// resident bytes (InferenceReport::approx_footprint_bytes — reports
// carry the full functional output matrix, so a byte bound is what
// actually caps memory); whichever bound is exceeded evicts, LRU-first.
// The cache mechanics (in-flight dedup, poisoned-entry erase on a
// throwing run, never evicting a report a caller still holds) live in
// the shared util/keyed_future_cache.hpp core, which every reuse tier
// uses.
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
  /// max_entries 0 disables memoization. max_bytes bounds the approximate
  /// resident footprint of ready entries (0 = unbounded by bytes).
  /// `tier` (optional) mirrors those bytes into a shared MemoryBudget.
  explicit ResultCache(std::size_t max_entries = 0, std::size_t max_bytes = 0,
                       std::shared_ptr<MemoryBudget::Tier> tier = nullptr)
      : impl_(max_entries, max_bytes,
              [](const InferenceReport& r) { return r.approx_footprint_bytes(); },
              std::move(tier), LockRank::kResultCache) {}

  bool enabled() const { return impl_.max_entries() > 0; }

  /// Return the memoized report for `key`, running `run` at most once per
  /// key. May block while another thread runs the same key. Throws
  /// whatever `run` throws. Returns by value because the service's public
  /// API (wait/run_batch/run_one) hands out owned reports: a hit costs
  /// one report copy — still orders of magnitude cheaper than the
  /// compile + execute it replaces.
  InferenceReport get_or_run(const ResultKey& key,
                             const std::function<InferenceReport()>& run) {
    return *impl_.get_or_make(key, [&] {
      return std::make_shared<const InferenceReport>(run());
    });
  }

  ResultCacheStats stats() const { return impl_.stats(); }

  /// Budget shrinker hook: evict ready reports down to `target` bytes.
  void shrink_to_bytes(std::size_t target) { impl_.shrink_to_bytes(target); }

 private:
  KeyedFutureCache<ResultKey, InferenceReport> impl_;
};

}  // namespace dynasparse
