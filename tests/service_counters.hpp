#pragma once
// Counters that must add up, read from InferenceService::metrics() — the
// list every stats output renders — on a quiesced service (every
// submitted request resolved through wait(), none in flight).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <variant>

#include "service/inference_service.hpp"

namespace dynasparse::testing {

/// Whether `name` matches `pattern`, where one '*' matches any run of
/// characters (`budget_*_bytes` matches every tier's byte counter).
inline bool matches_counter(const std::string& pattern, const std::string& name) {
  const std::size_t star = pattern.find('*');
  if (star == std::string::npos) return pattern == name;
  const std::size_t tail = pattern.size() - star - 1;
  return name.size() >= star + tail && name.compare(0, star, pattern, 0, star) == 0 &&
         name.compare(name.size() - tail, tail, pattern, star + 1, tail) == 0;
}

/// Every metrics() name that no identity in expect_counters_add_up reads,
/// in one place, so a new counter is noticed: ServiceTest.
/// EveryCounterIsCheckedOrListed fails on a name that neither an identity
/// reads nor this list holds. `fault_*` covers each armed site's
/// counters, `budget_*_high_water` and `budget_*_shrinks` each tier's.
inline const char* const kUncheckedCounters[] = {
    "cache_hits", "cache_misses", "cache_evictions", "cache_inflight_joins",
    "cache_aborted_retries", "cache_pinned_skips", "cache_entries",
    "cache_shared_refs",
    "result_cache_evictions", "result_cache_inflight_joins",
    "result_cache_aborted_retries", "result_cache_pinned_skips",
    "result_cache_entries", "result_cache_shared_refs",
    "plan_hits", "plan_misses", "plan_inflight_joins", "plan_aborted_retries",
    "plan_entries", "plan_evictions", "plan_planned", "plan_seeded",
    "plan_planning_ms",
    "pool_hits", "pool_misses", "pool_evictions", "pool_inflight_joins",
    "pool_aborted_retries", "pool_pinned_skips", "pool_entries",
    "pool_shared_refs",
    "budget_high_water", "budget_rebalances", "budget_*_high_water",
    "budget_*_shrinks",
    "admission_rejected",
    "batches_formed", "batched_requests", "fused_batches", "fused_requests",
    "fused_kernels", "batch_mean_occupancy",
    "threads_spawned", "threads_jobs",
    "fault_*",
};

/// Assert the metrics identities of `svc`, whose callers saw `completed`
/// submitted requests return a report:
///  - a stolen chunk is a chunk: threads_chunks_stolen <= threads_chunks;
///  - the budget total is the sum of its tiers, each tier holds exactly
///    its cache's own bytes, and the total is within the limit: every
///    request settles the budget once it has let go of its entries;
///  - request conservation: every accepted request completed, was shed,
///    or failed with one of the counted typed errors;
///  - memoization: with the result cache on and every accepted request
///    completed, each one claimed the cache once, as a hit or a miss.
///    (An aborted request may have claimed it, and the joiners of an
///    aborted fill retry and claim it again, so runs with aborts are
///    not checked.) `completed` must count only submitted requests:
///    run_one() calls claim the cache too.
/// Returns the names the identities read.
inline std::set<std::string> expect_counters_add_up(const InferenceService& svc,
                                                    std::int64_t completed) {
  const Metrics metrics = svc.metrics();
  std::map<std::string, std::int64_t> c;
  for (const Metrics::Metric& m : metrics.list())
    if (const auto* v = std::get_if<std::int64_t>(&m.value)) c[m.name] = *v;
  std::set<std::string> read;
  auto get = [&](const std::string& name) -> std::int64_t {
    read.insert(name);
    auto it = c.find(name);
    EXPECT_NE(it, c.end()) << "metrics() has no counter " << name;
    return it == c.end() ? 0 : it->second;
  };

  EXPECT_LE(get("threads_chunks_stolen"), get("threads_chunks"));

  std::int64_t tier_sum = 0;
  for (const auto& [name, value] : c)
    if (name != "budget_bytes" && matches_counter("budget_*_bytes", name))
      tier_sum += get(name);
  EXPECT_EQ(get("budget_bytes"), tier_sum) << "budget total != sum of tiers";
  EXPECT_EQ(get("budget_compile_bytes"), get("cache_bytes"));
  EXPECT_EQ(get("budget_result_bytes"), get("result_cache_bytes"));
  EXPECT_EQ(get("budget_tile_pool_bytes"), get("pool_bytes"));
  EXPECT_LE(get("budget_bytes"), get("budget_limit"))
      << "a quiesced service must have settled its budget";

  EXPECT_EQ(get("admission_accepted"),
            completed + get("admission_shed") + get("cancelled") +
                get("expired_in_queue") + get("expired_running") +
                get("execution_failures"))
      << "accepted requests must complete, be shed, or fail typed";

  if (svc.options().result_cache_capacity > 0 &&
      get("admission_accepted") == completed)
    EXPECT_EQ(get("result_cache_hits") + get("result_cache_misses"), completed)
        << "each completed request must claim the result cache once";
  return read;
}

}  // namespace dynasparse::testing
