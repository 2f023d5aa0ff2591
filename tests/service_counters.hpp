#pragma once
// Counters that must add up, read from InferenceService::metrics() — the
// list every stats output renders — on a quiesced service (every
// submitted request resolved through wait(), none in flight).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <variant>

#include "service/inference_service.hpp"

namespace dynasparse::testing {

/// Assert the metrics identities of `svc`, whose callers saw `completed`
/// submitted requests return a report:
///  - a stolen chunk is a chunk: threads_chunks_stolen <= threads_chunks;
///  - the budget total is the sum of its tiers, and each tier holds
///    exactly its cache's own bytes (the plan tier only while the plan
///    store is on);
///  - request conservation: every accepted request completed, was shed,
///    or failed with one of the counted typed errors;
///  - memoization: with the result cache on and every accepted request
///    completed, each one claimed the cache once, as a hit or a miss.
///    (An aborted request may have claimed it, and the joiners of an
///    aborted fill retry and claim it again, so runs with aborts are
///    not checked.) `completed` must count only submitted requests:
///    run_one() calls claim the cache too.
inline void expect_counters_add_up(const InferenceService& svc,
                                   std::int64_t completed) {
  const Metrics metrics = svc.metrics();
  std::map<std::string, std::int64_t> c;
  for (const Metrics::Metric& m : metrics.list())
    if (const auto* v = std::get_if<std::int64_t>(&m.value)) c[m.name] = *v;
  auto get = [&](const std::string& name) -> std::int64_t {
    auto it = c.find(name);
    EXPECT_NE(it, c.end()) << "metrics() has no counter " << name;
    return it == c.end() ? 0 : it->second;
  };

  EXPECT_LE(get("threads_chunks_stolen"), get("threads_chunks"));

  std::int64_t tier_sum = 0;
  for (const auto& [name, value] : c) {
    const std::string prefix = "budget_", suffix = "_bytes";
    if (name != "budget_bytes" && name.rfind(prefix, 0) == 0 &&
        name.size() > prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      tier_sum += value;
  }
  EXPECT_EQ(get("budget_bytes"), tier_sum) << "budget total != sum of tiers";
  EXPECT_EQ(get("budget_compile_bytes"), get("cache_bytes"));
  EXPECT_EQ(get("budget_result_bytes"), get("result_cache_bytes"));
  EXPECT_EQ(get("budget_tile_pool_bytes"), get("pool_bytes"));
  if (c.count("budget_plans_bytes"))
    EXPECT_EQ(get("budget_plans_bytes"), get("plan_bytes"));

  EXPECT_EQ(get("admission_accepted"),
            completed + get("admission_shed") + get("cancelled") +
                get("expired_in_queue") + get("expired_running") +
                get("execution_failures"))
      << "accepted requests must complete, be shed, or fail typed";

  if (svc.options().result_cache_capacity > 0 &&
      get("admission_accepted") == completed)
    EXPECT_EQ(get("result_cache_hits") + get("result_cache_misses"), completed)
        << "each completed request must claim the result cache once";
}

}  // namespace dynasparse::testing
