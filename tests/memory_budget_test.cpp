// MemoryBudget tests (util/memory_budget.hpp) plus the byte-edge cases
// of KeyedFutureCache's budget integration:
//
//   - the ordered pass: only the overage is evicted, and shrinkers run
//     in REVERSE registration order;
//   - track-only (limit 0): charges recorded, nothing ever shrinks;
//   - convergence: rebalance makes one pass over pinned tiers instead of
//     spinning;
//   - cache byte edges: zero-byte entries, a lone value heavier than the
//     budget limit admitted-then-dropped without collateral evictions
//     (the contract keyed_future_cache.hpp pins to this file), in-flight
//     fills racing shrink/clear under a shared tier, a cache wiring its
//     own shrinker to its tier and unwiring it when destroyed, and
//     crediting its tier for every byte it held when destroyed;
//   - the service-level invariant: once a randomized multi-dataset soak
//     and the synthetic serve replay quiesce, the sum over every tier
//     (plans + compile + pool + results) is at most
//     ServiceOptions::memory_budget_bytes, with no rebalance call from
//     outside the service.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "service/inference_service.hpp"
#include "service/request_stream.hpp"
#include "service_counters.hpp"
#include "util/keyed_future_cache.hpp"
#include "util/memory_budget.hpp"

namespace dynasparse {
namespace {

/// A payload whose "size" is just a number the weigher reads back.
struct Blob {
  std::size_t size = 0;
};
std::size_t weigh_blob(const Blob& b) { return b.size; }

using BlobCache = KeyedFutureCache<int, Blob>;

auto make_blob(std::size_t size) {
  return [size] { return std::make_shared<const Blob>(Blob{size}); };
}

TEST(MemoryBudgetTest, TrackOnlyRecordsWithoutShrinking) {
  MemoryBudget budget(0);  // limit 0 = track-only
  auto tier = budget.register_tier("t");
  bool shrunk = false;
  tier->set_shrinker([&](std::size_t) { shrunk = true; });

  EXPECT_FALSE(tier->charge(1 << 20));  // never signals over-limit
  budget.rebalance();                   // and rebalance is a no-op
  EXPECT_FALSE(shrunk);

  MemoryBudgetStats s = budget.stats();
  EXPECT_EQ(s.limit_bytes, 0u);
  EXPECT_EQ(s.bytes, 1 << 20);
  EXPECT_EQ(s.high_water, 1 << 20);
  EXPECT_EQ(s.rebalances, 0);

  tier->credit(1 << 20);
  s = budget.stats();
  EXPECT_EQ(s.bytes, 0);
  EXPECT_EQ(s.high_water, 1 << 20);  // high water survives the credit
}

TEST(MemoryBudgetTest, ChargeSignalsWhenTheSumCrossesTheLimit) {
  MemoryBudget budget(100);
  auto a = budget.register_tier("a");
  auto b = budget.register_tier("b");
  EXPECT_FALSE(a->charge(50));  // 50 <= 100
  EXPECT_TRUE(b->charge(60));   // 110 > 100: caller should rebalance
  b->credit(60);
  EXPECT_EQ(budget.total_bytes(), 50);
  EXPECT_FALSE(b->charge(50));  // exactly at the limit is within it
}

TEST(MemoryBudgetTest, ShrinkEvictsOnlyTheOverage) {
  MemoryBudget budget(1000);
  auto small = budget.register_tier("small");
  auto big = budget.register_tier("big");
  std::vector<std::pair<std::string, std::size_t>> calls;
  small->set_shrinker([&](std::size_t target) {
    calls.emplace_back("small", target);
  });
  big->set_shrinker([&](std::size_t target) {
    calls.emplace_back("big", target);
    // Model a real cache: evict down to the target.
    big->credit(static_cast<std::size_t>(big->bytes()) - target);
  });

  small->charge(100);
  big->charge(2000);        // 1100 bytes over the limit
  budget.rebalance();

  // big, registered last, is asked for the 1100-byte overage and no
  // more; that brings the total within the limit, so small is never
  // asked at all.
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].first, "big");
  EXPECT_EQ(calls[0].second, 900u);
  EXPECT_LE(budget.total_bytes(), 1000);
  EXPECT_EQ(small->bytes(), 100);

  MemoryBudgetStats s = budget.stats();
  EXPECT_GT(s.rebalances, 0);
  ASSERT_EQ(s.tiers.size(), 2u);
  EXPECT_EQ(s.tiers[0].name, "small");
  EXPECT_EQ(s.tiers[0].shrinks, 0);
  EXPECT_EQ(s.tiers[1].shrinks, 1);
}

TEST(MemoryBudgetTest, ShrinkersRunInReverseRegistrationOrder) {
  // The service registers the TilePool FIRST: program caches registered
  // after it must release their operand references before the pool is
  // asked to free the (then unpinned) tiles.
  MemoryBudget budget(100);
  std::vector<std::string> order;
  auto first = budget.register_tier("pool");
  auto second = budget.register_tier("programs");
  first->set_shrinker([&](std::size_t target) {
    order.push_back("pool");
    first->credit(static_cast<std::size_t>(first->bytes()) - target);
  });
  second->set_shrinker([&](std::size_t target) {
    order.push_back("programs");
    second->credit(static_cast<std::size_t>(second->bytes()) - target);
  });
  first->charge(300);
  second->charge(300);
  budget.rebalance();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "programs");  // registered last, shrinks first
  EXPECT_EQ(order[1], "pool");
  EXPECT_LE(budget.total_bytes(), 100);
}

TEST(MemoryBudgetTest, RebalanceTerminatesWithoutProgress) {
  // A tier whose bytes are all pinned cannot meet its target. rebalance
  // asks it once and stops instead of spinning until the heat death.
  MemoryBudget budget(100);
  auto pinned = budget.register_tier("pinned");
  std::atomic<int> shrinks{0};
  pinned->set_shrinker([&](std::size_t) { ++shrinks; });  // frees nothing
  pinned->charge(500);
  budget.rebalance();
  EXPECT_EQ(shrinks.load(), 1);          // one pass, one ask per tier
  EXPECT_EQ(budget.total_bytes(), 500);  // honest: still over, all pinned
}

TEST(BudgetCacheTest, ZeroByteEntriesAreCountBounded) {
  MemoryBudget budget(1000);
  auto tier = budget.register_tier("cache");
  BlobCache cache(2, weigh_blob, tier);
  for (int k = 0; k < 3; ++k) (void)cache.get_or_make(k, make_blob(0));
  KeyedCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2);  // the count bound still evicts
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.bytes, 0);
  EXPECT_EQ(tier->bytes(), 0);  // zero-byte entries charge nothing
}

TEST(BudgetCacheTest, OversizeValueAdmittedThenDroppedWithoutCollateral) {
  // The budget's limit is the only byte bound, so it bounds a single
  // value too.
  MemoryBudget budget(100);
  auto tier = budget.register_tier("cache");
  BlobCache cache(8, weigh_blob, tier);
  auto small = cache.get_or_make(1, make_blob(10));
  auto huge = cache.get_or_make(2, make_blob(150));  // > the limit alone
  ASSERT_TRUE(huge);
  EXPECT_EQ(huge->size, 150u);  // the caller still gets its value

  KeyedCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1);   // the oversize value never became resident
  EXPECT_EQ(s.evictions, 1); // dropped by its own insertion...
  EXPECT_EQ(s.bytes, 10);
  EXPECT_EQ(tier->bytes(), 10);  // ...never charged: transient, not resident
  EXPECT_TRUE(cache.peek(1));   // ...with no collateral: the small
  EXPECT_FALSE(cache.peek(2));  // entry was not flushed to make room
  // A value under the limit is resident and charged normally.
  (void)cache.get_or_make(3, make_blob(60));
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(tier->bytes(), 70);
}

TEST(BudgetCacheTest, CacheWiresItsOwnShrinkerAndUnwiresItOnDestruction) {
  MemoryBudget budget(100);
  auto tier = budget.register_tier("cache");
  {
    BlobCache cache(8, weigh_blob, tier);
    (void)cache.get_or_make(1, make_blob(60));
    (void)cache.get_or_make(2, make_blob(60));  // 120 > 100: rebalance
    KeyedCacheStats s = cache.stats();
    EXPECT_EQ(s.entries, 1);  // the budget's shrink evicted the LRU entry
    EXPECT_EQ(s.evictions, 1);
    EXPECT_FALSE(cache.peek(1));
    EXPECT_EQ(tier->bytes(), 60);
    EXPECT_EQ(budget.stats().tiers[0].shrinks, 1);
  }
  // The destroyed cache's hook is gone: an over-limit rebalance finds no
  // shrinker to run on the tier.
  EXPECT_TRUE(tier->charge(200));
  budget.rebalance();
  EXPECT_EQ(budget.stats().tiers[0].shrinks, 1);
}

TEST(BudgetCacheTest, DestroyedCacheCreditsEveryByteItCharged) {
  MemoryBudget budget(100);
  auto tier = budget.register_tier("cache");
  std::shared_ptr<const Blob> held;
  {
    BlobCache cache(8, weigh_blob, tier);
    (void)cache.get_or_make(1, make_blob(40));
    held = cache.get_or_make(2, make_blob(20));  // still held at destruction
    EXPECT_EQ(tier->bytes(), 60);
  }
  // The held entry's bytes are credited too: with the cache gone, nothing
  // else ever would.
  EXPECT_EQ(tier->bytes(), 0);
  EXPECT_EQ(budget.total_bytes(), 0);
  EXPECT_EQ(held->size, 20u);  // the holder's value outlives the cache
}

TEST(BudgetCacheTest, InFlightFillsRaceShrinkAndClearSafely) {
  MemoryBudget budget(4096);
  auto tier = budget.register_tier("cache");
  auto cache = std::make_shared<BlobCache>(16, weigh_blob, tier);

  std::atomic<bool> stop{false};
  std::thread antagonist([&] {
    while (!stop) {
      cache->shrink_to_bytes(0);
      cache->clear();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::vector<std::thread> fillers;
  for (int t = 0; t < 4; ++t)
    fillers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        int key = (t * 200 + i) % 24;
        auto v = cache->get_or_make(key, [&] {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          return std::make_shared<const Blob>(
              Blob{static_cast<std::size_t>(key % 7) * 64});
        });
        ASSERT_TRUE(v);
      }
    });
  for (std::thread& th : fillers) th.join();
  stop = true;
  antagonist.join();

  // Quiesced accounting must be exact: what the cache thinks it holds is
  // what the tier was charged, and a final clear returns both to zero.
  KeyedCacheStats s = cache->stats();
  EXPECT_EQ(s.bytes, tier->bytes());
  cache->clear();
  EXPECT_EQ(cache->stats().bytes, 0);
  EXPECT_EQ(tier->bytes(), 0);
}

// ---- the end-to-end invariant --------------------------------------------

Dataset soak_dataset(std::uint64_t seed) {
  DatasetSpec spec;
  spec.name = "soak";
  spec.tag = "MB" + std::to_string(seed % 100);
  spec.vertices = 150;
  spec.edges = 600;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.h0_density = 0.3;
  spec.hidden_dim = 8;
  spec.degree_skew = 0.5;
  return generate_dataset(spec, 1, seed);
}

TEST(MemoryBudgetTest, ServiceSoakQuiescesUnderTheBudget) {
  // Randomized request stream over 3 datasets x 2 model kinds with a
  // budget small enough to force cross-tier pressure. Two invariants:
  // every report stays bit-identical to its uncached reference (sharing
  // and eviction are invisible to results), and once the stream
  // quiesces the sum across every tier is within the budget.
  std::vector<ServiceRequest> requests;
  std::vector<std::uint64_t> expected;
  for (std::uint64_t seed : {31, 32, 33}) {
    for (GnnModelKind kind : {GnnModelKind::kGcn, GnnModelKind::kSage}) {
      Dataset ds = soak_dataset(seed);
      Rng rng(seed + 7);
      GnnModel model = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                                   ds.spec.num_classes, rng);
      EngineOptions eo;
      CompiledProgram prog = compile(model, ds, eo.config);
      InferenceReport ref = run_compiled(prog, eo.runtime);
      ref.dataset_tag = ds.spec.tag;  // the service stamps it; match
      expected.push_back(ref.deterministic_fingerprint());
      requests.push_back(ServiceRequest::own(std::move(model), std::move(ds), eo));
    }
  }

  constexpr std::size_t kBudget = 1u << 20;  // 1 MiB: a handful of programs
  ServiceOptions opts;
  opts.workers = 4;
  opts.cache_capacity = 16;
  opts.tile_pool_capacity = 16;
  opts.result_cache_capacity = 8;
  opts.memory_budget_bytes = kBudget;
  InferenceService service(opts);

  Rng order_rng(2023);
  for (int round = 0; round < 4; ++round) {
    std::vector<std::size_t> order(requests.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(order_rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    std::vector<std::pair<std::size_t, RequestId>> ids;
    ids.reserve(order.size());
    for (std::size_t i : order) ids.emplace_back(i, service.submit(requests[i]));
    for (const auto& [i, id] : ids)
      EXPECT_EQ(service.wait(id).deterministic_fingerprint(), expected[i])
          << "round " << round << " request " << i;
  }

  // Quiesced: nothing in flight, and the service settled its budget
  // after each request by itself.
  MemoryBudgetStats ms = service.memory_budget_stats();
  EXPECT_EQ(ms.limit_bytes, kBudget);
  EXPECT_LE(ms.bytes, static_cast<std::int64_t>(kBudget));
  std::int64_t tier_sum = 0;
  for (const MemoryTierStats& t : ms.tiers) tier_sum += t.bytes;
  EXPECT_EQ(tier_sum, ms.bytes);  // the sum is really the sum
  EXPECT_GE(ms.high_water, ms.bytes);
  EXPECT_GT(ms.high_water, 0);
  // The pool was actually exercised (operands shared across programs).
  TilePoolStats ps = service.tile_pool_stats();
  EXPECT_GT(ps.hits + ps.misses, 0);
  testing::expect_counters_add_up(service, 4 * static_cast<std::int64_t>(requests.size()));
}

TEST(MemoryBudgetTest, ServeReplaySettlesUnderTheBudget) {
  // The replay of `dynasparse_serve --requests 8 --workers 2 --mem-budget
  // 24m` (and 8m), whose 5 cached programs pin all 8 tile-pool operands.
  // Evicting the holders first, and settling after every request, must
  // leave the quiesced total within the limit, with programs and pool
  // operands both evicted.
  std::vector<ServiceRequest> requests;
  for (const StreamRequestSpec& spec : synthetic_stream(8, 2023))
    requests.push_back(materialize_request(spec));
  for (std::size_t budget : {std::size_t{24} << 20, std::size_t{8} << 20}) {
    ServiceOptions opts;
    opts.workers = 2;
    opts.memory_budget_bytes = budget;
    InferenceService service(opts);
    std::vector<RequestId> ids;
    for (const ServiceRequest& req : requests) ids.push_back(service.submit(req));
    for (RequestId id : ids) (void)service.wait(id);

    const MemoryBudgetStats ms = service.memory_budget_stats();
    EXPECT_LE(ms.bytes, static_cast<std::int64_t>(budget)) << budget << " bytes";
    EXPECT_GT(service.cache_stats().evictions, 0) << budget << " bytes";
    EXPECT_GT(service.tile_pool_stats().evictions, 0) << budget << " bytes";
    testing::expect_counters_add_up(service, static_cast<std::int64_t>(ids.size()));
  }
}

}  // namespace
}  // namespace dynasparse
