// TilePool tests: the dataset-keyed shared operand pool behind
// compilation (src/matrix/tile_pool.hpp). The contract under test:
//
//   - sharing: two programs compiled from the same dataset under the
//     same partition geometry hold the SAME PartitionedMatrix objects
//     (pointer equality), and the pool accounts those bytes once;
//   - determinism: a pooled compile produces a report bit-identical to
//     a private (pool-off) compile — equal keys imply bit-identical
//     tiles, so sharing must be invisible to results;
//   - held-entry eviction: an entry referenced by a live program
//     survives shrink (pinned_skips), and leaves only once unreferenced;
//   - the pool's oversize rule: an operand heavier than the whole budget
//     stays resident and charged while held, where the other tiers drop
//     such a value on insertion;
//   - in-flight dedup + failure semantics of the KeyedFutureCache the
//     pool wraps: one build per key under concurrency, failed builds
//     leave no residue, an aborted leader hands the fill to a joiner;
//   - serving footprint: on a stream of several programs per dataset the
//     pool cuts cached bytes per program, at small and at paper scale,
//     without changing a single report;
//   - chaos: pool eviction racing concurrent plan-seeded compiles
//     neither crashes nor changes completed results (CI chaos lane).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "compiler/signature.hpp"
#include "matrix/tile_pool.hpp"
#include "service/inference_service.hpp"
#include "util/cancellation.hpp"
#include "util/fault_injection.hpp"
#include "util/memory_budget.hpp"

namespace dynasparse {
namespace {

Dataset pool_dataset(std::uint64_t seed, const std::string& tag = "TP") {
  DatasetSpec spec;
  spec.name = "tilepool";
  spec.tag = tag + std::to_string(seed % 100);
  spec.vertices = 150;
  spec.edges = 600;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.h0_density = 0.3;
  spec.hidden_dim = 8;
  spec.degree_skew = 0.5;
  return generate_dataset(spec, 1, seed);
}

GnnModel pool_model(const Dataset& ds, GnnModelKind kind, std::uint64_t seed) {
  Rng rng(seed);
  return build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                     ds.spec.num_classes, rng);
}

/// A small PartitionedMatrix to feed the pool directly in unit tests.
PartitionedMatrix tiny_partitioned(std::int64_t n = 8) {
  DenseMatrix m(n, n);
  for (std::int64_t i = 0; i < n; ++i) m.at(i, i) = static_cast<float>(i + 1);
  return PartitionedMatrix::from_dense(m, 4, 4, 0.5);
}

TEST(TilePoolTest, ProgramsFromOneDatasetShareOperands) {
  TilePool pool(16);
  Dataset ds = pool_dataset(7);
  // Same model kind, different weights: identical computation-graph
  // shapes, so both compiles plan the same geometry over the same
  // dataset — exactly the duplication the pool exists to collapse.
  GnnModel a = pool_model(ds, GnnModelKind::kGcn, 1);
  GnnModel b = pool_model(ds, GnnModelKind::kGcn, 2);
  EngineOptions eo;
  OperandSource src{&pool, dataset_signature(ds)};

  CompiledProgram pa = compile(a, ds, eo.config, {}, src);
  CompiledProgram pb = compile(b, ds, eo.config, {}, src);

  EXPECT_TRUE(pa.operands_pooled);
  EXPECT_TRUE(pb.operands_pooled);
  ASSERT_TRUE(pa.h0 && pb.h0);
  EXPECT_EQ(pa.h0.get(), pb.h0.get());  // literally the same tiles
  ASSERT_EQ(pa.adjacency.size(), pb.adjacency.size());
  for (const auto& [key, adj] : pa.adjacency) {
    auto it = pb.adjacency.find(key);
    ASSERT_NE(it, pb.adjacency.end());
    EXPECT_EQ(adj.get(), it->second.get());
  }

  TilePoolStats s = pool.stats();
  EXPECT_GT(s.hits, 0);                     // second compile reused
  EXPECT_EQ(s.entries, s.misses);           // every build resident once
  EXPECT_GT(s.shared_refs, 0);              // programs pin the entries
  EXPECT_GT(s.bytes, 0);

  // Pooled operands are the pool tier's bytes, not the program's:
  // footprints must not double-charge the shared copy.
  EXPECT_GT(pa.operand_bytes, 0u);
  CompiledProgram priv = compile(a, ds, eo.config);
  EXPECT_FALSE(priv.operands_pooled);
  EXPECT_EQ(priv.approx_footprint_bytes(),
            pa.approx_footprint_bytes() + pa.operand_bytes);
}

TEST(TilePoolTest, PooledCompileBitIdenticalToPrivate) {
  TilePool pool(16);
  EngineOptions eo;
  for (std::uint64_t seed : {3, 4}) {
    Dataset ds = pool_dataset(seed);
    OperandSource src{&pool, dataset_signature(ds)};
    for (GnnModelKind kind : {GnnModelKind::kGcn, GnnModelKind::kSage}) {
      GnnModel model = pool_model(ds, kind, seed + 10);
      CompiledProgram pooled = compile(model, ds, eo.config, {}, src);
      CompiledProgram private_ = compile(model, ds, eo.config);
      InferenceReport rp = run_compiled(pooled, eo.runtime);
      InferenceReport rq = run_compiled(private_, eo.runtime);
      EXPECT_EQ(rp.deterministic_fingerprint(), rq.deterministic_fingerprint())
          << "seed " << seed;
    }
  }
}

TEST(TilePoolTest, CapacityZeroBuildsPrivately) {
  TilePool pool(0);
  TilePool::Key key{1, 2, 3};
  auto a = pool.get_or_build(key, [] { return tiny_partitioned(); });
  auto b = pool.get_or_build(key, [] { return tiny_partitioned(); });
  ASSERT_TRUE(a && b);
  EXPECT_NE(a.get(), b.get());  // no sharing with the pool off
  TilePoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.entries, 0);
  EXPECT_EQ(s.bytes, 0);
}

TEST(TilePoolTest, PinnedEntriesSurviveShrinkUntilReleased) {
  TilePool pool(16);
  TilePool::Key pinned_key{1, 1, 1};
  auto pinned = pool.get_or_build(pinned_key, [] { return tiny_partitioned(); });
  auto loose = pool.get_or_build(TilePool::Key{1, 1, 2},
                                 [] { return tiny_partitioned(); });
  loose.reset();  // only the pool's copy remains

  pool.shrink_to_bytes(0);
  TilePoolStats s = pool.stats();
  EXPECT_EQ(s.entries, 1);         // the pinned entry survived
  EXPECT_EQ(s.evictions, 1);       // the loose one did not
  EXPECT_GT(s.pinned_skips, 0);
  // The survivor is still servable — and still the same object.
  auto again = pool.get_or_build(pinned_key, [] {
    ADD_FAILURE() << "pinned entry must not rebuild";
    return tiny_partitioned();
  });
  EXPECT_EQ(again.get(), pinned.get());

  again.reset();
  pinned.reset();
  pool.shrink_to_bytes(0);
  s = pool.stats();
  EXPECT_EQ(s.entries, 0);  // unpinned now: eviction proceeds
  EXPECT_EQ(s.bytes, 0);
}

TEST(TilePoolTest, HeldOperandHeavierThanTheBudgetStaysResident) {
  // Programs do not count the operands they take from the pool, so an
  // operand the pool dropped would be held but counted nowhere: the pool
  // keeps it resident and charged even over a 1-byte budget.
  MemoryBudget budget(1);
  auto tier = budget.register_tier("tile_pool");
  TilePool pool(16, tier);  // wires its own shrinker to the tier
  TilePool::Key key{7, 7, 7};
  auto held = pool.get_or_build(key, [] { return tiny_partitioned(); });
  ASSERT_TRUE(held);

  TilePoolStats s = pool.stats();
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.bytes, static_cast<std::int64_t>(held->approx_footprint_bytes()));
  EXPECT_EQ(tier->bytes(), s.bytes);  // charged to its tier
  auto again = pool.get_or_build(key, [] {
    ADD_FAILURE() << "a held operand must not rebuild";
    return tiny_partitioned();
  });
  EXPECT_EQ(again.get(), held.get());
}

TEST(TilePoolTest, ConcurrentBuildersDedupeToOneBuild) {
  TilePool pool(16);
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const PartitionedMatrix>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      got[static_cast<std::size_t>(t)] =
          pool.get_or_build(TilePool::Key{9, 9, 9}, [&] {
            ++builds;
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return tiny_partitioned();
          });
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(got[static_cast<std::size_t>(t)].get(), got[0].get());
  TilePoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, kThreads - 1);
}

TEST(TilePoolTest, FailedBuildLeavesNoResidueAndSurfacesToJoiners) {
  TilePool pool(16);
  TilePool::Key key{5, 5, 5};
  EXPECT_THROW(pool.get_or_build(
                   key, []() -> PartitionedMatrix {
                     throw std::runtime_error("synthetic build failure");
                   }),
               std::runtime_error);
  TilePoolStats s = pool.stats();
  EXPECT_EQ(s.entries, 0);  // no poisoned entry left behind
  EXPECT_EQ(s.bytes, 0);
  // The key is buildable again by the next caller.
  auto ok = pool.get_or_build(key, [] { return tiny_partitioned(); });
  ASSERT_TRUE(ok);
  EXPECT_EQ(pool.stats().entries, 1);
}

TEST(TilePoolTest, AbortedLeaderHandsOffToJoiner) {
  TilePool pool(16);
  TilePool::Key key{6, 6, 6};
  std::atomic<bool> leader_building{false};
  std::thread leader([&] {
    EXPECT_THROW(pool.get_or_build(key,
                                   [&]() -> PartitionedMatrix {
                                     leader_building = true;
                                     std::this_thread::sleep_for(
                                         std::chrono::milliseconds(100));
                                     throw RequestAbortedError("cancelled");
                                   }),
                 RequestAbortedError);
  });
  while (!leader_building)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Joins the in-flight build; when the leader aborts, this caller must
  // retry as the new leader rather than inherit the abort.
  auto value = pool.get_or_build(key, [] { return tiny_partitioned(); });
  leader.join();
  ASSERT_TRUE(value);
  TilePoolStats s = pool.stats();
  EXPECT_EQ(s.misses, 2);  // leader's miss + the joiner's retry-as-leader
  EXPECT_EQ(s.entries, 1);
  // The handoff is observable unless the joiner lost the race and
  // arrived after the erase (then it was a plain miss).
  EXPECT_LE(s.aborted_retries, 1);
}

/// Four programs per registry dataset at its default bench scale:
/// {GCN, GraphSAGE} x {unpruned, 50%-pruned weights}. Pruning changes the
/// model content, so every request is its own compile-cache entry while
/// the dataset behind each four is the same.
std::vector<ServiceRequest> four_programs_per_dataset(
    const std::vector<std::string>& tags) {
  constexpr std::uint64_t kSeed = 2023;
  std::vector<ServiceRequest> requests;
  for (const std::string& tag : tags) {
    const Dataset ds = generate_dataset(dataset_by_tag(tag), 0, kSeed);
    for (GnnModelKind kind : {GnnModelKind::kGcn, GnnModelKind::kSage}) {
      for (double prune : {0.0, 0.5}) {
        Rng rng(kSeed + static_cast<std::uint64_t>(kind) * 131);
        GnnModel model = build_model(kind, ds.spec.feature_dim,
                                     ds.spec.hidden_dim, ds.spec.num_classes,
                                     rng);
        if (prune > 0.0) prune_model(model, prune);
        requests.push_back(
            ServiceRequest::own(std::move(model), Dataset(ds), {}));
      }
    }
  }
  return requests;
}

struct FootprintRun {
  std::vector<std::uint64_t> fingerprints;
  double bytes_per_program = 0.0;  // (compile + pool bytes) / programs
};

FootprintRun serve_stream(const std::vector<ServiceRequest>& requests,
                          std::size_t tile_pool_capacity) {
  ServiceOptions opts;
  opts.workers = 4;
  opts.cache_capacity = 16;  // holds every program: byte growth is real
  opts.tile_pool_capacity = tile_pool_capacity;
  InferenceService service(opts);
  FootprintRun run;
  std::vector<RequestId> ids;
  for (const ServiceRequest& req : requests) ids.push_back(service.submit(req));
  for (RequestId id : ids)
    run.fingerprints.push_back(service.wait(id).deterministic_fingerprint());
  const CacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.entries, static_cast<std::int64_t>(requests.size()));
  run.bytes_per_program =
      static_cast<double>(cache.bytes + service.tile_pool_stats().bytes) /
      static_cast<double>(cache.entries);
  return run;
}

TEST(TilePoolTest, PoolShrinksBytesPerProgramOnServingStreams) {
  // Without the pool each program carries private partitioned copies of
  // its dataset's adjacency and H0 tiles; with it, programs compiled from
  // one dataset share one copy, so cached bytes grow with datasets rather
  // than programs. Each stream runs pool off, then pool on, and returns
  // the fractional cut in bytes per program; reports stay bit-identical.
  auto reduction = [](const std::vector<std::string>& tags) {
    const std::vector<ServiceRequest> requests =
        four_programs_per_dataset(tags);
    const FootprintRun off = serve_stream(requests, 0);
    const FootprintRun on = serve_stream(requests, 64);
    EXPECT_EQ(off.fingerprints, on.fingerprints) << tags[0] << " stream";
    return 1.0 - on.bytes_per_program / off.bytes_per_program;
  };
  // 12 programs over CI/CO/PU.
  EXPECT_GE(reduction({"CI", "CO", "PU"}), 0.30);
  // Paper-scale graphs: NELL and Reddit at their default bench scales.
  EXPECT_GT(reduction({"NE", "RE"}), 0.0);
}

TEST(TilePoolTest, EvictionRacesConcurrentCompilesWithoutDamage) {
  // CI chaos lane: four workers compile through the plan store while an
  // antagonist thread keeps flushing the pool. All requests must
  // resolve; completed reports must match the fault-free references.
  std::vector<ServiceRequest> requests;
  std::vector<std::uint64_t> expected;
  {
    FaultPauseScope pause;  // references computed fault-free
    for (std::uint64_t seed : {21, 22, 23}) {
      for (GnnModelKind kind : {GnnModelKind::kGcn, GnnModelKind::kSage}) {
        Dataset ds = pool_dataset(seed, "CH");
        GnnModel model = pool_model(ds, kind, seed + 5);
        EngineOptions eo;
        CompiledProgram prog = compile(model, ds, eo.config);
        InferenceReport ref = run_compiled(prog, eo.runtime);
        ref.dataset_tag = ds.spec.tag;  // the service stamps it; match
        expected.push_back(ref.deterministic_fingerprint());
        requests.push_back(
            ServiceRequest::own(std::move(model), std::move(ds), eo));
      }
    }
  }

  ServiceOptions opts;
  opts.workers = 4;
  opts.cache_capacity = 4;
  opts.tile_pool_capacity = 8;
  opts.plan_store_capacity = 8;
  {
    InferenceService service(opts);
    std::atomic<bool> stop{false};
    std::thread antagonist([&] {
      while (!stop) {
        service.tile_pool().shrink_to_bytes(0);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    for (int round = 0; round < 3; ++round) {
      std::vector<RequestId> ids;
      ids.reserve(requests.size());
      for (const ServiceRequest& req : requests) ids.push_back(service.submit(req));
      for (std::size_t i = 0; i < ids.size(); ++i) {
        InferenceReport rep = service.wait(ids[i]);
        EXPECT_EQ(rep.deterministic_fingerprint(), expected[i])
            << "round " << round << " request " << i;
      }
    }
    stop = true;
    antagonist.join();
    service.shutdown();
  }
}

}  // namespace
}  // namespace dynasparse
