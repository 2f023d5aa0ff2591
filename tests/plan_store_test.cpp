// PlanStore tests: the planner-input list (similar requests share a
// key, shape and planning-config changes split it, and plan_signature
// hashes exactly that list), seeded compilation bit-identical to
// plan-from-scratch, hit/miss/eviction accounting, the invalid-config
// guard, concurrent dedup to one planning, and the InferenceService
// plumbing. The concurrency test is part of the CI ThreadSanitizer job.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "model/pruning.hpp"
#include "service/inference_service.hpp"
#include "service/plan_store.hpp"

namespace dynasparse {
namespace {

Dataset plan_dataset(std::uint64_t seed, std::int64_t vertices = 150) {
  DatasetSpec spec;
  spec.name = "plan";
  spec.tag = "PL" + std::to_string(seed % 100);
  spec.vertices = vertices;
  spec.edges = vertices * 4;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.h0_density = 0.3;
  spec.hidden_dim = 8;
  spec.degree_skew = 0.5;
  return generate_dataset(spec, 1, seed);
}

GnnModel plan_model(const Dataset& ds, std::uint64_t seed,
                    GnnModelKind kind = GnnModelKind::kGcn) {
  Rng rng(seed + 1);
  return build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                     ds.spec.num_classes, rng);
}

std::uint64_t fingerprint_of(const CompiledProgram& prog) {
  InferenceReport rep = run_compiled(prog, {});
  return rep.deterministic_fingerprint();
}

TEST(PlanSignatureTest, SimilarRequestsCollideShapeChangesSplit) {
  Dataset ds = plan_dataset(1);
  GnnModel m = plan_model(ds, 1);
  const SimConfig cfg = u250_config();
  const std::int64_t nv = ds.graph.num_vertices();
  const PlanKey base_key = plan_key(m, nv, cfg);
  const std::uint64_t base = plan_signature(m, nv, cfg);

  // The list: |V|, the kernel count, (kind, out_dim) per kernel, then
  // the six planning config fields.
  ASSERT_EQ(base_key.size(), 2 + 2 * m.kernels.size() + 6);
  EXPECT_EQ(base_key[0], nv);
  EXPECT_EQ(base_key[1], static_cast<std::int64_t>(m.kernels.size()));
  for (std::size_t i = 0; i < m.kernels.size(); ++i) {
    EXPECT_EQ(base_key[2 + 2 * i], static_cast<std::int64_t>(m.kernels[i].kind));
    EXPECT_EQ(base_key[3 + 2 * i], m.kernels[i].out_dim);
  }

  // Whether (model, vertices, config) shares the base key; the signature
  // must agree with the key in every case below.
  auto same = [&](const GnnModel& model, std::int64_t vertices, const SimConfig& c) {
    const bool equal = plan_key(model, vertices, c) == base_key;
    EXPECT_EQ(equal, plan_signature(model, vertices, c) == base);
    return equal;
  };

  // Similar: different weight draw, pruning level, dataset instance of
  // the same shape — none reach the planner, all collide.
  EXPECT_TRUE(same(plan_model(ds, 77), nv, cfg));
  GnnModel pruned = m;
  prune_model(pruned, 0.6);
  EXPECT_TRUE(same(pruned, nv, cfg));
  EXPECT_TRUE(same(m, plan_dataset(9).graph.num_vertices(), cfg));

  // Planner inputs: vertex count, kernel shape, and each of the six
  // planning config fields.
  EXPECT_FALSE(same(m, nv + 1, cfg));
  Dataset wide = plan_dataset(1);
  wide.spec.hidden_dim = 16;
  EXPECT_FALSE(same(plan_model(wide, 1), wide.graph.num_vertices(), cfg));
  std::vector<SimConfig> planning(6, cfg);
  planning[0].psys *= 2;
  planning[1].num_cores += 1;
  planning[2].load_balance_eta += 1;
  planning[3].min_partition *= 2;
  planning[4].onchip_tile_bytes *= 2;
  planning[5].dense_elem_bytes *= 2;
  for (std::size_t i = 0; i < planning.size(); ++i)
    EXPECT_FALSE(same(m, nv, planning[i])) << "planning field " << i;

  // Non-planning config fields stay out: same plan, same key.
  SimConfig clocked = cfg;
  clocked.core_clock_hz *= 2.0;
  EXPECT_TRUE(same(m, nv, clocked));
  SimConfig storage = cfg;
  storage.sparse_storage_threshold = 0.5;
  EXPECT_TRUE(same(m, nv, storage));
}

TEST(PlanStoreTest, SeededCompileBitIdenticalToColdAndStatsCount) {
  Dataset ds = plan_dataset(2);
  GnnModel cold_model = plan_model(ds, 2);
  GnnModel similar = cold_model;
  prune_model(similar, 0.5);
  const SimConfig cfg = u250_config();

  const CompiledProgram cold = compile(similar, ds, cfg);

  PlanStore store;
  CompiledProgram first = store.compile_seeded(cold_model, ds, cfg);
  CompiledProgram seeded = store.compile_seeded(similar, ds, cfg);
  EXPECT_EQ(seeded.plan.n1, cold.plan.n1);
  EXPECT_EQ(seeded.plan.n2, cold.plan.n2);
  EXPECT_EQ(fingerprint_of(seeded), fingerprint_of(cold));
  // The seeded compile skipped the planner entirely.
  EXPECT_EQ(seeded.stats.planning_ms, 0.0);
  EXPECT_GT(cold.stats.planning_ms, 0.0);

  PlanStoreStats s = store.stats();
  EXPECT_EQ(s.planned, 1);
  EXPECT_EQ(s.seeded, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_GT(s.planning_ms, 0.0);
}

TEST(PlanStoreTest, DisabledStoreDegradesToColdCompile) {
  Dataset ds = plan_dataset(3);
  GnnModel m = plan_model(ds, 3);
  PlanStore store(0);
  EXPECT_FALSE(store.enabled());
  CompiledProgram prog = store.compile_seeded(m, ds, u250_config());
  EXPECT_GT(prog.stats.planning_ms, 0.0);  // planner ran inside compile()
  PlanStoreStats s = store.stats();
  EXPECT_EQ(s.planned, 0);
  EXPECT_EQ(s.seeded, 0);
}

TEST(PlanStoreTest, LruEvictionAtCapacity) {
  const SimConfig cfg = u250_config();
  PlanStore store(1);
  Dataset small = plan_dataset(4, 150);
  Dataset big = plan_dataset(5, 900);
  GnnModel small_model = plan_model(small, 4);
  GnnModel big_model = plan_model(big, 5);

  (void)store.compile_seeded(small_model, small, cfg);  // plan A resident
  (void)store.compile_seeded(big_model, big, cfg);      // plan B evicts A
  (void)store.compile_seeded(small_model, small, cfg);  // A re-planned

  PlanStoreStats s = store.stats();
  EXPECT_EQ(s.planned, 3);
  EXPECT_EQ(s.seeded, 0);
  EXPECT_GE(s.evictions, 1);
  EXPECT_EQ(s.entries, 1);
}

TEST(PlanStoreTest, InvalidConfigFailsTheRequestNotTheProcess) {
  // Regression: the seeded path once reached plan_partitions before any
  // config validation — psys = 0 divides and SIGFPEs the process. It
  // must instead surface the cold path's std::invalid_argument so a bad
  // request fails in isolation.
  Dataset ds = plan_dataset(12);
  GnnModel m = plan_model(ds, 12);
  SimConfig bad = u250_config();
  bad.psys = 0;
  PlanStore store;
  EXPECT_THROW((void)store.compile_seeded(m, ds, bad), std::invalid_argument);
  EXPECT_EQ(store.stats().planned, 0);
}

TEST(PlanStoreTest, ConcurrentGetOrPlanDedupsToOnePlanning) {
  const SimConfig cfg = u250_config();
  PlanStore store;
  constexpr int kThreads = 8;
  // Same plan shape, different content per thread (distinct weight draws):
  // exactly one thread plans, everyone else joins or hits.
  Dataset ds = plan_dataset(10);
  std::vector<GnnModel> models;
  for (int t = 0; t < kThreads; ++t) models.push_back(plan_model(ds, 100 + t));

  std::atomic<int> failures{0};
  std::vector<std::uint64_t> fps(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        try {
          CompiledProgram prog = store.compile_seeded(models[t], ds, cfg);
          fps[t] = fingerprint_of(prog);
        } catch (...) {
          ++failures;
        }
      });
    for (std::thread& th : threads) th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  PlanStoreStats s = store.stats();
  EXPECT_EQ(s.planned, 1);
  EXPECT_EQ(s.seeded, kThreads - 1);
  EXPECT_EQ(s.entries, 1);
  // Distinct contents -> distinct results, but each must equal its own
  // cold compile.
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(fps[t], fingerprint_of(compile(models[t], ds, cfg))) << t;
}

TEST(PlanStoreTest, ServicePlumbsPlanStoreAndStaysBitIdentical) {
  // Similar-heavy mini-stream through the full service: every request a
  // compilation-cache miss, three requests per plan shape.
  auto make_requests = [] {
    std::vector<ServiceRequest> reqs;
    for (std::int64_t vertices : {150, 300}) {
      Dataset ds = plan_dataset(11, vertices);
      for (double prune : {0.0, 0.4, 0.7}) {
        GnnModel m = plan_model(ds, 11);
        if (prune > 0.0) prune_model(m, prune);
        reqs.push_back(ServiceRequest::own(std::move(m), ds));
      }
    }
    return reqs;
  };

  std::vector<InferenceReport> plain, seeded;
  {
    InferenceService svc;  // defaults: plan store off
    EXPECT_EQ(svc.plan_store(), nullptr);
    plain = svc.run_batch(make_requests());
  }
  {
    ServiceOptions opts;
    opts.plan_store_capacity = 8;
    InferenceService svc(opts);
    ASSERT_NE(svc.plan_store(), nullptr);
    seeded = svc.run_batch(make_requests());
    PlanStoreStats s = svc.plan_store_stats();
    EXPECT_EQ(s.planned, 2);
    EXPECT_EQ(s.seeded, 4);
  }
  ASSERT_EQ(plain.size(), seeded.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(plain[i].deterministic_fingerprint(),
              seeded[i].deterministic_fingerprint())
        << i;
}

}  // namespace
}  // namespace dynasparse
