// Integration-grade unit tests of the runtime system: functional
// correctness against the naive reference, timing structure, strategy
// behaviour, runtime-overhead accounting, and batch execution.

#include <gtest/gtest.h>

#include <vector>

#include "compiler/compiler.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "model/reference.hpp"
#include "runtime/runtime_system.hpp"

namespace dynasparse {
namespace {

struct TestSetup {
  Dataset ds;
  GnnModel model;
  CompiledProgram prog;
};

TestSetup make_setup(GnnModelKind kind, double h0_density = 0.3,
                     std::uint64_t seed = 11) {
  DatasetSpec spec;
  spec.name = "toy";
  spec.tag = "TOY";
  spec.vertices = 150;
  spec.edges = 600;
  spec.feature_dim = 40;
  spec.num_classes = 5;
  spec.h0_density = h0_density;
  spec.hidden_dim = 12;
  Dataset ds = generate_dataset(spec, 1, seed);
  Rng rng(seed + 1);
  GnnModel model =
      build_model(kind, spec.feature_dim, spec.hidden_dim, spec.num_classes, rng);
  CompiledProgram prog = compile(model, ds, u250_config());
  return TestSetup{std::move(ds), std::move(model), std::move(prog)};
}

class RuntimeFunctional : public ::testing::TestWithParam<GnnModelKind> {};

TEST_P(RuntimeFunctional, MatchesReferenceBitExactly) {
  TestSetup s = make_setup(GetParam());
  RuntimeOptions opt;
  ExecutionResult r = execute(s.prog, opt);
  DenseMatrix expect = reference_output(s.model, s.ds.graph, s.ds.features);
  EXPECT_EQ(DenseMatrix::max_abs_diff(r.output.to_dense(), expect), 0.0f)
      << model_kind_name(GetParam());
}

TEST_P(RuntimeFunctional, AllStrategiesProduceIdenticalValues) {
  TestSetup s = make_setup(GetParam());
  RuntimeOptions opt;
  opt.strategy = MappingStrategy::kDynamic;
  DenseMatrix dyn = execute(s.prog, opt).output.to_dense();
  opt.strategy = MappingStrategy::kStatic1;
  DenseMatrix s1 = execute(s.prog, opt).output.to_dense();
  opt.strategy = MappingStrategy::kStatic2;
  DenseMatrix s2 = execute(s.prog, opt).output.to_dense();
  EXPECT_EQ(DenseMatrix::max_abs_diff(dyn, s1), 0.0f);
  EXPECT_EQ(DenseMatrix::max_abs_diff(dyn, s2), 0.0f);
}

TEST_P(RuntimeFunctional, SingleThreadMatchesParallel) {
  TestSetup s = make_setup(GetParam());
  RuntimeOptions opt;
  opt.host_threads = 1;
  DenseMatrix serial = execute(s.prog, opt).output.to_dense();
  opt.host_threads = 8;
  DenseMatrix parallel = execute(s.prog, opt).output.to_dense();
  EXPECT_EQ(DenseMatrix::max_abs_diff(serial, parallel), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(AllModels, RuntimeFunctional,
                         ::testing::Values(GnnModelKind::kGcn, GnnModelKind::kSage,
                                           GnnModelKind::kGin, GnnModelKind::kSgc),
                         [](const auto& info) { return model_kind_name(info.param); });

TEST(RuntimeTimingTest, ReportStructure) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  ExecutionResult r = execute(s.prog, {});
  ASSERT_EQ(r.kernels.size(), s.model.kernels.size());
  double sum = 0.0;
  for (const KernelExecutionReport& k : r.kernels) {
    EXPECT_GT(k.makespan_cycles, 0.0) << k.name;
    EXPECT_GT(k.tasks, 0);
    EXPECT_EQ(k.pairs, k.pairs_gemm + k.pairs_spdmm + k.pairs_spmm + k.pairs_skipped);
    EXPECT_GE(k.load_imbalance, 1.0);
    sum += k.makespan_cycles;
  }
  EXPECT_DOUBLE_EQ(r.exec_cycles, sum);
  EXPECT_NEAR(r.exec_ms, u250_config().cycles_to_ms(sum), 1e-12);
  EXPECT_GT(r.latency_ms, 0.0);
}

TEST(RuntimeTimingTest, DynamicComputeNeverExceedsStatic) {
  for (GnnModelKind kind : paper_models()) {
    TestSetup s = make_setup(kind);
    RuntimeOptions opt;
    opt.strategy = MappingStrategy::kDynamic;
    double dyn = execute(s.prog, opt).stats.compute_cycles;
    opt.strategy = MappingStrategy::kStatic1;
    double s1 = execute(s.prog, opt).stats.compute_cycles;
    opt.strategy = MappingStrategy::kStatic2;
    double s2 = execute(s.prog, opt).stats.compute_cycles;
    // Mode switches add up to one cycle per pair; allow that slack.
    double slack = static_cast<double>(execute(s.prog, opt).stats.pairs) + 1.0;
    EXPECT_LE(dyn, std::min(s1, s2) + slack) << model_kind_name(kind);
  }
}

TEST(RuntimeTimingTest, DynamicSkipsEmptyPairs) {
  // Features nearly empty and partitions forced small so whole H0
  // partitions are zero — Dynamic skips them outright (Algorithm 7
  // lines 6-7) and the statics cannot.
  DatasetSpec spec;
  spec.name = "toy";
  spec.tag = "TOY";
  spec.vertices = 150;
  spec.edges = 600;
  spec.feature_dim = 40;
  spec.num_classes = 5;
  spec.h0_density = 0.0005;
  spec.hidden_dim = 12;
  Dataset ds = generate_dataset(spec, 1, 11);
  Rng rng(12);
  GnnModel model = build_model(GnnModelKind::kGcn, 40, 12, 5, rng);
  SimConfig cfg = u250_config();
  cfg.min_partition = 16;
  cfg.onchip_tile_bytes = 16 * 16 * 4;  // Nmax = 16 -> many tiny tiles
  CompiledProgram prog = compile(model, ds, cfg);
  RuntimeOptions opt;
  opt.strategy = MappingStrategy::kDynamic;
  ExecutionResult r = execute(prog, opt);
  EXPECT_GT(r.stats.pairs_skipped, 0);
  opt.strategy = MappingStrategy::kStatic1;
  ExecutionResult rs = execute(prog, opt);
  EXPECT_EQ(rs.stats.pairs_skipped, 0);  // statics never skip
}

TEST(RuntimeTimingTest, Static1UsesOnlySpdmmAndGemm) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  RuntimeOptions opt;
  opt.strategy = MappingStrategy::kStatic1;
  ExecutionResult r = execute(s.prog, opt);
  EXPECT_EQ(r.stats.pairs_spmm, 0);
  EXPECT_GT(r.stats.pairs_gemm, 0);
  EXPECT_GT(r.stats.pairs_spdmm, 0);
}

TEST(RuntimeTimingTest, Static2UsesOnlySpdmm) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  RuntimeOptions opt;
  opt.strategy = MappingStrategy::kStatic2;
  ExecutionResult r = execute(s.prog, opt);
  EXPECT_EQ(r.stats.pairs_spmm, 0);
  EXPECT_EQ(r.stats.pairs_gemm, 0);
  EXPECT_EQ(r.stats.pairs_skipped, 0);
  EXPECT_EQ(r.stats.pairs_spdmm, r.stats.pairs);
}

TEST(RuntimeTimingTest, SoftOverheadOnlyForDynamicK2P) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  RuntimeOptions opt;
  opt.strategy = MappingStrategy::kDynamic;
  double dyn_soft = execute(s.prog, opt).soft_ms;
  opt.strategy = MappingStrategy::kStatic1;
  double s1_soft = execute(s.prog, opt).soft_ms;
  EXPECT_GT(dyn_soft, s1_soft);  // statics pay dispatch only
  EXPECT_GT(s1_soft, 0.0);
}

TEST(RuntimeTimingTest, RuntimeOverheadMostlyHidden) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  RuntimeOptions opt;
  ExecutionResult r = execute(s.prog, opt);
  // Paper accounting: runtime system fully hidden by overlap.
  EXPECT_DOUBLE_EQ(r.exposed_runtime_ms, 0.0);
  EXPECT_GT(r.soft_ms, 0.0);  // ...but its cost is still measured (Fig. 13)
  RuntimeOptions exposed = opt;
  exposed.hide_runtime = false;
  ExecutionResult re = execute(s.prog, exposed);
  EXPECT_NEAR(re.exposed_runtime_ms, re.soft_ms, 1e-12);
  EXPECT_GT(re.latency_ms, r.latency_ms);
}

TEST(RuntimeTimingTest, AhmAblationIncreasesLatency) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  RuntimeOptions hidden;
  RuntimeOptions exposed;
  exposed.hide_ahm = false;
  double lat_hidden = execute(s.prog, hidden).exec_ms;
  double lat_exposed = execute(s.prog, exposed).exec_ms;
  EXPECT_GT(lat_exposed, lat_hidden);
}

TEST(RuntimeTimingTest, OutputDensitiesTracked) {
  TestSetup s = make_setup(GnnModelKind::kGcn);
  ExecutionResult r = execute(s.prog, {});
  ASSERT_EQ(r.node_densities.size(), s.model.kernels.size());
  for (double d : r.node_densities) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
  // The kernel reports carry the same values.
  for (std::size_t i = 0; i < r.kernels.size(); ++i)
    EXPECT_DOUBLE_EQ(r.kernels[i].output_density, r.node_densities[i]);
}

/// Fingerprint of every deterministic field of one execution, output
/// matrix included.
std::uint64_t fingerprint(const CompiledProgram& prog,
                          const RuntimeOptions& opt, ExecutionResult r) {
  return assemble_compiled_report(prog, opt, std::move(r))
      .deterministic_fingerprint();
}

/// Run `members` plus one member whose token is cancelled before the run
/// (inserted at index 1) through execute_batch. Every other member's
/// result must be bit-identical to execute(); the cancelled one fails
/// alone with CancelledError.
BatchExecution expect_batch_matches_execute(std::vector<BatchMember> members) {
  CancellationSource cancelled;
  cancelled.cancel();
  BatchMember doomed{members[0].prog, members[0].opt, cancelled.token()};
  members.insert(members.begin() + 1, doomed);
  BatchExecution bx = execute_batch(members);
  EXPECT_EQ(bx.members.size(), members.size());
  for (std::size_t m = 0; m < members.size(); ++m) {
    const BatchMember& in = members[m];
    const std::exception_ptr err = bx.members[m].error;
    if (m == 1) {
      EXPECT_TRUE(err) << "the cancelled member completed";
      if (err) EXPECT_THROW(std::rethrow_exception(err), CancelledError);
      continue;
    }
    EXPECT_FALSE(err) << "member " << m;
    if (err) continue;
    EXPECT_EQ(fingerprint(*in.prog, in.opt, std::move(bx.members[m].result)),
              fingerprint(*in.prog, in.opt, execute(*in.prog, in.opt)))
        << "member " << m;
  }
  return bx;
}

TEST(RuntimeBatchTest, MixedPlanShapesRunAsBatchesOfOne) {
  // GCN and GraphSAGE programs are not structurally batchable: the
  // batch_compatible fallback runs each member alone.
  TestSetup gcn = make_setup(GnnModelKind::kGcn);
  TestSetup sage = make_setup(GnnModelKind::kSage);
  ASSERT_NE(gcn.prog.kernels.size(), sage.prog.kernels.size());
  RuntimeOptions static1;
  static1.strategy = MappingStrategy::kStatic1;
  BatchExecution bx = expect_batch_matches_execute({
      BatchMember{&gcn.prog, {}, {}},
      BatchMember{&sage.prog, {}, {}},
      BatchMember{&sage.prog, static1, {}},
  });
  EXPECT_EQ(bx.fused_kernels, 0);
}

TEST(RuntimeBatchTest, MembersSharingOneProgramFuseAndMatchExecute) {
  // One shared program: pointer-equal operands, so kernels run as shared
  // sweeps; each member keeps its own options.
  TestSetup s = make_setup(GnnModelKind::kGcn);
  RuntimeOptions static1, static2, serial;
  static1.strategy = MappingStrategy::kStatic1;
  static2.strategy = MappingStrategy::kStatic2;
  serial.host_threads = 1;
  BatchExecution bx = expect_batch_matches_execute({
      BatchMember{&s.prog, {}, {}},
      BatchMember{&s.prog, static1, {}},
      BatchMember{&s.prog, static2, {}},
      BatchMember{&s.prog, serial, {}},
  });
  EXPECT_GT(bx.fused_kernels, 0) << "no kernel ran as a shared sweep";
  EXPECT_EQ(bx.total_kernels, static_cast<std::int64_t>(s.prog.kernels.size()));
}

TEST(RuntimeTimingTest, DeterministicAcrossRuns) {
  TestSetup s = make_setup(GnnModelKind::kSage);
  ExecutionResult a = execute(s.prog, {});
  ExecutionResult b = execute(s.prog, {});
  EXPECT_DOUBLE_EQ(a.exec_cycles, b.exec_cycles);
  EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
  EXPECT_EQ(DenseMatrix::max_abs_diff(a.output.to_dense(), b.output.to_dense()), 0.0f);
}

}  // namespace
}  // namespace dynasparse
