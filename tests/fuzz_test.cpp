// Randomized end-to-end regression sweep: many seeds x models over
// randomly-shaped graphs, checking the full pipeline invariants each
// time — engine output equals the reference bit-for-bit, report
// accounting is internally consistent, and dynamic mapping never loses
// to the statics on modelled compute.

#include <gtest/gtest.h>

#include <sstream>

#include "core/engine.hpp"
#include "io/graph_io.hpp"
#include "io/ir_io.hpp"
#include "model/reference.hpp"

namespace dynasparse {
namespace {

struct FuzzCase {
  std::uint64_t seed;
  GnnModelKind kind;
};

class FuzzSweep : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FuzzSweep, PipelineInvariantsHold) {
  const FuzzCase& fc = GetParam();
  Rng shape_rng(fc.seed * 7919);

  DatasetSpec spec;
  spec.name = "fuzz";
  spec.tag = "FZ";
  spec.vertices = shape_rng.uniform_int(40, 400);
  spec.edges = shape_rng.uniform_int(spec.vertices, spec.vertices * 6);
  spec.feature_dim = shape_rng.uniform_int(4, 96);
  spec.num_classes = shape_rng.uniform_int(2, 12);
  spec.h0_density = shape_rng.uniform(0.01, 0.9);
  spec.hidden_dim = shape_rng.uniform_int(4, 48);
  spec.degree_skew = shape_rng.uniform(0.0, 0.8);
  Dataset ds = generate_dataset(spec, 1, fc.seed);

  Rng rng(fc.seed + 1);
  GnnModel m = build_model(fc.kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                           ds.spec.num_classes, rng);
  double sparsity = shape_rng.uniform(0.0, 0.95);
  prune_model(m, sparsity);

  CompiledProgram prog = compile(m, ds, u250_config());
  ExecutionResult dyn = execute(prog, {});

  // 1. Functional equality with the naive reference.
  DenseMatrix expect = reference_output(m, ds.graph, ds.features);
  ASSERT_EQ(DenseMatrix::max_abs_diff(dyn.output.to_dense(), expect), 0.0f)
      << model_kind_name(fc.kind) << " seed " << fc.seed;

  // 2. Report self-consistency.
  double sum = 0.0;
  for (const KernelExecutionReport& k : dyn.kernels) {
    EXPECT_EQ(k.pairs, k.pairs_gemm + k.pairs_spdmm + k.pairs_spmm + k.pairs_skipped);
    EXPECT_GE(k.makespan_cycles, 0.0);
    sum += k.makespan_cycles;
  }
  EXPECT_DOUBLE_EQ(dyn.exec_cycles, sum);
  EXPECT_GE(dyn.latency_ms, dyn.exec_ms);

  // 3. Dynamic compute never exceeds either static strategy's (up to the
  // one-cycle mode switches).
  RuntimeOptions opt;
  opt.strategy = MappingStrategy::kStatic1;
  double s1 = execute(prog, opt).stats.compute_cycles;
  opt.strategy = MappingStrategy::kStatic2;
  double s2 = execute(prog, opt).stats.compute_cycles;
  double slack = static_cast<double>(dyn.stats.pairs) + 1.0;
  EXPECT_LE(dyn.stats.compute_cycles, std::min(s1, s2) + slack);
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    for (GnnModelKind kind : paper_models()) cases.push_back({seed, kind});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::ValuesIn(fuzz_cases()),
                         [](const auto& info) {
                           return std::string(model_kind_name(info.param.kind)) +
                                  "_seed" + std::to_string(info.param.seed);
                         });

// ---- I/O round-trip fuzzing ---------------------------------------------
// write -> read -> write must be a fixpoint (the second write emits the
// same bytes), and the re-read structures must equal the originals. Runs
// over randomly shaped graphs / features / compiled IR.

Dataset random_io_dataset(std::uint64_t seed) {
  Rng shape_rng(seed * 104729);
  DatasetSpec spec;
  spec.name = "iofuzz";
  spec.tag = "IO";
  spec.vertices = shape_rng.uniform_int(1, 300);
  spec.edges = shape_rng.uniform_int(1, spec.vertices * 5);
  spec.feature_dim = shape_rng.uniform_int(1, 64);
  spec.num_classes = shape_rng.uniform_int(2, 9);
  spec.h0_density = shape_rng.uniform(0.0, 0.9);
  spec.hidden_dim = shape_rng.uniform_int(2, 24);
  spec.degree_skew = shape_rng.uniform(0.0, 0.8);
  return generate_dataset(spec, 1, seed);
}

class IoRoundTripFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IoRoundTripFuzz, EdgeListWriteReadWriteFixpoint) {
  Dataset ds = random_io_dataset(GetParam());
  std::ostringstream first;
  write_edge_list(ds.graph, first);
  std::istringstream in(first.str());
  Graph back = read_edge_list(in);

  ASSERT_EQ(back.num_vertices(), ds.graph.num_vertices());
  ASSERT_EQ(back.num_edges(), ds.graph.num_edges());
  const CsrMatrix& a = ds.graph.adjacency();
  const CsrMatrix& b = back.adjacency();
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());

  std::ostringstream second;
  write_edge_list(back, second);
  EXPECT_EQ(first.str(), second.str()) << "seed " << GetParam();
}

TEST_P(IoRoundTripFuzz, FeaturesWriteReadWriteFixpoint) {
  Dataset ds = random_io_dataset(GetParam() + 7);
  std::ostringstream first;
  write_features(ds.features, first);
  std::istringstream in(first.str());
  CooMatrix back = read_features(in);

  ASSERT_EQ(back.rows(), ds.features.rows());
  ASSERT_EQ(back.cols(), ds.features.cols());
  ASSERT_EQ(back.nnz(), ds.features.nnz());
  for (std::int64_t i = 0; i < back.nnz(); ++i) {
    const CooEntry& x = ds.features.entries()[static_cast<std::size_t>(i)];
    const CooEntry& y = back.entries()[static_cast<std::size_t>(i)];
    ASSERT_EQ(x.row, y.row);
    ASSERT_EQ(x.col, y.col);
    ASSERT_EQ(x.value, y.value) << "entry " << i;
  }

  std::ostringstream second;
  write_features(back, second);
  EXPECT_EQ(first.str(), second.str()) << "seed " << GetParam();
}

TEST_P(IoRoundTripFuzz, IrSnapshotWriteReadWriteFixpoint) {
  std::uint64_t seed = GetParam();
  Dataset ds = random_io_dataset(seed + 13);
  Rng rng(seed + 14);
  GnnModelKind kind = paper_models()[static_cast<std::size_t>(seed) % 4];
  GnnModel m = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                           ds.spec.num_classes, rng);
  CompiledProgram prog = compile(m, ds, u250_config());
  IrSnapshot snap = snapshot_of(prog);

  std::ostringstream first;
  write_ir(snap, first);
  std::istringstream in(first.str());
  IrSnapshot back = read_ir(in);
  EXPECT_TRUE(snap == back) << "seed " << seed;

  std::ostringstream second;
  write_ir(back, second);
  EXPECT_EQ(first.str(), second.str()) << "seed " << seed;
}

// read_ir must treat its input as hostile: truncated or corrupted
// snapshots throw std::runtime_error with a line number — never crash,
// never allocate from an unvalidated count (a `kernels 99999999999` line
// must be a parse error, not a bad_alloc/OOM).

/// A valid serialized snapshot to mutate.
std::string serialized_snapshot(std::uint64_t seed) {
  Dataset ds = random_io_dataset(seed + 13);
  Rng rng(seed + 14);
  GnnModelKind kind = paper_models()[static_cast<std::size_t>(seed) % 4];
  GnnModel m = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                           ds.spec.num_classes, rng);
  CompiledProgram prog = compile(m, ds, u250_config());
  std::ostringstream os;
  write_ir(snapshot_of(prog), os);
  return os.str();
}

TEST_P(IoRoundTripFuzz, TruncatedIrSnapshotsThrowNeverCrash) {
  const std::string full = serialized_snapshot(GetParam());
  // Any prefix missing at least the final line must fail cleanly: either
  // a cut line loses required fields, or a later required line is absent.
  // (Cutting *within* the final line can still parse — "steps 12" ->
  // "steps 1" — so the sweep stops at its start. Sampled stride + the
  // empty prefix keep the sweep fast.)
  const std::size_t last_line = full.rfind("scheme");
  ASSERT_NE(last_line, std::string::npos);
  for (std::size_t len = 0; len <= last_line; len += 7) {
    std::istringstream in(full.substr(0, len));
    EXPECT_THROW(read_ir(in), std::runtime_error) << "prefix length " << len;
  }
}

TEST_P(IoRoundTripFuzz, HostileKernelCountsAreParseErrorsNotOoms) {
  const std::string full = serialized_snapshot(GetParam());
  const std::string counts[] = {"99999999999", "-3", "1048577", "two"};
  for (const std::string& count : counts) {
    // Rewrite the `kernels N` line, keeping the rest of the snapshot.
    std::istringstream lines(full);
    std::ostringstream mutated;
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("kernels ", 0) == 0) line = "kernels " + count;
      mutated << line << '\n';
    }
    std::istringstream in(mutated.str());
    EXPECT_THROW(read_ir(in), std::runtime_error) << "count " << count;
  }
}

TEST_P(IoRoundTripFuzz, RandomlyCorruptedIrSnapshotsNeverCrash) {
  const std::string full = serialized_snapshot(GetParam());
  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 64; ++trial) {
    std::string corrupt = full;
    // Flip 1-4 characters to arbitrary printable bytes (newlines
    // included, so lines can merge or split).
    int flips = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int f = 0; f < flips; ++f) {
      std::size_t pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(corrupt.size()) - 1));
      corrupt[pos] = static_cast<char>(rng.uniform_int(9, 126));
    }
    std::istringstream in(corrupt);
    try {
      IrSnapshot snap = read_ir(in);  // a benign flip may still parse...
      EXPECT_LE(snap.kernels.size(), 1u << 20);  // ...but never oversized
    } catch (const std::runtime_error&) {
      // Expected for most mutations; anything else (bad_alloc, UB caught
      // by sanitizers, uncaught stoi exceptions) fails the test.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoRoundTripFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace dynasparse
