#pragma once
// Compiler driver (paper Section IV, "Step 1. Compilation/Preprocessing").
//
// compile() performs the three preprocessing stages on the host:
//   1. IR generation      — one node per kernel (computation_graph)
//   2. data partitioning  — choose (N1, N2) (partition_planner), attach
//                           execution schemes, and reorganize A / W / H0
//                           into partitions (PartitionedMatrix)
//   3. sparsity prep      — per-partition density profiling of the
//                           compile-time-known operands
// The result is a CompiledProgram the runtime system executes. Wall-clock
// per stage is recorded (Table IX reports this preprocessing time).

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "compiler/computation_graph.hpp"
#include "compiler/execution_scheme.hpp"
#include "compiler/ir.hpp"
#include "compiler/partition_planner.hpp"
#include "compiler/sparsity_prep.hpp"
#include "graph/dataset.hpp"
#include "graph/normalization.hpp"
#include "model/model.hpp"
#include "util/config.hpp"

namespace dynasparse {

class TilePool;

/// Where compilation materializes the dataset-derived operands
/// (adjacency operators, H0). Default: privately, as always. With a pool
/// and the dataset's content signature, materialization routes through
/// TilePool::get_or_build so programs compiled from the same dataset
/// under the same partition geometry share one immutable copy.
struct OperandSource {
  TilePool* pool = nullptr;
  std::uint64_t dataset_sig = 0;  // dataset_signature(ds); 0 = don't pool
};

struct CompileStats {
  double ir_ms = 0.0;          // IR + computation-graph generation
  double partition_ms = 0.0;   // partition planning + data reorganization
  double sparsity_ms = 0.0;    // compile-time density profiling
  /// Sub-measurement of partition_ms (NOT added by total_ms): wall-clock
  /// inside plan_partitions only. 0.0 when the plan was reused — this is
  /// the work a plan-seeded compile skips (tests/plan_store_test.cpp
  /// asserts it).
  double planning_ms = 0.0;
  double total_ms() const { return ir_ms + partition_ms + sparsity_ms; }
};

/// Key of a materialized adjacency operator: models may use several
/// operator variants (sym-norm, row-norm, A + (1+eps)I) over one graph.
struct AdjOperatorKey {
  AdjKind kind = AdjKind::kRaw;
  double eps = 0.0;
  bool operator<(const AdjOperatorKey& o) const {
    if (kind != o.kind) return kind < o.kind;
    return eps < o.eps;
  }
};

struct CompiledProgram {
  SimConfig config;
  GnnModel model;                // includes weight values
  std::vector<KernelIR> kernels; // scheme metadata attached
  PartitionPlan plan;

  // Partitioned operands known at compile time. Adjacency and H0 derive
  // from the dataset alone and are immutable post-compile, so they are
  // held by shared_ptr: with a TilePool in play (OperandSource), every
  // program compiled from the same dataset under the same geometry
  // holds the SAME objects. Weights derive from the model (distinct per
  // program) and stay private values.
  std::map<AdjOperatorKey, std::shared_ptr<const PartitionedMatrix>>
      adjacency;                                 // N1 x N1 tiles
  std::shared_ptr<const PartitionedMatrix> h0;   // N1 x N2 tiles
  std::vector<PartitionedMatrix> weights;        // N2 x N2 tiles

  /// Host bytes of the dataset-derived operands (adjacency + h0), and
  /// whether they are pool-shared. When pooled, those bytes are the
  /// pool tier's to account — approx_footprint_bytes() excludes them so
  /// one resident copy is never charged to the budget twice.
  std::size_t operand_bytes = 0;
  bool operands_pooled = false;

  // Compile-time sparsity info (Step 1.3).
  SparsityProfile h0_profile;
  std::vector<SparsityProfile> weight_profiles;

  CompileStats stats;

  const PartitionedMatrix& adjacency_for(const KernelSpec& spec) const;

  /// Approximate host-resident bytes this program is uniquely
  /// responsible for: model weights (dense + partitioned), IR, and —
  /// only when privately owned — the dataset operands. Feeds the
  /// CompilationCache's byte-LRU and its budget tier.
  std::size_t approx_footprint_bytes() const;
};

/// Compile `model` over `ds` for the platform `cfg`. `token` (optional)
/// is checked at stage boundaries and inside the partitioning loops: a
/// cancelled or deadline-expired request aborts compilation with the
/// typed error (util/cancellation.hpp). A default token never aborts —
/// non-service callers keep the unconditional behavior. `operands`
/// (optional) routes dataset-operand materialization through a shared
/// TilePool; the default builds private copies.
CompiledProgram compile(const GnnModel& model, const Dataset& ds, const SimConfig& cfg,
                        const CancellationToken& token = {},
                        const OperandSource& operands = {});

/// Recompile with a previously planned partitioning (paper Section
/// VIII-A: "the optimized IR can be stored and reused if the sparsity of
/// the input graph and GNN model changes"). Skips the planning stage and
/// reuses `plan` verbatim; the data reorganization and sparsity profiling
/// run against the (possibly re-pruned / re-featured) inputs. The model
/// and graph *shapes* must match what the plan was made for.
CompiledProgram compile_with_plan(const GnnModel& model, const Dataset& ds,
                                  const SimConfig& cfg, const PartitionPlan& plan,
                                  const CancellationToken& token = {},
                                  const OperandSource& operands = {});

}  // namespace dynasparse
