#pragma once
// Data-partitioning heuristic (paper Algorithm 9).
//
// Chooses the partition sizes (N1, N2) shared by all kernels so that
//   1. tiles fit on-chip buffers:          N1, N2 <= Nmax = g(So)
//   2. every kernel has enough tasks for load balance across the NCC
//      Computation Cores:                  tasks >= eta * NCC
//   3. subject to 1-2, N1 and N2 are as large as possible (data locality).
// N2 is fixed first from the Update kernels, then N1 from the Aggregate
// kernels (paper's two-step order), followed by a repair pass that
// enforces the task-count constraint under this library's task tiling
// (Update tasks produce N1 x N2 output tiles; see DESIGN.md).

#include <cstdint>
#include <vector>

#include "compiler/ir.hpp"
#include "model/model.hpp"
#include "util/cancellation.hpp"
#include "util/config.hpp"

namespace dynasparse {

struct PartitionPlan {
  std::int64_t n1 = 0;
  std::int64_t n2 = 0;
  std::int64_t n_max = 0;  // g(So): on-chip capacity bound used
};

/// Workload descriptor the planner needs per kernel.
struct KernelWorkload {
  KernelKind kind = KernelKind::kUpdate;
  std::int64_t num_vertices = 0;
  std::int64_t out_dim = 0;
  std::int64_t workload() const { return num_vertices * out_dim; }
};

/// The planner's projection of a computation graph: one workload
/// descriptor per kernel IR. Every planning site (compile() and the
/// service's PlanStore) routes through this, so a stored plan is derived
/// from exactly the inputs a cold compile would plan from. plan_key
/// (compiler/signature.hpp) lists every input that this projection and
/// plan_partitions read: a new planner input goes there too, or requests
/// that plan differently would share a stored plan.
std::vector<KernelWorkload> planner_workloads(const std::vector<KernelIR>& kernels);

/// Algorithm 9. Partition sizes are multiples of psys (systolic alignment)
/// within [cfg.min_partition, Nmax]; when a kernel is too small to ever
/// reach eta * NCC tasks, the floor wins (documented deviation: the paper
/// leaves this case implicit, and below ~4x psys a tile product has too
/// little arithmetic intensity to outrun the DDR stream anyway).
/// `token` is checked at every search-loop iteration: a cancelled or
/// deadline-expired request aborts planning with the typed error
/// (util/cancellation.hpp) instead of finishing work nobody will consume.
PartitionPlan plan_partitions(const std::vector<KernelWorkload>& kernels,
                              const SimConfig& cfg,
                              const CancellationToken& token = {});

/// Task count of a kernel under (n1, n2) and this library's tiling:
/// ceil(|V|/N1) * ceil(f_out/N2) for both kernel kinds.
std::int64_t tasks_for(const KernelWorkload& k, std::int64_t n1, std::int64_t n2);

}  // namespace dynasparse
