#pragma once
// PlanStore — cross-request partition-plan reuse (paper Section VIII-A:
// "the optimized IR can be stored and reused if the sparsity of the input
// graph and GNN model changes").
//
// The CompilationCache shares whole CompiledPrograms across *identical*
// requests (equal CompileKeys). This store amortizes one level deeper:
// requests that differ in content but agree on everything the partition
// planner reads — model/plan shape, vertex count, the planning SimConfig
// fields (plan_signature in compiler/signature.hpp) — share one
// PartitionPlan + IR snapshot. A compilation-cache miss consults the
// store and routes through compile_with_plan, skipping plan_partitions
// entirely; reports stay bit-identical to plan-from-scratch compilation
// because an equal plan signature guarantees the planner would have
// returned the very same plan (the determinism contract, extended to
// plan reuse — see the *BitIdentical* tests in tests/plan_store_test.cpp).
//
// Two tiers:
//   memory — a KeyedFutureCache of validated snapshots (LRU, in-flight
//            dedup: concurrent same-shape requests plan once, the rest
//            join the planning in flight);
//   disk   — optional (PlanStoreOptions::dir): snapshots persist via
//            io/ir_io.hpp's write_ir/read_ir plus an `irsig` integrity
//            trailer, so a restarted dynasparse_serve warm-starts its
//            compiler from the plans a previous process computed.
//
// Validation is layered: a disk snapshot must round-trip read_ir and
// match its recorded ir_signature (corrupt or hand-edited files are
// counted in disk_errors and ignored, never trusted); any snapshot must
// then match the live request's planner inputs field-for-field
// (plan_snapshot_compatible) before its plan seeds compile_with_plan — a
// hash-collision or stale-file defense; a validation failure falls back
// to a cold compile and counts in `rejected`. After seeding, the live
// program's ir_signature is compared against the stored one to classify
// exact reuse (same content re-planned, e.g. a service restart) vs
// similar reuse (same shape, different content), surfaced in the stats.
//
// Thread-safe. capacity 0 disables the store (compile_seeded degrades to
// plain compile()).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "compiler/compiler.hpp"
#include "compiler/signature.hpp"
#include "io/ir_io.hpp"
#include "util/keyed_future_cache.hpp"
#include "util/ordered_mutex.hpp"

namespace dynasparse {

struct PlanStoreOptions {
  /// Memory-tier capacity in plans. 0 disables the store entirely.
  std::size_t capacity = 32;
  /// Disk-tier directory (created if absent). Empty = memory-only. Plans
  /// are written as plan-<signature>.ir files; a fresh process pointed at
  /// the same directory reloads them instead of re-planning.
  std::string dir;
  /// Shared memory-budget tier for the memory-tier snapshots (optional).
  std::shared_ptr<MemoryBudget::Tier> tier;
};

struct PlanStoreStats {
  std::int64_t hits = 0;            // memory-tier hits (ready or in flight)
  std::int64_t misses = 0;          // memory-tier misses
  std::int64_t inflight_joins = 0;  // hits that waited on a plan in flight
  std::int64_t aborted_retries = 0; // joins retried after their leader aborted
  std::int64_t entries = 0;         // resident memory-tier plans
  std::int64_t evictions = 0;       // memory-tier LRU drops
  std::int64_t planned = 0;         // plans computed from scratch
  std::int64_t seeded = 0;          // compiles that reused a stored plan
  std::int64_t seeded_exact = 0;    // seeded with live IR == stored IR (ir_signature)
  std::int64_t rejected = 0;        // stored plans failing live-input validation
  std::int64_t disk_hits = 0;       // plans loaded from the disk tier
  std::int64_t disk_writes = 0;     // snapshots persisted
  std::int64_t disk_errors = 0;     // unreadable/corrupt/unwritable snapshots
  std::int64_t bytes = 0;           // approx resident bytes of memory-tier plans
  double planning_ms = 0.0;         // wall-clock inside plan_partitions (cold plans)
};

/// One stored artifact: the reusable IR snapshot plus its content hash
/// (recomputed and checked whenever the snapshot crosses the disk tier).
struct StoredPlan {
  IrSnapshot snap;
  std::uint64_t ir_sig = 0;  // ir_signature(snap.kernels, snap.plan)
};

/// Does `snap` match the live planner inputs field-for-field? True iff
/// the snapshot's kernels agree with `model`'s kernel sequence on every
/// field the plan is derived from — (kind, out_dim) per kernel and the
/// vertex count. num_edges, weight values, and the rest of the content
/// deliberately do not participate: they vary across plan-compatible
/// requests and never reach plan_partitions.
bool plan_snapshot_compatible(const IrSnapshot& snap, const GnnModel& model,
                              std::int64_t num_vertices);

class PlanStore {
 public:
  explicit PlanStore(PlanStoreOptions options = {});

  bool enabled() const { return impl_.max_entries() > 0; }
  bool disk_enabled() const { return disk_ok_; }
  const PlanStoreOptions& options() const { return options_; }

  /// compile(), with the planning stage shared across plan-compatible
  /// requests: resolve the plan signature, fetch the stored snapshot
  /// (memory tier, then disk, then plan from scratch — concurrent
  /// requests for one signature plan exactly once), validate it against
  /// the live inputs, and compile through compile_with_plan. Falls back
  /// to a plain cold compile() when the store is disabled, validation
  /// rejects the snapshot, or anything in the store path throws — the
  /// store can only ever cost a fallback, never a wrong program. Throws
  /// what compile() throws for invalid inputs. A RequestAbortedError
  /// (the request's own `token` fired) is NOT a store failure and
  /// propagates — an aborted request must not fall back to a cold
  /// compile nobody will consume.
  CompiledProgram compile_seeded(const GnnModel& model, const Dataset& ds,
                                 const SimConfig& cfg,
                                 const CancellationToken& token = {},
                                 const OperandSource& operands = {});

  /// The stored snapshot for `key`: memory tier, then disk, else plan
  /// from scratch and store (and persist) the result. `planned_here` (if
  /// non-null) is set to true iff this call ran the planner — false for
  /// memory hits, in-flight joins, and disk loads, i.e. whenever the
  /// planning work was reused. Exposed for tests; compile_seeded is the
  /// serving entry point.
  std::shared_ptr<const StoredPlan> get_or_plan(std::uint64_t key,
                                                const GnnModel& model,
                                                const Dataset& ds,
                                                const SimConfig& cfg,
                                                bool* planned_here = nullptr,
                                                const CancellationToken& token = {});

  PlanStoreStats stats() const;

  /// Disk-tier file path for a plan signature (inside options().dir).
  std::string disk_path(std::uint64_t key) const;

 private:
  std::shared_ptr<const StoredPlan> load_disk(std::uint64_t key);
  void store_disk(std::uint64_t key, const StoredPlan& plan);

  const PlanStoreOptions options_;
  bool disk_ok_ = false;
  KeyedFutureCache<std::uint64_t, StoredPlan> impl_;

  mutable OrderedMutex side_mu_{LockRank::kPlanStoreSide};  // guards the side counters below
  std::int64_t planned_ = 0, seeded_ = 0, seeded_exact_ = 0, rejected_ = 0;
  std::int64_t disk_hits_ = 0, disk_writes_ = 0, disk_errors_ = 0;
  double planning_ms_ = 0.0;
};

}  // namespace dynasparse
