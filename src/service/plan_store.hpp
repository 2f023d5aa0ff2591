#pragma once
// PlanStore — an in-memory memo of the partition planner, shared across
// requests (paper Section VIII-A: "the optimized IR can be stored and
// reused if the sparsity of the input graph and GNN model changes").
//
// The CompilationCache shares whole CompiledPrograms across *identical*
// requests (equal CompileKeys). This store shares one level less:
// requests that differ in content but agree on every planner input share
// one PartitionPlan. The key is those inputs themselves — plan_key in
// compiler/signature.hpp: the vertex count, each kernel's kind and
// out_dim, and the six planning SimConfig fields — so an equal key means
// plan_partitions would return the identical plan. A compilation-cache
// miss looks its key up here and compiles through compile_with_plan,
// skipping the planner; the program is bit-identical to a cold compile
// (the *BitIdentical* tests in tests/plan_store_test.cpp).
//
// The memo saves little: plan_partitions takes microseconds, against
// tens of milliseconds for a paper-scale compile (README, "Cross-request
// plan reuse"). It is a KeyedFutureCache bounded by entry count (LRU)
// with in-flight dedup: concurrent requests for one key plan once, the
// rest join that planning. Plans are 24-byte values, so the store
// charges no memory-budget tier.
//
// Thread-safe. capacity 0 disables the store (compile_seeded is then
// plain compile()).

#include <atomic>
#include <cstdint>

#include "compiler/compiler.hpp"
#include "compiler/signature.hpp"
#include "util/cancellation.hpp"
#include "util/keyed_future_cache.hpp"

namespace dynasparse {

struct PlanStoreStats {
  std::int64_t hits = 0;            // key found (ready or in flight)
  std::int64_t misses = 0;          // key absent
  std::int64_t inflight_joins = 0;  // hits that waited on a plan in flight
  std::int64_t aborted_retries = 0; // joins retried after their leader aborted
  std::int64_t entries = 0;         // resident plans
  std::int64_t evictions = 0;       // LRU drops
  std::int64_t planned = 0;         // plans computed from scratch
  std::int64_t seeded = 0;          // compiles that reused a stored plan
  double planning_ms = 0.0;         // wall-clock inside plan_partitions
};

class PlanStore {
 public:
  /// `capacity` in plans; 0 disables the store.
  explicit PlanStore(std::size_t capacity = 32);

  bool enabled() const { return impl_.max_entries() > 0; }

  /// compile(), with the plan looked up by plan_key: a stored plan seeds
  /// compile_with_plan, a missing one is planned once and stored.
  /// Falls back to a plain cold compile() when the store is disabled,
  /// the config is invalid, or the planner throws, so the store can
  /// only ever cost a fallback, never a wrong program. Throws what
  /// compile() throws for invalid inputs. A RequestAbortedError (the
  /// request's own `token` fired) propagates: nobody would consume a
  /// cold compile.
  CompiledProgram compile_seeded(const GnnModel& model, const Dataset& ds,
                                 const SimConfig& cfg,
                                 const CancellationToken& token = {},
                                 const OperandSource& operands = {});

  PlanStoreStats stats() const;

 private:
  KeyedFutureCache<PlanKey, PartitionPlan> impl_;
  std::atomic<std::int64_t> planned_{0}, seeded_{0}, planning_ns_{0};
};

}  // namespace dynasparse
