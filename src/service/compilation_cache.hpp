#pragma once
// Compilation cache: the DynaSparse amortization idea applied across
// requests. The paper reuses compile-time work when "the sparsity of the
// input graph and GNN model changes" (Section VIII-A); a serving layer
// generalizes that to *any* request stream — two requests that compile the
// same (model, dataset, config) content share one CompiledProgram.
//
// Keys are content hashes (compiler/signature.hpp), so independently
// constructed but identical inputs hit. The cache mechanics — a program
// a request still executes is never evicted, in-flight compile dedup,
// poisoned-entry erase on a throwing compile, the memory budget's
// eviction hook — live in the shared util/keyed_future_cache.hpp core,
// which every reuse tier uses.
//
// Thread-safe. Capacity 0 disables storage (every call compiles) but
// still counts stats, which keeps the uncached baseline measurable
// through the same code path.

#include <cstdint>
#include <memory>

#include "compiler/compiler.hpp"
#include "compiler/signature.hpp"
#include "matrix/tile_pool.hpp"
#include "service/plan_store.hpp"
#include "util/keyed_future_cache.hpp"
#include "util/memory_budget.hpp"

namespace dynasparse {

/// `bytes` is CompiledProgram::approx_footprint_bytes of the resident
/// programs, pooled operands excluded — the TilePool tier accounts those
/// once.
using CacheStats = KeyedCacheStats;

class CompilationCache {
 public:
  /// `plans` (optional, shared) seeds the plan of every cache-miss
  /// compile: a miss looks its planner inputs up in the PlanStore
  /// (service/plan_store.hpp) and routes through compile_with_plan,
  /// planning from scratch only for never-seen inputs. Null = every miss
  /// plans from scratch. `tier` charges the approximate resident program
  /// footprint to a shared MemoryBudget, whose limit bounds it; `pool`
  /// routes the dataset operands of every miss-compile through the
  /// shared TilePool (null = private copies).
  explicit CompilationCache(std::size_t capacity = 16,
                            std::shared_ptr<PlanStore> plans = nullptr,
                            std::shared_ptr<MemoryBudget::Tier> tier = nullptr,
                            std::shared_ptr<TilePool> pool = nullptr)
      : impl_(capacity,
              [](const CompiledProgram& p) { return p.approx_footprint_bytes(); },
              std::move(tier), LockRank::kCompileCache),
        plans_(std::move(plans)), pool_(std::move(pool)) {}

  /// Return the program for (model, ds, cfg), compiling at most once per
  /// content key; `key` must equal make_compile_key(model, ds, cfg), and
  /// its dataset hash also keys the tile pool. May block while another
  /// thread compiles the same key. Throws whatever compile() throws.
  /// `token` covers only a compile this call runs itself: if the leader
  /// of an in-flight compile aborts (cancel/deadline), joined waiters
  /// retry — and re-compile under their own tokens — instead of
  /// inheriting the abort (util/keyed_future_cache.hpp hand-off
  /// semantics).
  std::shared_ptr<const CompiledProgram> get_or_compile(
      const CompileKey& key, const GnnModel& model, const Dataset& ds,
      const SimConfig& cfg, const CancellationToken& token = {}) {
    return impl_.get_or_make(key, [&] {
      OperandSource operands;
      operands.pool = pool_.get();
      operands.dataset_sig = key.dataset;
      return std::make_shared<const CompiledProgram>(
          plans_ ? plans_->compile_seeded(model, ds, cfg, token, operands)
                 : compile(model, ds, cfg, token, operands));
    });
  }

  CacheStats stats() const { return impl_.stats(); }
  std::size_t capacity() const { return impl_.max_entries(); }

 private:
  KeyedFutureCache<CompileKey, CompiledProgram> impl_;
  std::shared_ptr<PlanStore> plans_;
  std::shared_ptr<TilePool> pool_;
};

}  // namespace dynasparse
