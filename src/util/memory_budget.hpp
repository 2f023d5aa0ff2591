#pragma once
// MemoryBudget — one process-wide byte arbiter spanning every cache tier.
//
// Every byte-holding reuse tier (the TilePool, CompilationCache and
// ResultCache) registers once by name and charges or credits the bytes
// it holds as entries become ready or are evicted. The budget's ONE
// limit is the only byte bound on those tiers. When the sum exceeds the
// limit, rebalance() makes one ordered pass over the tiers, from the
// last registered to the first, and asks each tier's shrinker (the
// cache-side eviction hook, which a KeyedFutureCache built with the tier
// installs itself) to give up the current overage: its target is
// max(0, tier bytes - overage), with the overage recomputed before each
// tier. The pass stops as soon as the total is within the limit, so a
// tier is asked for bytes only when the tiers after it could not free
// enough. limit_bytes 0 = track-only, for standalone use: charges and
// high-water stats are recorded but nothing ever shrinks.
//
// Locking contract (what lets this arbiter sit underneath every cache
// without ordering their mutexes against each other):
//   - charge()/credit() are counter-only and take just the budget mutex,
//     so a cache may call them while holding its own lock (lock order is
//     always cache -> budget, never the reverse);
//   - rebalance() computes each target under the budget mutex but holds
//     NO lock while invoking a shrinker, so a shrinker may take its
//     cache's lock — and credit the tier from inside it — freely;
//   - the pass runs in REVERSE registration order, so the holders shrink
//     before the tiers they pin: the TilePool registers first, and the
//     program and report caches after it drop the cached programs that
//     hold pool operands before the pool is asked to free them.
// Callers trigger rebalance() only after releasing their own locks;
// Tier::charge() returns whether that is needed. Concurrent passes are
// safe without coordination: each computes a tier's target from the
// same totals, so a second pass asks for nothing the first did not.
// Between a charge and the rebalance it requests the sum may
// transiently exceed the limit — the budget aims at "quiesced total <=
// limit", not an allocation gate. Shrinkers skip entries a caller still
// holds, so a total charged while requests hold entries settles only
// when a later pass runs after they let go; InferenceService runs one
// after every request.
//
// The budget must outlive every Tier handle use; in the service it is a
// member declared before all tier-holding caches, so destruction order
// guarantees it.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/ordered_mutex.hpp"
namespace dynasparse {

struct MemoryTierStats {
  std::string name;
  std::int64_t bytes = 0;       // currently charged
  std::int64_t high_water = 0;  // tier-local high-water
  std::int64_t shrinks = 0;     // shrinker invocations on this tier
};

struct MemoryBudgetStats {
  std::size_t limit_bytes = 0;  // 0 = track-only
  std::int64_t bytes = 0;       // sum across tiers
  std::int64_t high_water = 0;  // high-water of the sum
  std::int64_t rebalances = 0;  // passes that found the sum over the limit
  std::vector<MemoryTierStats> tiers;
};

class MemoryBudget {
 public:
  /// A registered tier's handle. Caches hold one and mirror every byte
  /// of their resident accounting through it.
  class Tier {
   public:
    /// Add `bytes` to this tier (counter-only; safe under any caller
    /// lock). Returns true when the budget is now over its limit — the
    /// caller should release its own lock and call owner().rebalance().
    bool charge(std::size_t bytes);
    /// Remove `bytes` from this tier (counter-only, never rebalances).
    void credit(std::size_t bytes);
    /// Install the eviction hook rebalance() drives: shrink resident
    /// bytes to at most `target`. Best-effort — in-flight fills and
    /// entries a caller still holds (e.g. pool operands referenced by
    /// live programs) may keep the tier above target. A KeyedFutureCache
    /// built with this tier installs its own and clears it (an empty
    /// function) when destroyed.
    void set_shrinker(std::function<void(std::size_t)> shrink);
    std::int64_t bytes() const;
    MemoryBudget& owner() const { return *owner_; }

   private:
    friend class MemoryBudget;
    Tier(MemoryBudget* owner, std::string name)
        : owner_(owner), name_(std::move(name)) {}
    MemoryBudget* owner_;
    const std::string name_;
    // All below guarded by owner_->mu_.
    std::int64_t bytes_ = 0;
    std::int64_t high_water_ = 0;
    std::int64_t shrinks_ = 0;
    std::function<void(std::size_t)> shrink_;
  };

  /// limit_bytes 0 = track-only (never shrinks anything).
  explicit MemoryBudget(std::size_t limit_bytes = 0) : limit_(limit_bytes) {}

  /// Register a tier. Tiers registered later shrink first.
  std::shared_ptr<Tier> register_tier(std::string name);

  /// Enforce the limit: while the charged sum exceeds it, walk the tiers
  /// from last-registered to first and call each one's shrinker with
  /// max(0, tier bytes - overage). No lock is held across shrinker
  /// calls. No-op when the limit is 0 or the sum is within it.
  void rebalance();

  std::size_t limit_bytes() const { return limit_; }
  std::int64_t total_bytes() const;
  MemoryBudgetStats stats() const;

 private:
  const std::size_t limit_;
  mutable OrderedMutex mu_{LockRank::kMemoryBudget};
  std::vector<std::shared_ptr<Tier>> tiers_;  // registration order
  std::int64_t total_ = 0;
  std::int64_t high_water_ = 0;
  std::int64_t rebalances_ = 0;
};

}  // namespace dynasparse
