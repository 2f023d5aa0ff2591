#pragma once
// MemoryBudget — one process-wide byte arbiter spanning every cache tier.
//
// Every reuse tier (the TilePool, PlanStore, CompilationCache and
// ResultCache) registers once with a name and a weight and charges or
// credits the bytes it holds as entries become ready or are evicted. The
// budget's ONE limit is the only byte bound on those tiers. When the sum
// exceeds the limit, rebalance() computes weighted per-tier targets — a
// waterfill over the tier weights: tiers under their fair share keep what
// they have, and the remaining capacity is split among the over-share
// tiers in proportion to their weights — and invokes each over-target
// tier's shrinker (the cache-side eviction hook, which a KeyedFutureCache
// built with the tier installs itself). limit_bytes 0 = track-only, for
// standalone use: charges and high-water stats are recorded but nothing
// ever shrinks.
//
// Locking contract (what lets this arbiter sit underneath every cache
// without ordering their mutexes against each other):
//   - charge()/credit() are counter-only and take just the budget mutex,
//     so a cache may call them while holding its own lock (lock order is
//     always cache -> budget, never the reverse);
//   - rebalance() snapshots targets under the budget mutex but holds NO
//     lock while invoking shrinkers, so a shrinker may take its cache's
//     lock — and credit the tier from inside it — freely;
//   - shrinkers run in REVERSE registration order: a tier registered
//     early (the TilePool, whose entries are pinned by live cached
//     programs) shrinks after the later-registered caches whose entries
//     hold those references have dropped them. rebalance() makes up to
//     three passes while it is still over limit and the previous pass
//     freed bytes, so references released by one pass are collected by
//     the next.
// Callers trigger rebalance() only after releasing their own locks;
// Tier::charge() returns whether that is needed. Concurrent rebalance
// calls coalesce (a second caller returns immediately; the running pass
// brings the pool under). Between a charge and the rebalance it requests
// the sum may transiently exceed the limit — the budget aims at
// "quiesced total <= limit", not an allocation gate. Held entries can
// keep it above: shrinkers skip them, and a tier whose entries hold
// another tier's (cached programs holding pool operands) is not shrunk
// while it is under its own share, so the pinned tier stays over.
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
  double weight = 1.0;
  std::int64_t bytes = 0;       // currently charged
  std::int64_t high_water = 0;  // tier-local high-water
  std::int64_t shrinks = 0;     // shrinker invocations on this tier
};

struct MemoryBudgetStats {
  std::size_t limit_bytes = 0;  // 0 = track-only
  std::int64_t bytes = 0;       // sum across tiers
  std::int64_t high_water = 0;  // high-water of the sum
  std::int64_t rebalances = 0;  // shrink passes actually run
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
    Tier(MemoryBudget* owner, std::string name, double weight)
        : owner_(owner), name_(std::move(name)), weight_(weight) {}
    MemoryBudget* owner_;
    const std::string name_;
    const double weight_;
    // All below guarded by owner_->mu_.
    std::int64_t bytes_ = 0;
    std::int64_t high_water_ = 0;
    std::int64_t shrinks_ = 0;
    std::function<void(std::size_t)> shrink_;
  };

  /// limit_bytes 0 = track-only (never shrinks anything).
  explicit MemoryBudget(std::size_t limit_bytes = 0) : limit_(limit_bytes) {}

  /// Drops every tier's shrinker. A shrinker that captures an owning
  /// reference to its cache, while the cache holds the Tier handle,
  /// would otherwise form a shared_ptr cycle that outlives everyone.
  ~MemoryBudget();

  /// Register a tier. `weight` sets its fair share of the limit relative
  /// to the other tiers; non-positive weights are clamped to 1.
  std::shared_ptr<Tier> register_tier(std::string name, double weight);

  /// Enforce the limit: while the charged sum exceeds it (and progress is
  /// being made, up to three passes), compute waterfilled per-tier
  /// targets and invoke over-target shrinkers in reverse registration
  /// order. No lock is held across shrinker calls. No-op when limit is 0
  /// or the sum is within it; concurrent calls coalesce.
  void rebalance();

  std::size_t limit_bytes() const { return limit_; }
  std::int64_t total_bytes() const;
  MemoryBudgetStats stats() const;

 private:
  /// Weighted waterfill targets for the registered tiers; mu_ held.
  std::vector<std::size_t> targets_locked() const;

  const std::size_t limit_;
  mutable OrderedMutex mu_{LockRank::kMemoryBudget};
  std::vector<std::shared_ptr<Tier>> tiers_;  // registration order
  std::int64_t total_ = 0;
  std::int64_t high_water_ = 0;
  std::int64_t rebalances_ = 0;
  bool rebalancing_ = false;  // coalesces concurrent rebalance() calls
};

}  // namespace dynasparse
