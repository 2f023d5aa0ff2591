#pragma once
// Shared core of every reuse tier (CompilationCache, ResultCache,
// PlanStore and the operand TilePool): a thread-safe content-keyed cache
// of shared_ptr<const V> with
//
//   - in-flight dedup: the first requester of an absent key runs the
//     factory; concurrent requesters for the same key block on a
//     shared_future instead of running it again;
//   - LRU eviction bounded by entry count;
//   - one eviction rule: a ready entry that a caller still holds (its
//     value's use_count is above the cache's own reference) is never
//     evicted — not by the count bound, a budget shrink or clear().
//     Dropping it would free nothing, credit the budget for bytes that
//     stay resident, and make the next request for the key build a
//     second copy. Each skip counts in pinned_skips; the entry leaves on
//     a later pass once its last holder lets go (every fill and every
//     ready hit runs one while the count bound is exceeded). For this to
//     count only real holders, an entry keeps its ready value beside the
//     fill future and drops the future once the value is published (the
//     future's shared state holds a value copy of its own);
//   - byte accounting against a shared MemoryBudget: with a weigher and
//     a budget tier, every ready entry's bytes are charged to the tier
//     (credited on evict/clear), and the budget's limit is the cache's
//     only byte bound. The cache installs its own shrink_to_bytes as the
//     tier's shrinker when it is constructed; when it is destroyed it
//     clears it and credits every byte it still charges, held entries
//     included (one cache per tier). A charge that pushes the budget
//     over its limit triggers a cross-tier rebalance AFTER this cache's
//     lock is released (lock order is always cache -> budget), and the
//     budget drives evictions back through shrink_to_bytes();
//   - poisoned-entry erase: a factory that throws fails every joined
//     waiter and removes the entry *before* the failure is published, so
//     a later request for that key retries instead of observing the
//     stale failure. The leader rethrows its own exception; each joiner
//     throws a FRESH CacheFillFailedError carrying the leader's message —
//     never the leader's exception object itself, which would be shared
//     mutable state (refcount + message) across joiner threads;
//   - cancelled-leader hand-off: when the factory aborts cooperatively
//     (RequestAbortedError — the leader's request was cancelled or blew
//     its deadline, see util/cancellation.hpp), joined waiters do NOT
//     inherit the abort; each retries the lookup, and the first one in
//     becomes the new leader running its own factory (with its own
//     token). Only the aborted request observes its abort;
//   - hit/miss/eviction/in-flight-join/aborted-retry/pinned-skip/entry/
//     byte stats, plus shared_refs: the references callers hold beyond
//     the cache's own.
//
// max_entries 0 disables storage — every call runs the factory and
// counts a miss, which keeps an uncached baseline measurable through the
// same code path.
//
// In-flight and held entries are never evicted, so the cache may exceed
// max_entries while more keys run or are held than fit. A lone value
// heavier than the whole budget limit is dropped by its own insertion:
// returned to the caller, never resident, never charged, and without
// evicting any other entry as collateral (admit-then-drop, pinned by
// tests/memory_budget_test.cpp). The one exception is Oversize::kKeep,
// which only the TilePool sets: a program does not count the operands
// it takes from the pool, so an operand the pool dropped would be held
// but counted nowhere. Under kKeep an oversize value stays resident and
// charged like any other.
//
// Lifetime rule for a cache with a budget tier: destroy it only when no
// fill into the same budget can run. A rebalance copies the shrinkers it
// calls under the budget's lock and calls them after releasing it, so a
// fill into another tier may still reach this cache's shrinker after
// the destructor cleared it. InferenceService meets the rule: it joins
// its workers before its caches are destroyed.

#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/cancellation.hpp"
#include "util/memory_budget.hpp"
#include "util/ordered_mutex.hpp"

namespace dynasparse {

/// What a joiner sees when the leader's factory failed with a non-abort
/// error: a per-joiner object carrying the leader's message. (Leader
/// aborts — RequestAbortedError — are not surfaced to joiners at all;
/// they retry and take over the fill.)
struct CacheFillFailedError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct KeyedCacheStats {
  std::int64_t hits = 0;            // key found (ready or in-flight)
  std::int64_t misses = 0;          // key absent; this call ran the factory
  std::int64_t evictions = 0;       // entries dropped (count bound, budget
                                    // shrink, clear or oversize)
  std::int64_t inflight_joins = 0;  // hits that waited on a run in flight
  std::int64_t aborted_retries = 0; // joins that retried after their leader
                                    // aborted cooperatively (hand-off)
  std::int64_t pinned_skips = 0;    // eviction passes over held entries
  std::int64_t entries = 0;         // current resident entries
  std::int64_t bytes = 0;           // weighed bytes of ready entries (0 without a weigher)
  std::int64_t shared_refs = 0;     // references held beyond the cache's
                                    // own: sum of (use_count - 1)
};

/// What happens to a lone value heavier than the whole budget limit (see
/// the file comment): kDrop = admit-then-drop, kKeep = stay resident.
enum class Oversize { kDrop, kKeep };

template <typename Key, typename V>
class KeyedFutureCache {
 public:
  using Weigher = std::function<std::size_t(const V&)>;
  using BudgetTier = std::shared_ptr<MemoryBudget::Tier>;

  /// `weigh` empty = no byte accounting. `tier` (optional) charges the
  /// weighed bytes to a shared MemoryBudget, whose limit bounds them; the
  /// cache wires its shrink_to_bytes to the tier here, and its destructor
  /// unwires it and credits the tier what the cache still charges (see
  /// the lifetime rule in the file comment).
  /// `rank` places this cache's mutex in the global lock hierarchy
  /// (util/ordered_mutex.hpp): each wrapper passes its own rank
  /// (kResultCache / kCompileCache / kPlanStore / kTilePool), all of
  /// which order before kMemoryBudget — the cache -> budget contract
  /// above. `oversize` is kKeep only for the TilePool.
  explicit KeyedFutureCache(std::size_t max_entries, Weigher weigh = {},
                            BudgetTier tier = nullptr,
                            LockRank rank = LockRank::kResultCache,
                            Oversize oversize = Oversize::kDrop)
      : max_entries_(max_entries), weigh_(std::move(weigh)),
        tier_(std::move(tier)), oversize_(oversize), mu_(rank) {
    if (tier_) tier_->set_shrinker([this](std::size_t t) { shrink_to_bytes(t); });
  }

  ~KeyedFutureCache() {
    if (!tier_) return;
    tier_->set_shrinker({});
    // Held entries too: once the cache is gone nothing else credits them.
    tier_->credit(static_cast<std::size_t>(stats_.bytes));
  }

  KeyedFutureCache(const KeyedFutureCache&) = delete;
  KeyedFutureCache& operator=(const KeyedFutureCache&) = delete;

  /// Return the value for `key`, running `make` at most once per key. May
  /// block while another thread runs the same key. The caller that ran
  /// `make` (the leader) throws whatever `make` threw; a joiner whose
  /// leader failed throws its own fresh CacheFillFailedError with the
  /// leader's message — except that a leader's RequestAbortedError is
  /// never propagated to joiners at all: each retries and, if the entry
  /// is still absent, runs its own `make` (hand-off). The returned
  /// shared_ptr keeps the entry resident while the caller holds it.
  std::shared_ptr<const V> get_or_make(
      const Key& key, const std::function<std::shared_ptr<const V>()>& make) {
    if (max_entries_ == 0) {
      {
        std::lock_guard<OrderedMutex> lk(mu_);
        ++stats_.misses;
      }
      return make();
    }

    for (;;) {
      std::promise<FillResult> promise;
      PendingFill pending;  // valid iff this caller joins a fill in flight
      {
        std::lock_guard<OrderedMutex> lk(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
          ++stats_.hits;
          touch(it->second);
          if (it->second.ready) {
            // Copy first, so the hit entry counts as held; then let the
            // pass evict what an earlier holder pinned over the bounds.
            std::shared_ptr<const V> value = it->second.value;
            evict_to_count_locked();
            return value;
          }
          ++stats_.inflight_joins;
          pending = it->second.pending;
        } else {
          ++stats_.misses;
          Entry e;
          e.pending = promise.get_future().share();
          lru_.push_back(key);
          e.lru_pos = std::prev(lru_.end());
          entries_.emplace(key, std::move(e));
          ++stats_.entries;
        }
      }

      if (pending.valid()) {
        const FillResult& r = pending.get();  // never throws: failures are data
        if (r.value) return r.value;
        if (r.aborted) {
          // The leader's request was cancelled or hit its deadline — an
          // abort that belongs to *that* request, not this one. The dead
          // entry is already erased (erase happens before the failure is
          // published), so loop: this caller re-looks-up and becomes the
          // new leader, running its own factory under its own token.
          std::lock_guard<OrderedMutex> lk(mu_);
          ++stats_.aborted_retries;
          continue;
        }
        throw CacheFillFailedError(r.error);  // this joiner's own object
      }

      try {
        std::shared_ptr<const V> value = make();
        const std::size_t bytes = weigh_ ? weigh_(*value) : 0;
        promise.set_value(FillResult{value, false, std::string()});
        bool need_rebalance = false;
        {
          std::lock_guard<OrderedMutex> lk(mu_);
          auto it = entries_.find(key);
          if (it != entries_.end()) {
            if (std::size_t hard = hard_byte_cap(); hard > 0 && bytes > hard) {
              // The value alone exceeds the whole budget: it can never stay
              // resident, so drop only it — running the LRU sweep instead
              // would evict every older entry first (the newcomer sits at
              // the MRU end) and flush the whole cache as collateral. It
              // is never charged to the budget either: the caller-held
              // copy is transient request state, not cache residency.
              lru_.erase(it->second.lru_pos);
              entries_.erase(it);
              --stats_.entries;
              ++stats_.evictions;
            } else {
              it->second.value = value;
              it->second.ready = true;
              // Joiners already waiting hold their own copy of the
              // future; the entry's copy would only keep use_count above
              // 1 for as long as the entry lives.
              it->second.pending = {};
              it->second.bytes = bytes;
              stats_.bytes += static_cast<std::int64_t>(bytes);
              if (tier_) need_rebalance = tier_->charge(bytes);
            }
          }
          evict_to_count_locked();
        }
        // Cross-tier pressure runs with no cache lock held: the budget's
        // shrinkers re-enter caches (this one included) through
        // shrink_to_bytes, which takes mu_ itself.
        if (need_rebalance) tier_->owner().rebalance();
        return value;
      } catch (const std::exception& e) {
        // Erase the entry BEFORE publishing the failure: a waiter that
        // wakes (and, for an abort, retries) must find the key absent so
        // its re-lookup inserts a fresh entry instead of re-joining the
        // dead future. The failure is published as data — abort flag +
        // message — never as this thread's exception object, so each
        // joiner materializes its own error and no refcounted exception
        // state is shared across threads.
        erase_failed_entry(key);
        FillResult r;
        r.aborted = dynamic_cast<const RequestAbortedError*>(&e) != nullptr;
        r.error = e.what();
        promise.set_value(std::move(r));
        throw;
      } catch (...) {
        erase_failed_entry(key);
        FillResult r;
        r.error = "cache fill failed: unknown exception";
        promise.set_value(std::move(r));
        throw;
      }
    }
  }

  /// Ready entry for `key`, or nullptr (does not wait on in-flight runs
  /// and does not touch LRU order or stats).
  std::shared_ptr<const V> peek(const Key& key) const {
    std::lock_guard<OrderedMutex> lk(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end() || !it->second.ready) return nullptr;
    return it->second.value;
  }

  KeyedCacheStats stats() const {
    std::lock_guard<OrderedMutex> lk(mu_);
    KeyedCacheStats out = stats_;
    for (const auto& kv : entries_)
      if (kv.second.ready) out.shared_refs += kv.second.value.use_count() - 1;
    return out;
  }

  std::size_t max_entries() const { return max_entries_; }

  /// Evict ready, unheld LRU entries until the weighed bytes are at most
  /// `target`. The MemoryBudget's shrinker hook: invoked with no budget
  /// lock held, takes mu_ itself, credits the tier per eviction. Skips
  /// in-flight and held entries, so the result is best-effort.
  void shrink_to_bytes(std::size_t target) {
    std::lock_guard<OrderedMutex> lk(mu_);
    evict_locked(kNoCountBound, static_cast<std::int64_t>(target));
  }

  /// Drop every ready, unheld entry (in-flight runs complete unobserved).
  void clear() {
    std::lock_guard<OrderedMutex> lk(mu_);
    evict_locked(0, 0);
  }

 private:
  /// How a fill resolves for joiners. Failures travel as plain data (an
  /// abort flag and a message), not as the leader's exception object:
  /// sharing one exception across joiner threads would race its final
  /// refcount release against another joiner's what() read.
  struct FillResult {
    std::shared_ptr<const V> value;  // null when the fill failed
    bool aborted = false;            // leader abort: joiners retry, not fail
    std::string error;               // leader's message (non-abort failures)
  };
  using PendingFill = std::shared_future<FillResult>;
  struct Entry {
    PendingFill pending;             // set while the fill runs, then reset
    std::shared_ptr<const V> value;  // set once ready
    bool ready = false;
    std::size_t bytes = 0;           // weighed size, valid once ready
    typename std::list<Key>::iterator lru_pos;
  };

  static constexpr std::size_t kNoCountBound =
      std::numeric_limits<std::size_t>::max();
  static constexpr std::int64_t kNoByteBound =
      std::numeric_limits<std::int64_t>::max();

  /// The ceiling a single value must fit under to stay resident: the
  /// budget's limit; 0 (no ceiling) without a tier, under a track-only
  /// budget, or under Oversize::kKeep.
  std::size_t hard_byte_cap() const {
    return tier_ && oversize_ == Oversize::kDrop ? tier_->owner().limit_bytes() : 0;
  }

  /// Remove `key` after a failed fill (the leader is about to publish
  /// the failure and rethrow); no-op if the entry is already gone. The
  /// entry never became ready, so no bytes were charged.
  void erase_failed_entry(const Key& key) {
    std::lock_guard<OrderedMutex> lk(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    lru_.erase(it->second.lru_pos);
    entries_.erase(it);
    --stats_.entries;
  }

  /// Move to MRU end; mu_ held.
  void touch(Entry& e) {
    lru_.splice(lru_.end(), lru_, e.lru_pos);
    e.lru_pos = std::prev(lru_.end());
  }

  /// The count-bound pass, run after every fill and every ready hit; mu_
  /// held. A no-op unless the cache holds more than max_entries.
  void evict_to_count_locked() { evict_locked(max_entries_, kNoByteBound); }

  /// The one eviction pass: drop ready, unheld entries LRU-first while
  /// more than `max_count` entries or `max_bytes` weighed bytes are
  /// resident, crediting the budget tier per eviction; mu_ held. (The
  /// shared budget's bound is enforced by rebalance -> shrink_to_bytes,
  /// never from under this lock.)
  void evict_locked(std::size_t max_count, std::int64_t max_bytes) {
    auto over = [&] {
      return entries_.size() > max_count || stats_.bytes > max_bytes;
    };
    auto pos = lru_.begin();
    while (over() && pos != lru_.end()) {
      auto it = entries_.find(*pos);
      if (!it->second.ready) {  // in flight: its requesters wait on it
        ++pos;
        continue;
      }
      if (it->second.value.use_count() > 1) {  // held: see file comment
        ++stats_.pinned_skips;
        ++pos;
        continue;
      }
      stats_.bytes -= static_cast<std::int64_t>(it->second.bytes);
      if (tier_) tier_->credit(it->second.bytes);
      entries_.erase(it);
      --stats_.entries;
      ++stats_.evictions;
      pos = lru_.erase(pos);
    }
  }

  const std::size_t max_entries_;
  const Weigher weigh_;
  const BudgetTier tier_;
  const Oversize oversize_;
  mutable OrderedMutex mu_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  // front = least recently used
  KeyedCacheStats stats_;
};

}  // namespace dynasparse
