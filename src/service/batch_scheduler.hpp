#pragma once
// Continuous cross-request batching: the collect stage between admission
// and the worker pool.
//
// The scheduler groups queued jobs by a compatibility key — the pair
// (plan_signature, dataset_signature) — and releases a whole group as
// one batch. The service then runs the batch member by member, each
// through the same execute() as a lone request, and publishes each member
// as soon as it finishes. Members of a group may run *different models
// and weights* (different CompileKeys); equal keys only promise identical
// task grids and content-equal datasets.
//
// Members run one at a time because that measured better than executing
// a batch in lockstep over shared operands: same simulated latency, lower
// p50, p95 and peak RSS on perfbench's fused_burst (README, "Continuous
// batching"). The grouping stays while fused_burst sets the batch flags.
//
// Collection policy (BatchPolicy): hold a group open until it reaches
// `max_batch` members OR `window_us` microseconds have passed since its
// first member arrived, whichever comes first. Both zero (the default)
// disables collection entirely: next_batch() degenerates to a plain
// blocking pop and the service behaves exactly as before this layer
// existed — no key computation, no added latency.
//
// Concurrency: any number of workers may call next_batch() on one
// scheduler. Groups live under a mutex; blocking queue waits happen
// outside it. A worker holding no ripe group parks in a deadline wait on
// the queue (BlockingQueue::pop_until) so a group's window expiry wakes
// it even if no further jobs arrive. One bounded-staleness case exists:
// if the worker watching a young group returns early with a different
// K-full batch, the young group is picked up when any worker next calls
// next_batch() — delayed by at most one batch's processing time, never
// dropped. Queue close flushes remaining groups one batch per call, then
// next_batch() returns false.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "util/blocking_queue.hpp"
#include "util/ordered_mutex.hpp"

namespace dynasparse {

/// Compatibility key: the compiled programs have the same partition plan
/// + kernel task grids (plan component) and the same dataset content
/// (dataset component: the dataset handle's signature, hashed once per
/// input object). See compiler/signature.hpp for what each hash covers.
struct BatchKey {
  std::uint64_t plan = 0;
  std::uint64_t dataset = 0;

  bool operator==(const BatchKey& o) const {
    return plan == o.plan && dataset == o.dataset;
  }
  bool operator!=(const BatchKey& o) const { return !(*this == o); }
};

/// Collection policy. Defaults mean "off".
struct BatchPolicy {
  /// Hold a group open this long after its first member arrives before
  /// releasing it. 0 = release as soon as the queue is momentarily empty
  /// (opportunistic batching of already-queued bursts only).
  std::int64_t window_us = 0;
  /// Release a group the moment it reaches this many members. 0 with a
  /// positive window = unlimited (window alone decides); the value 1
  /// with window 0 is equivalent to the defaults.
  std::size_t max_batch_size = 0;

  bool enabled() const { return window_us > 0 || max_batch_size > 1; }
  std::size_t effective_max() const {
    return max_batch_size == 0 ? std::numeric_limits<std::size_t>::max()
                               : max_batch_size;
  }
};

/// Groups jobs popped from `queue` by KeyFn and releases them in batches
/// per BatchPolicy. Job is the service's queue element; the scheduler
/// only needs it movable. Not a queue replacement: admission still pushes
/// to the BlockingQueue (backpressure, shedding and close semantics are
/// unchanged); this sits on the consumer side only.
template <typename Job>
class BatchScheduler {
 public:
  using Clock = std::chrono::steady_clock;
  using KeyFn = std::function<BatchKey(const Job&)>;

  BatchScheduler(BlockingQueue<Job>& queue, BatchPolicy policy, KeyFn key)
      : queue_(queue), policy_(policy), key_(std::move(key)) {}

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  const BatchPolicy& policy() const { return policy_; }

  /// Block until a batch is ready; fill `out` (cleared first) with its
  /// members in arrival order and return true. Returns false only when
  /// the queue is closed, drained, and no collected group remains —
  /// pending groups are flushed (one batch per call) before that.
  bool next_batch(std::vector<Job>& out) {
    out.clear();
    if (!policy_.enabled()) {
      Job job;
      if (!queue_.pop(job)) return false;
      out.push_back(std::move(job));
      return true;
    }
    for (;;) {
      // Drain whatever is immediately available into keyed groups; a
      // group that reaches the K cutoff releases at once.
      {
        Job job;
        while (queue_.try_pop(job)) {
          if (add_job(std::move(job), out)) return true;
        }
      }
      // Release the oldest group whose window has expired (window 0:
      // every non-empty group is instantly ripe).
      Clock::time_point earliest{};
      bool have_pending = false;
      {
        std::lock_guard<OrderedMutex> lk(mu_);
        std::size_t ripe = groups_.size();
        const Clock::time_point now = Clock::now();
        for (std::size_t i = 0; i < groups_.size(); ++i) {
          const Clock::time_point deadline =
              groups_[i].formed_at + std::chrono::microseconds(policy_.window_us);
          if (deadline <= now) {
            if (ripe == groups_.size() ||
                groups_[i].formed_at < groups_[ripe].formed_at) {
              ripe = i;
            }
          }
          if (!have_pending || deadline < earliest) {
            earliest = deadline;
            have_pending = true;
          }
        }
        if (ripe != groups_.size()) {
          take_group_locked(ripe, out);
          return true;
        }
      }
      // Nothing ripe: park on the queue — until the earliest pending
      // group's window expires, or indefinitely when no group is open.
      Job job;
      if (!have_pending) {
        if (!queue_.pop(job)) return flush_one(out);
        if (add_job(std::move(job), out)) return true;
      } else {
        using Q = BlockingQueue<Job>;
        const typename Q::PopResult r = queue_.pop_until(job, earliest);
        if (r == Q::PopResult::kOk) {
          if (add_job(std::move(job), out)) return true;
        } else if (r == Q::PopResult::kClosed) {
          return flush_one(out);
        }
        // kTimeout: loop; the ripe scan above will release the group.
      }
    }
  }

 private:
  struct Group {
    BatchKey key;
    Clock::time_point formed_at;
    std::vector<Job> jobs;
  };

  /// File `job` under its key; if the group reaches the K cutoff, move it
  /// into `out` and return true. The key is computed before mu_ is taken,
  /// so the first (full) hash of a job's inputs never runs under it.
  bool add_job(Job&& job, std::vector<Job>& out) {
    const BatchKey key = key_(job);
    std::lock_guard<OrderedMutex> lk(mu_);
    std::size_t gi = groups_.size();
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      if (groups_[i].key == key) {
        gi = i;
        break;
      }
    }
    if (gi == groups_.size()) {
      groups_.push_back(Group{key, Clock::now(), {}});
    }
    groups_[gi].jobs.push_back(std::move(job));
    if (groups_[gi].jobs.size() >= policy_.effective_max()) {
      take_group_locked(gi, out);
      return true;
    }
    return false;
  }

  void take_group_locked(std::size_t gi, std::vector<Job>& out) {
    out = std::move(groups_[gi].jobs);
    groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(gi));
  }

  /// Queue closed and drained: release the oldest remaining group, or
  /// report end-of-stream.
  bool flush_one(std::vector<Job>& out) {
    std::lock_guard<OrderedMutex> lk(mu_);
    if (groups_.empty()) return false;
    std::size_t oldest = 0;
    for (std::size_t i = 1; i < groups_.size(); ++i) {
      if (groups_[i].formed_at < groups_[oldest].formed_at) oldest = i;
    }
    take_group_locked(oldest, out);
    return true;
  }

  BlockingQueue<Job>& queue_;
  const BatchPolicy policy_;
  KeyFn key_;

  OrderedMutex mu_{LockRank::kBatchGroups};
  std::vector<Group> groups_;  // few distinct keys at once: linear scan
};

}  // namespace dynasparse
