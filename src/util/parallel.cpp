#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "util/ordered_mutex.hpp"
#include "util/strict_parse.hpp"

namespace dynasparse {

namespace {

/// Per-thread cap on effective parallel concurrency (0 = uncapped).
/// Installed by ParallelMaxThreadsScope and inherited by pool workers for
/// the duration of a chunk whose job was submitted under a cap, so a
/// capped request's *nested* parallel calls stay inside its budget no
/// matter which worker runs them.
thread_local int t_max_threads = 0;

/// Failure flag of the job whose chunk this thread is currently executing
/// (null otherwise). parallel_for polls it per item so a thread that
/// already started a chunk stops at the next item once any other thread
/// has failed.
thread_local const std::atomic<bool>* t_job_failed = nullptr;

unsigned hardware_threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

/// threads=0 default: DYNASPARSE_FORCE_THREADS (read once) or the
/// hardware width. The override exists so 1-vCPU CI runners still
/// exercise real multi-worker pool schedules. Strictly parsed
/// (util/strict_parse.hpp): a malformed or out-of-range value logs a
/// warning and falls back to the hardware width instead of being
/// silently ignored.
int default_threads() {
  static const int forced =
      static_cast<int>(parse_env_int("DYNASPARSE_FORCE_THREADS", 0, 0, 256));
  return forced > 0 ? forced : static_cast<int>(hardware_threads());
}

/// One parallel_for_range invocation. Lives on the submitting thread's
/// stack: join() returns only after every chunk has finished, and no task
/// referencing the job exists once `remaining` hits zero, so the lifetime
/// is safe by construction.
struct Job {
  const std::function<void(std::int64_t, std::int64_t)>* fn = nullptr;
  std::int64_t n = 0, grain = 0, nchunks = 0;
  int max_slots = 1;        // executor cap (submitter holds slot 0)
  int inherit_cap = 0;      // submitter's t_max_threads; > 0 makes chunk
                            // bodies run nested parallel calls inline so
                            // the cap bounds the request's total threads
  std::atomic<int> slots{1};
  std::atomic<std::int64_t> remaining{0};

  std::atomic<bool> failed{false};
  OrderedMutex error_mu{LockRank::kPoolError};
  std::exception_ptr error;
  std::int64_t error_chunk = std::numeric_limits<std::int64_t>::max();

  bool finished() const {
    return remaining.load(std::memory_order_acquire) == 0;
  }

  /// Try to claim one executor slot (thieves/workers; the submitter's
  /// slot is pre-claimed at construction).
  bool acquire_slot() {
    int cur = slots.load(std::memory_order_relaxed);
    while (cur < max_slots) {
      if (slots.compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed))
        return true;
    }
    return false;
  }
  void release_slot() { slots.fetch_sub(1, std::memory_order_relaxed); }
};

/// A contiguous range of chunk indices [begin, end) of one job — the unit
/// that lives on the deques. Executing a task splits it binarily, pushing
/// the upper halves back as stealable tasks, until a single chunk remains.
/// `stolen` marks a range already counted in chunks_stolen; the halves
/// split off it inherit the mark, so a re-stolen chunk counts only once.
struct TaskRange {
  Job* job = nullptr;
  std::int64_t begin = 0, end = 0;
  bool stolen = false;
};

/// Persistent multi-job work-stealing pool. Each worker owns a deque of
/// chunk-range tasks; owners push/pop at the back (LIFO: cache-warm,
/// ascending chunk order), thieves take from the front (FIFO: the oldest,
/// largest ranges). External (non-worker) submitters share one designated
/// "inject" deque. Any number of jobs coexist on the deques; a per-job
/// executor-slot cap bounds how many threads run one job's chunks at once.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  // Hard cap on pool size; explicit thread requests beyond the hardware
  // width are honored (oversubscription is how the scaling bench probes
  // contention) but bounded.
  static constexpr int kMaxWorkers = 64;
  static constexpr int kInjectSlot = kMaxWorkers;  // shared by external threads
  static constexpr int kSlots = kMaxWorkers + 1;

  /// Submit `job` (root task = all chunks) and run/help until it
  /// completes. Called from worker and external threads alike; the
  /// calling thread participates under the job's pre-claimed slot and
  /// only ever executes tasks of `job` while joining.
  void submit_and_join(Job& job) {
    ensure_workers(job.max_slots - 1);
    jobs_.fetch_add(1, std::memory_order_relaxed);
    push_task(TaskRange{&job, 0, job.nchunks});
    TaskRange t;
    while (!job.finished()) {
      if (take_task(&job, t)) {
        run_task(t, /*release_slot=*/false);  // runs under the reservation
        continue;
      }
      // Nothing of this job is in any deque: its remaining chunks are
      // being executed (or split) by other threads right now. Sleep on
      // the shared completion cv; the timeout re-scans in case a split
      // pushed new stealable tasks between our scan and the wait.
      std::unique_lock<OrderedMutex> lk(join_mu_);
      if (job.finished()) break;
      join_cv_.wait_for(lk, std::chrono::microseconds(200),
                        [&] { return job.finished(); });
    }
    if (job.error) std::rethrow_exception(job.error);
  }

  PoolStats stats() {
    PoolStats s;
    s.jobs = jobs_.load(std::memory_order_relaxed);
    s.chunks = chunks_.load(std::memory_order_relaxed);
    s.chunks_stolen = steals_.load(std::memory_order_relaxed);
    {
      std::lock_guard<OrderedMutex> lk(idle_mu_);
      s.threads = spawned_;
    }
    return s;
  }

 private:
  struct Slot {
    OrderedMutex mu{LockRank::kPoolDeque};
    std::deque<TaskRange> tasks;  // back = owner (LIFO), front = thieves (FIFO)
  };

  Pool() : slots_(new Slot[kSlots]) {}

  ~Pool() {
    {
      std::lock_guard<OrderedMutex> lk(idle_mu_);
      stop_ = true;
    }
    idle_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void ensure_workers(int wanted) {
    wanted = std::min(wanted, kMaxWorkers);
    std::lock_guard<OrderedMutex> lk(idle_mu_);
    while (spawned_ < wanted) {
      int index = spawned_++;
      workers_.emplace_back([this, index] { worker_main(index); });
    }
    spawned_count_.store(spawned_, std::memory_order_release);
  }

  void worker_main(int self) {
    t_slot = self;
    while (true) {
      std::uint64_t seen;
      {
        std::lock_guard<OrderedMutex> lk(idle_mu_);
        if (stop_) return;
        seen = work_epoch_;
      }
      TaskRange t;
      if (take_task(nullptr, t)) {
        run_task(t, /*release_slot=*/true);
        continue;
      }
      // The epoch was read *before* the scan: any push that the scan
      // missed bumped the epoch afterwards, so the predicate fails and we
      // rescan instead of sleeping through it.
      std::unique_lock<OrderedMutex> lk(idle_mu_);
      ++idle_waiters_;
      idle_cv_.wait(lk, [&] { return stop_ || work_epoch_ != seen; });
      --idle_waiters_;
      if (stop_) return;
    }
  }

  /// Push onto the calling thread's deque (workers: their own; external
  /// threads: the shared inject deque) and wake a parked worker if any.
  void push_task(TaskRange t) {
    Slot& slot = slots_[t_slot];
    {
      std::lock_guard<OrderedMutex> lk(slot.mu);
      slot.tasks.push_back(t);
    }
    bool wake;
    {
      std::lock_guard<OrderedMutex> lk(idle_mu_);
      ++work_epoch_;
      wake = idle_waiters_ > 0;
    }
    // One new task -> one woken worker; waking the whole herd would have
    // every parked worker scan all the deques for a task only one of
    // them can claim. A woken worker that loses the race (or fails the
    // executor-slot check) re-parks, and the next push re-notifies; the
    // submitter's own run/poll loop is the liveness backstop.
    if (wake) idle_cv_.notify_one();
  }

  /// Take one runnable task. `only` != null (a joining submitter): take
  /// only that job's tasks, under the submitter's pre-claimed slot.
  /// `only` == null (an idle worker): take any task whose job has a free
  /// executor slot — the slot is acquired here, released by the caller
  /// after run_task. Own deque is scanned back-to-front (LIFO), other
  /// deques front-to-back (FIFO steal).
  bool take_task(Job* only, TaskRange& out) {
    const int self = t_slot;
    Slot& mine = slots_[self];
    {
      std::lock_guard<OrderedMutex> lk(mine.mu);
      for (auto it = mine.tasks.rbegin(); it != mine.tasks.rend(); ++it) {
        if (!takeable(*it, only)) continue;
        out = *it;
        mine.tasks.erase(std::next(it).base());
        return true;
      }
    }
    // Only deques that can hold work: the spawned workers' and the inject
    // slot. (A stale low count just means a brand-new worker's deque is
    // skipped this scan — that worker drains its own deque anyway.)
    const int nworkers = spawned_count_.load(std::memory_order_acquire);
    for (int off = 1; off < kSlots; ++off) {
      const int idx = (self + off) % kSlots;
      if (idx != kInjectSlot && idx >= nworkers) continue;
      Slot& victim = slots_[idx];
      std::lock_guard<OrderedMutex> lk(victim.mu);
      for (auto it = victim.tasks.begin(); it != victim.tasks.end(); ++it) {
        if (!takeable(*it, only)) continue;
        out = *it;
        victim.tasks.erase(it);
        if (!out.stolen) {
          steals_.fetch_add(out.end - out.begin, std::memory_order_relaxed);
          out.stolen = true;
        }
        return true;
      }
    }
    return false;
  }

  bool takeable(const TaskRange& t, Job* only) {
    if (only) return t.job == only;
    return t.job->acquire_slot();
  }

  /// Split `t` down to a single chunk (pushing the upper halves back as
  /// stealable tasks), execute that chunk, and retire it. The completion
  /// decrement is the very last touch of the job by this thread: the
  /// moment it reaches zero the submitter may return and destroy the
  /// stack-allocated Job, so the executor slot (if this thread holds one)
  /// is released *before* retiring.
  void run_task(TaskRange t, bool release_slot) {
    Job& job = *t.job;
    while (t.end - t.begin > 1) {
      std::int64_t mid = t.begin + (t.end - t.begin) / 2;
      push_task(TaskRange{&job, mid, t.end, t.stolen});
      t.end = mid;
    }
    const std::int64_t chunk = t.begin;
    // A recorded failure cancels all not-yet-started chunks (they still
    // count toward completion so the join can finish and rethrow).
    if (!job.failed.load(std::memory_order_acquire)) {
      const std::atomic<bool>* prev_failed = t_job_failed;
      const int prev_cap = t_max_threads;
      t_job_failed = &job.failed;
      // A capped job's cap is a bound on the whole request, not per job:
      // this job may already be running on up to max_slots threads, so
      // nested parallel calls from its chunks run inline (serially on
      // this executor) — otherwise each of N executors could submit its
      // own N-slot job and one "capped at N" request would fan out on
      // ~N^2 threads. Uncapped jobs keep full nested stealing.
      t_max_threads = job.inherit_cap > 0 ? 1 : 0;
      const std::int64_t begin = chunk * job.grain;
      const std::int64_t end = std::min(job.n, begin + job.grain);
      try {
        (*job.fn)(begin, end);
      } catch (...) {
        std::lock_guard<OrderedMutex> lk(job.error_mu);
        if (chunk < job.error_chunk) {
          job.error_chunk = chunk;
          job.error = std::current_exception();
        }
        job.failed.store(true, std::memory_order_release);
      }
      t_job_failed = prev_failed;
      t_max_threads = prev_cap;
    }
    chunks_.fetch_add(1, std::memory_order_relaxed);
    if (release_slot) job.release_slot();
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last chunk retired: the decrement above was this thread's final
      // touch of the (stack-allocated) job — the submitter may destroy it
      // the moment it observes zero. Signal through the pool-lifetime cv;
      // the empty critical section pairs with the submitter's
      // check-then-wait under join_mu_ so the wake cannot be lost.
      { std::lock_guard<OrderedMutex> lk(join_mu_); }
      join_cv_.notify_all();
    }
  }

  static thread_local int t_slot;

  std::unique_ptr<Slot[]> slots_;
  std::vector<std::thread> workers_;

  // Shared by every job's submitter for completion waits (jobs are
  // stack-allocated, so their completion signal must not live in them).
  OrderedMutex join_mu_{LockRank::kPoolJoin};
  OrderedCondVar join_cv_;

  // guards spawned_, work_epoch_, idle_waiters_, stop_
  OrderedMutex idle_mu_{LockRank::kPoolIdle};
  OrderedCondVar idle_cv_;
  int spawned_ = 0;
  std::atomic<int> spawned_count_{0};  // mirror of spawned_ for lock-free scans
  int idle_waiters_ = 0;
  std::uint64_t work_epoch_ = 0;
  bool stop_ = false;

  std::atomic<std::int64_t> jobs_{0};
  std::atomic<std::int64_t> chunks_{0};
  std::atomic<std::int64_t> steals_{0};
};

thread_local int Pool::t_slot = Pool::kInjectSlot;

}  // namespace

std::int64_t resolve_grain(std::int64_t n, std::int64_t grain) {
  if (grain > 0) return grain;
  // Aim for enough chunks that stealing load-balances well, while keeping
  // per-chunk dispatch cost negligible. Depends only on n so that chunk
  // boundaries (and thus reduction order) are thread-count-invariant.
  return std::max<std::int64_t>(1, n / 64);
}

int parallel_hardware_threads() { return default_threads(); }

void parallel_ensure_pool() { Pool::instance(); }

PoolStats parallel_pool_stats() { return Pool::instance().stats(); }

ParallelMaxThreadsScope::ParallelMaxThreadsScope(int max_threads)
    : prev_(t_max_threads) {
  // 0 (or less) = uncapped, matching every other knob in this API: the
  // scope is a no-op and any enclosing cap stays in force. Scopes
  // tighten, never widen: the innermost of nested caps wins only if it
  // is smaller.
  if (max_threads > 0)
    t_max_threads = prev_ > 0 ? std::min(prev_, max_threads) : max_threads;
}

ParallelMaxThreadsScope::~ParallelMaxThreadsScope() { t_max_threads = prev_; }

void parallel_for_range(std::int64_t n,
                        const std::function<void(std::int64_t, std::int64_t)>& fn,
                        int threads, std::int64_t grain) {
  if (n <= 0) return;
  const std::int64_t g = resolve_grain(n, grain);
  const std::int64_t nchunks = (n + g - 1) / g;
  std::int64_t concurrency =
      threads > 0 ? threads : static_cast<std::int64_t>(default_threads());
  if (t_max_threads > 0)
    concurrency = std::min<std::int64_t>(concurrency, t_max_threads);
  concurrency = std::min(concurrency, nchunks);
  if (concurrency <= 1) {
    // Serial fallback walks the same chunk boundaries the pool would, so
    // chunk-order reductions associate identically at any thread count.
    for (std::int64_t begin = 0; begin < n; begin += g)
      fn(begin, std::min(n, begin + g));
    return;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
  job.grain = g;
  job.nchunks = nchunks;
  job.max_slots = static_cast<int>(concurrency);
  job.inherit_cap = t_max_threads;
  job.remaining.store(nchunks, std::memory_order_relaxed);
  Pool::instance().submit_and_join(job);
}

void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn,
                  int threads, std::int64_t grain) {
  parallel_for_range(
      n,
      [&fn](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          // Never start fn(i) after a failure has been recorded, even
          // mid-chunk.
          if (t_job_failed && t_job_failed->load(std::memory_order_acquire)) return;
          fn(i);
        }
      },
      threads, grain);
}

}  // namespace dynasparse
