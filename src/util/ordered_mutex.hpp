#pragma once
// Rank-annotated mutex with a debug/CI lock-order checker.
//
// Every long-lived mutex in the system carries a LockRank from the
// global hierarchy below. In checked builds each thread records the
// stack of OrderedMutex it currently holds; acquiring a mutex whose
// rank is <= any held rank (same-rank reentrancy included) is an order
// violation, reported with this thread's held chain AND the previously
// recorded chain that established the opposite order. Every well-ordered
// acquisition also adds a rank->rank edge to a process-wide acquisition
// graph; a cycle through that graph (possible once a violating thread
// was allowed to continue, e.g. under a test handler) is reported with
// the full cycle path. The default handler prints the report to stderr
// and aborts; tests install a throwing handler via
// set_lock_order_handler to observe violations in-process.
//
// Checking is compiled in when DYNASPARSE_LOCK_CHECK is defined or
// NDEBUG is not (the CMake option DYNASPARSE_LOCK_ORDER_CHECK, default
// ON, defines it so the default build runs ctest armed). With checking
// compiled out, lock()/unlock() inline to the underlying std::mutex:
// zero release cost, gated in bench/unarmed_overhead.
//
// OrderedCondVar adapts std::condition_variable to OrderedMutex through
// the native handle (adopt_lock in, release out), so waits cost exactly
// a std::condition_variable wait in both modes. While a thread sleeps in
// wait() its held-stack entry is retained — it will hold the mutex again
// on wakeup, and a sleeping thread acquires nothing, so no false
// positives arise.
//
// The documented hierarchy (acquire strictly increasing):
//
//   kNetServerLifecycle < kNetClientSend < kNetClientRecv
//     < kServiceWorkers < kServiceSlots
//     < kBatchGroups < kWorkQueue
//     < kResultCache / kCompileCache / kPlanStore < kTilePool
//     < kPoolDeque < kPoolIdle < kPoolJoin < kPoolError
//     < kMemoryBudget
//     < kFaultInjector < kNetServerStats
//
// encoding the contracts the code already documents: cache -> budget and
// never budget -> cache (budget shrinkers run with no budget lock held),
// service workers_mu_ -> slots_mu_, pool locks never nested with each
// other, fault_point() and stats bumps callable from under anything.

#include <chrono>
#include <condition_variable>
#include <mutex>

namespace dynasparse {

#if defined(DYNASPARSE_LOCK_CHECK) || !defined(NDEBUG)
#define DYNASPARSE_LOCK_CHECK_ACTIVE 1
#else
#define DYNASPARSE_LOCK_CHECK_ACTIVE 0
#endif

/// Global lock hierarchy. Larger rank = acquired later (inner). Gaps
/// leave room for future locks without renumbering.
enum class LockRank : int {
  kNetServerLifecycle = 100,  // NetServer start()/stop() serialization
  kNetClientSend = 110,       // NetClient send side
  kNetClientRecv = 120,       // NetClient receive side
  kServiceWorkers = 200,      // InferenceService worker spawn/join
  kServiceSlots = 210,        // InferenceService slot table
  kBatchGroups = 300,         // BatchScheduler group map
  kWorkQueue = 310,           // BlockingQueue internals
  kResultCache = 400,         // ResultCache KeyedFutureCache
  kCompileCache = 410,        // CompilationCache KeyedFutureCache
  kPlanStore = 420,           // PlanStore KeyedFutureCache
  kTilePool = 440,            // TilePool KeyedFutureCache
  kPoolDeque = 500,           // work-stealing pool per-slot deques
  kPoolIdle = 510,            // pool idle/wake state
  kPoolJoin = 520,            // pool job join
  kPoolError = 530,           // pool per-job first-error capture
  kMemoryBudget = 600,        // process-wide MemoryBudget counters
  kFaultInjector = 700,       // FaultInjector site RNGs (leaf)
  kNetServerStats = 710,      // NetServer counters (leaf)
};

/// Human-readable name for reports; "rank(<n>)" for values outside the
/// enumerated hierarchy.
const char* lock_rank_name(LockRank r);

/// What the checker found. `report` is the full multi-line text: the
/// acquiring thread's held chain, plus either the previously recorded
/// opposite-order chain (kRankOrder) or the cycle path (kCycle).
struct LockOrderViolation {
  enum class Kind { kRankOrder, kCycle };
  Kind kind = Kind::kRankOrder;
  LockRank acquiring = LockRank::kMemoryBudget;
  const char* report = nullptr;  // valid for the duration of the handler call
};

using LockOrderHandler = void (*)(const LockOrderViolation&);

/// Install a violation handler (tests install one that throws so the
/// offending lock() never blocks); returns the previous handler. Pass
/// nullptr to restore the default print-and-abort handler.
LockOrderHandler set_lock_order_handler(LockOrderHandler h);

/// Drop every recorded acquisition-graph edge (test isolation).
void reset_lock_order_graph();

namespace detail {
// Implemented in ordered_mutex.cpp; no-ops when checking is compiled out.
void lock_order_check_acquire(const void* mu, LockRank rank);
void lock_order_note_acquired(const void* mu, LockRank rank);
void lock_order_note_released(const void* mu);
}  // namespace detail

class OrderedMutex {
 public:
  explicit OrderedMutex(LockRank rank) : rank_(rank) {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() {
#if DYNASPARSE_LOCK_CHECK_ACTIVE
    // Check (and report) BEFORE blocking: a real inversion may deadlock
    // inside mu_.lock(), after which nothing gets reported. If the
    // handler throws, the mutex is never acquired and the held stack is
    // unchanged.
    detail::lock_order_check_acquire(this, rank_);
    mu_.lock();
    detail::lock_order_note_acquired(this, rank_);
#else
    mu_.lock();
#endif
  }

  /// try_lock never blocks, so it cannot deadlock by itself: a
  /// successful try_lock is recorded in the held stack (later lock()
  /// calls are checked against it) but is not itself order-checked.
  bool try_lock() {
#if DYNASPARSE_LOCK_CHECK_ACTIVE
    if (!mu_.try_lock()) return false;
    detail::lock_order_note_acquired(this, rank_);
    return true;
#else
    return mu_.try_lock();
#endif
  }

  void unlock() {
#if DYNASPARSE_LOCK_CHECK_ACTIVE
    detail::lock_order_note_released(this);
#endif
    mu_.unlock();
  }

  LockRank rank() const { return rank_; }
  /// The underlying mutex, for OrderedCondVar's native waits.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
};

/// std::condition_variable over OrderedMutex. Waits go through the
/// native handle (adopt in, release out) so they cost exactly a
/// std::condition_variable wait; the held-stack entry for the mutex is
/// retained across the sleep (see file comment).
class OrderedCondVar {
 public:
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  void wait(std::unique_lock<OrderedMutex>& lk) {
    std::unique_lock<std::mutex> inner(lk.mutex()->native(), std::adopt_lock);
    cv_.wait(inner);
    inner.release();
  }

  template <typename Pred>
  void wait(std::unique_lock<OrderedMutex>& lk, Pred pred) {
    while (!pred()) wait(lk);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      std::unique_lock<OrderedMutex>& lk,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    std::unique_lock<std::mutex> inner(lk.mutex()->native(), std::adopt_lock);
    const std::cv_status s = cv_.wait_until(inner, deadline);
    inner.release();
    return s;
  }

  template <typename Clock, typename Duration, typename Pred>
  bool wait_until(std::unique_lock<OrderedMutex>& lk,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Pred pred) {
    while (!pred()) {
      if (wait_until(lk, deadline) == std::cv_status::timeout) return pred();
    }
    return true;
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(std::unique_lock<OrderedMutex>& lk,
                          const std::chrono::duration<Rep, Period>& d) {
    return wait_until(lk, std::chrono::steady_clock::now() + d);
  }

  template <typename Rep, typename Period, typename Pred>
  bool wait_for(std::unique_lock<OrderedMutex>& lk,
                const std::chrono::duration<Rep, Period>& d, Pred pred) {
    return wait_until(lk, std::chrono::steady_clock::now() + d,
                      std::move(pred));
  }

 private:
  std::condition_variable cv_;
};

}  // namespace dynasparse
