#pragma once
// Host-side parallel primitives backed by a lazily-initialized persistent
// work-stealing thread pool. Used by the simulator's functional path and
// the compiler's data partitioning; simulated timing never depends on how
// many host threads run (determinism is by construction: each parallel
// work item owns its output slot exclusively, and reductions combine
// per-chunk partials in chunk order, which depends only on n and the
// grain — never on the thread count or scheduling).
//
// Concurrency model (multi-job, work-stealing):
//   - Every parallel_for / parallel_for_range / parallel_reduce call is a
//     *job*: its index range is cut into grain-sized chunks (resolve_grain,
//     a pure function of (n, grain)), and chunk-range tasks are split
//     recursively onto per-worker deques. Owners pop LIFO (cache-warm,
//     ascending chunk order); idle workers steal FIFO (the biggest,
//     oldest ranges), so one large job fans out across every idle worker.
//   - Any number of jobs run concurrently: top-level calls from different
//     threads share the worker set instead of serializing on a single job
//     slot, so many small jobs overlap and none blocks behind a big one.
//   - Nested calls are jobs too: a parallel_for issued from inside pool
//     work pushes stealable tasks like any other job (no forced inline
//     execution), and the issuing thread helps run them until the nested
//     job completes. Idle workers steal nested work exactly like
//     top-level work.
//   - A job's `threads` argument caps how many threads may execute its
//     chunks concurrently (executor slots); the submitting thread always
//     participates and counts toward the cap.
// Workers spawn lazily up to the largest concurrency any call has
// requested and then park between jobs, so steady-state dispatch is a
// few deque pushes plus one wake, not thread spawns.
//
// Chunk *placement* is dynamic (stealing load-balances tasks whose cost
// varies wildly with tile density), but chunk *boundaries* and reduction
// order are (n, grain)-pure, so results are bit-identical whatever the
// thread count or steal schedule.

#include <cstdint>
#include <functional>
#include <vector>

namespace dynasparse {

/// Run fn(0..n-1) across up to `threads` host threads (0 = pool default:
/// all hardware threads, or DYNASPARSE_FORCE_THREADS when set). Work is
/// claimed dynamically in chunks of `grain` indices (0 = automatic).
/// Exceptions propagate: the exception from the lowest-indexed failing
/// chunk is rethrown, and once a failure is recorded no further work
/// items start.
void parallel_for(std::int64_t n, const std::function<void(std::int64_t)>& fn,
                  int threads = 0, std::int64_t grain = 0);

/// Chunked form: fn(begin, end) is called once per grain-sized chunk, so
/// per-item dispatch overhead is hoisted out of the inner loop.
void parallel_for_range(std::int64_t n,
                        const std::function<void(std::int64_t, std::int64_t)>& fn,
                        int threads = 0, std::int64_t grain = 0);

/// Chunking used by parallel_for/parallel_reduce for a given n. Depends
/// only on (n, grain) so results that combine per-chunk partials are
/// identical whatever the thread count.
std::int64_t resolve_grain(std::int64_t n, std::int64_t grain);

/// Deterministic parallel reduction. `map(i, acc)` folds item i into a
/// chunk-local accumulator (initialized to `identity`); `combine(into,
/// from)` merges chunk partials, applied serially in ascending chunk
/// order. The result is bit-identical for a fixed n regardless of thread
/// count.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::int64_t n, T identity, MapFn&& map, CombineFn&& combine,
                  int threads = 0, std::int64_t grain = 0) {
  if (n <= 0) return identity;
  const std::int64_t g = resolve_grain(n, grain);
  const std::int64_t nchunks = (n + g - 1) / g;
  std::vector<T> partials(static_cast<std::size_t>(nchunks), identity);
  parallel_for_range(
      n,
      [&](std::int64_t begin, std::int64_t end) {
        T& acc = partials[static_cast<std::size_t>(begin / g)];
        for (std::int64_t i = begin; i < end; ++i) map(i, acc);
      },
      threads, g);
  T out = identity;
  for (T& p : partials) combine(out, p);
  return out;
}

/// Number of workers the pool would use for threads=0 (informational).
/// Honors the DYNASPARSE_FORCE_THREADS environment variable (read once at
/// first use), which overrides the hardware count so CI can exercise real
/// multi-thread pool behavior on 1-vCPU runners.
int parallel_hardware_threads();

/// Construct the pool's process-lifetime state now (workers still spawn
/// lazily). Long-lived objects whose destructors may run parallel work —
/// the inference service joins request workers in its destructor — call
/// this in their constructor so the pool outlives them under static
/// destruction ordering.
void parallel_ensure_pool();

/// Cumulative pool counters since process start (informational; the
/// service's `threads_` metrics and the pool tests read them). Counter
/// updates are relaxed atomics: totals are exact once the jobs being
/// measured have completed.
struct PoolStats {
  std::int64_t jobs = 0;            // pool-dispatched jobs (serial calls excluded)
  std::int64_t chunks = 0;          // chunks executed through the pool
  std::int64_t chunks_stolen = 0;   // chunks taken from another thread's
                                    // deque at least once; each counts
                                    // once however often it is re-stolen,
                                    // so chunks_stolen <= chunks

  int threads = 0;                  // worker threads spawned so far
};
PoolStats parallel_pool_stats();

/// RAII guard: while alive on the current thread, parallel primitives
/// issued from this thread cap their effective concurrency at `max_threads`
/// (both the threads=0 default and explicit larger requests are clamped;
/// 1 means fully inline/serial on this thread; 0 or less = uncapped, the
/// scope is a no-op — matching the 0-means-default convention of every
/// other knob here). Scopes nest; the tightest enclosing cap wins. Results are unaffected — chunk boundaries and
/// reduction order depend only on (n, grain), never on where chunks run.
///
/// The cap bounds the scope's *concurrent* fan-out as a whole, not each
/// job separately: chunks of a capped job run their nested parallel
/// calls inline (the capped job itself may already occupy max_threads
/// executors), so nesting cannot compound the budget. (Executor slots
/// are claimed per chunk, so the set of distinct threads that touch the
/// work over its lifetime may be larger; at most max_threads run at any
/// instant.)
///
/// This is how the inference service bounds a request's intra-op fan-out
/// (ServiceOptions::intra_op_threads): the scope covers compilation and
/// execution alike without threading a parameter through every call.
class ParallelMaxThreadsScope {
 public:
  explicit ParallelMaxThreadsScope(int max_threads);
  ~ParallelMaxThreadsScope();
  ParallelMaxThreadsScope(const ParallelMaxThreadsScope&) = delete;
  ParallelMaxThreadsScope& operator=(const ParallelMaxThreadsScope&) = delete;

 private:
  int prev_;
};

/// RAII guard: while alive on the current thread, parallel_for /
/// parallel_for_range / parallel_reduce run their chunks inline (serially
/// on this thread) instead of dispatching to the shared pool. Equivalent
/// to ParallelMaxThreadsScope(1); kept as its own name because "run this
/// serially" is a common intent (tests, single-threaded baselines,
/// ServiceOptions::intra_op_threads == 1).
class ParallelInlineScope : public ParallelMaxThreadsScope {
 public:
  ParallelInlineScope() : ParallelMaxThreadsScope(1) {}
};

}  // namespace dynasparse
