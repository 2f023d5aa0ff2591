#pragma once
// InferenceService — multi-request serving layer over the DynaSparse
// pipeline.
//
// The engine's run_inference() is one-shot: compile, execute, discard.
// A serving workload issues many (model, dataset, options) requests, most
// of which repeat recent compilations; this service amortizes that
// preprocessing the same way the paper amortizes sparsity profiling —
// compile once per *content* (compiler/signature.hpp keys), reuse across
// every request that matches, and execute requests concurrently with
// per-request isolation (a CompiledProgram is immutable after compile and
// execute() never mutates shared state, so many requests may share one
// program; see the re-entrancy note in runtime/runtime_system.hpp).
//
// Three usage shapes:
//   async    : id = svc.submit(req); ... svc.done(id); rep = svc.wait(id);
//   batch    : reports = svc.run_batch(requests);        // blocking, ordered
//   inline   : rep = svc.run_one(model, ds, options);    // calling thread;
//              this is what core/engine.hpp's run_inference routes through
//
// Concurrency model: `workers` dedicated threads consume a queue
// (util/blocking_queue.hpp), and each request's internal parallel loops
// fan out on the shared work-stealing pool (util/parallel.hpp). The pool
// runs any number of jobs concurrently, so inter-request and intra-request
// parallelism compose: a lone big request spreads across every idle core
// while small requests overlap on the same worker set, instead of each
// request being pinned to one thread. ServiceOptions::intra_op_threads
// bounds one request's fan-out: each request installs a
// ParallelMaxThreadsScope (combining it with the request's own
// RuntimeOptions::host_threads) that covers compile + execute, clamping
// what every parallel call under it —
// including runtime_system.cpp's hot loops — resolves its thread count
// to; 1 restores the serial-per-worker behavior this service shipped
// with. Reports are bit-identical to sequential run_inference for the
// deterministic fields (everything except the wall-clock CompileStats,
// which a cache hit reuses from the original compile) because every
// parallel primitive is thread-count-invariant by construction.
//
// Result memoization (ServiceOptions::result_cache_capacity): the whole
// pipeline is deterministic, so a request whose ResultKey — compile
// content plus every RuntimeOptions field (compiler/signature.hpp) —
// matches a cached entry returns the stored InferenceReport without
// executing; deterministic report fields are bit-identical to a fresh
// run by the determinism contract the golden/property tests enforce.
// Off by default.
//
// Continuous batching (ServiceOptions::batch_window_us /
// max_batch_size): workers dequeue through a BatchScheduler
// (service/batch_scheduler.hpp) that groups queued requests by
// (plan_signature, dataset_fingerprint) under a collect-for-a-window-or-K
// policy and releases each group as one batch. The worker then runs the
// batch member by member, each through the same path as a lone request
// (run_request: compile, then RuntimeSystem::execute), and publishes each
// member the moment it finishes. Reports are therefore bit-identical to
// running alone, and cancellation, deadlines and injected faults fail
// exactly the affected member. A member stays kQueued until its turn, so
// cancel() fails it at once, its deadline is rechecked when it starts,
// and its queue_ms covers its wait. Both knobs 0 (the default) release
// one job at a time. batch_stats() reports formation counters.
//
// Admission control (ServiceOptions::max_queue_depth + admission): a
// bounded queue gives submit() backpressure under overload — block the
// submitter, fail fast (AdmissionRejectedError through wait()), or shed
// the oldest queued requests. try_submit() is the non-blocking,
// non-throwing variant. All three policies compose with shutdown(): a
// blocked submit wakes and resolves cleanly when the queue closes.
//
// Deadlines + cancellation: a request may carry a relative deadline
// (ServiceRequest::deadline_ms; ServiceOptions::default_deadline_ms
// supplies a service-wide default) and may be aborted with cancel(id).
// Both resolve through one per-slot CancellationSource
// (util/cancellation.hpp) whose token is threaded down the
// compile/execute pipeline and checked at stage, planner-loop, and
// kernel boundaries. A queued request whose deadline passes is failed
// with DeadlineExceededError when it would start, before any compile
// work (the expired_in_queue stat counts these; a batch member stays
// queued until its turn); a running one aborts at the next check.
// Aborts only ever abort: a request that completes is
// bit-identical to an uncancellable run. Errors surface through wait()
// as a small typed taxonomy — CancelledError, DeadlineExceededError,
// AdmissionRejectedError, ExecutionError (everything else, message
// preserved) — with input-validation failures still thrown directly by
// submit()/run_batch() as std::invalid_argument.
//
// Fault injection: ServiceOptions::fault_spec (or DYNASPARSE_FAULT_SPEC)
// arms the process-global chaos injector (util/fault_injection.hpp).
// A fault in a request's own compile or execute fails that one request,
// typed, in isolation; queue.delay only stalls a worker; a request that
// completes is bit-identical to a fault-free run.
//
// Shutdown contract: shutdown() (also run by the destructor) stops
// accepting submits (a racing submit() throws ShutdownError and
// leaves no slot behind), fails every still-queued slot with
// CancelledError and cancels every running request's token (abort, not
// drain — a stale queue is worthless once the service is going away),
// joins the workers, fails any slot that never reached a terminal state,
// wakes every waiter, and then blocks until every in-flight wait() and
// submit() has finished — no caller is left inside the object once
// shutdown() returns. Racing submit()/wait() against shutdown() is
// therefore fully safe; racing them against the *destructor*
// additionally requires the usual C++ lifetime rule that no call starts
// after destruction has begun.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "service/batch_scheduler.hpp"
#include "service/compilation_cache.hpp"
#include "service/result_cache.hpp"
#include "util/blocking_queue.hpp"
#include "service/errors.hpp"
#include "util/cancellation.hpp"
#include "util/metrics.hpp"
#include "util/ordered_mutex.hpp"

namespace dynasparse {

/// One unit of serving work. The model/dataset are shared immutable
/// inputs; requests are cheap to copy and queue.
struct ServiceRequest {
  std::shared_ptr<const GnnModel> model;
  std::shared_ptr<const Dataset> dataset;
  EngineOptions options;
  /// Relative deadline in milliseconds, measured from submit(). 0 = use
  /// ServiceOptions::default_deadline_ms (which may itself be 0 = none);
  /// negative values are rejected with std::invalid_argument. When the
  /// deadline passes, the request fails with DeadlineExceededError — at
  /// its start if it never started (expired_in_queue), or at the next
  /// cooperative check if it was already executing.
  std::int64_t deadline_ms = 0;

  /// Take ownership of the inputs (moves them onto the heap).
  static ServiceRequest own(GnnModel model, Dataset dataset,
                            EngineOptions options = {});
};

enum class RequestState { kQueued, kRunning, kDone, kFailed };
using RequestId = std::uint64_t;

/// Per-request wall-clock breakdown (steady clock, milliseconds).
struct RequestTiming {
  double queue_ms = 0.0;  // submit -> start (a batch member also waits
                          // here for the members ahead of it)
  double exec_ms = 0.0;   // start -> completion (includes compile/cache)
  double total_ms = 0.0;  // submit -> completion
};

/// What submit() does when the request queue is at
/// ServiceOptions::max_queue_depth (irrelevant while the queue is
/// unbounded, the default).
enum class AdmissionPolicy {
  /// Block the submitter until a worker makes room (backpressure
  /// propagates to the caller). A blocked submit still resolves cleanly
  /// if shutdown() races it.
  kBlock,
  /// Fail fast: submit() still returns an id, but its slot is already
  /// failed with AdmissionRejectedError — wait(id) rethrows it without
  /// the request ever executing. try_submit() returns nullopt instead.
  kReject,
  /// Make room by failing the *oldest* queued (not yet running) requests
  /// with AdmissionRejectedError and admitting the new one — freshest
  /// traffic wins under overload.
  kShedOldest,
};

const char* admission_policy_name(AdmissionPolicy p);
/// Parse "block" / "reject" / "shed"; throws std::invalid_argument on
/// unknown names (matching the request_stream parse helpers).
AdmissionPolicy parse_admission_policy(const std::string& s);

/// Thrown (via wait()) for requests refused by bounded admission control
/// — distinct from the ShutdownError a shutdown race produces, so
/// callers can tell "overloaded, retry later" from "service is gone".
struct AdmissionRejectedError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown (via wait()) when a request's execution failed for any reason
/// other than a cooperative abort — the fourth leg of the error taxonomy
/// next to CancelledError / DeadlineExceededError (util/cancellation.hpp)
/// and AdmissionRejectedError. The original exception's message is
/// preserved; input-validation failures (std::invalid_argument from the
/// compiler) arrive here too when they surface asynchronously through a
/// worker, keeping "what wait() can throw" a closed set.
struct ExecutionError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Deadline/cancellation/failure counters (slots_mu_-guarded snapshots).
struct RobustnessStats {
  std::int64_t expired_in_queue = 0;  // deadline passed before start;
                                      // never reached the compiler
  std::int64_t expired_running = 0;   // deadline fired mid-execution
  std::int64_t cancelled = 0;         // aborted by cancel() or shutdown
  std::int64_t execution_failures = 0;  // worker failures wrapped as
                                        // ExecutionError
};

/// Admission-control counters (all zero while the queue is unbounded,
/// except accepted).
struct AdmissionStats {
  std::int64_t accepted = 0;  // submits that were enqueued
  std::int64_t rejected = 0;  // failed fast (kReject full / try_submit nullopt)
  std::int64_t shed = 0;      // queued requests failed by kShedOldest
};

/// Continuous-batching counters (slots_mu_-guarded snapshots). A "batch"
/// here is one BatchScheduler release with at least one member that
/// started (stale/expired members are excluded, so occupancy measures
/// work actually released together, not queue bookkeeping). All zero with
/// batching off — every dequeue is then a singleton and is not counted as
/// a batch.
struct BatchStats {
  std::int64_t batches_formed = 0;   // releases with >= 1 started member
  std::int64_t batched_requests = 0; // started members across them
  std::int64_t fused_batches = 0;    // releases with >= 2 started members
  std::int64_t fused_requests = 0;   // members of those releases
  double mean_occupancy() const {
    return batches_formed > 0
               ? static_cast<double>(batched_requests) /
                     static_cast<double>(batches_formed)
               : 0.0;
  }
};

struct ServiceOptions {
  /// Worker threads for submitted requests. 0 = auto: hardware
  /// concurrency capped at 16 (beyond that, intra-op parallelism is the
  /// better use of cores). Explicit positive values are honored as given;
  /// negative values are rejected (std::invalid_argument). The
  /// constructor resolves this field, so options().workers always reports
  /// the effective count — there is no hidden cap. Workers spawn lazily
  /// on first submit; run_one never spawns any.
  int workers = 0;
  /// CompilationCache capacity (programs). 0 disables caching.
  std::size_t cache_capacity = 16;
  /// ONE process-wide byte budget spanning every byte-holding reuse tier
  /// — tile pool, compilation cache, result cache (util/memory_budget.hpp)
  /// — and the only byte bound on them. No tier has a share of its own:
  /// crossing the limit evicts the overage from the result and compile
  /// caches first and from the tile pool last, so the programs that pin
  /// pool operands go before the pool is asked to free them. 0 (default)
  /// resolves to 1280 MiB, and options().memory_budget_bytes reports the
  /// effective limit. The aim is "quiesced total <= limit": a charge may
  /// overshoot while requests still hold the entries it would evict, and
  /// every request settles the budget once it has let go of them
  /// (README, "Memory model").
  std::size_t memory_budget_bytes = 0;
  /// TilePool capacity in pooled operands (src/matrix/tile_pool.hpp):
  /// programs compiled from the same dataset under the same partition
  /// geometry share one immutable copy of the reorganized adjacency/H0
  /// tiles instead of each holding a private one. 0 disables sharing
  /// (every compile builds private operands — the pre-pool behavior).
  std::size_t tile_pool_capacity = 64;
  /// Per-request intra-op parallelism cap: the most pool threads one
  /// request's compile + execute may fan out on, *in total* (nested
  /// parallel calls inside a capped request run inline rather than
  /// multiplying the budget; see ParallelMaxThreadsScope). 0 = uncapped
  /// (share the pool; a lone big request uses every idle core), 1 =
  /// fully serial on its worker (the pre-work-stealing behavior), N = at
  /// most N threads. Negative values are rejected. A request's own
  /// EngineOptions::runtime.host_threads composes with this: the tighter
  /// of the two bounds wins.
  int intra_op_threads = 0;
  /// Bound on queued (accepted but not yet running) requests. 0 =
  /// unbounded (the pre-admission-control behavior). When the bound is
  /// hit, `admission` decides what submit() does.
  std::size_t max_queue_depth = 0;
  /// Full-queue behavior; see AdmissionPolicy. Ignored while
  /// max_queue_depth is 0.
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// ResultCache capacity in reports. 0 disables result memoization (the
  /// default): every request executes. When > 0, a request whose
  /// ResultKey (compile content + every runtime-options field) matches a
  /// cached entry returns the stored report — bit-identical in every
  /// deterministic field — without executing.
  std::size_t result_cache_capacity = 0;
  /// PlanStore capacity in plans (service/plan_store.hpp). 0 disables
  /// cross-request plan reuse (the default): every compilation-cache miss
  /// plans its partitions from scratch. When > 0, a miss first looks up
  /// the plan stored under its planner inputs (plan_key: vertex count,
  /// kernel shapes, planning config) and routes through
  /// compile_with_plan, skipping the planner; reports stay bit-identical
  /// to plan-from-scratch compilation by the determinism contract.
  std::size_t plan_store_capacity = 0;
  /// Default relative deadline for submitted requests, in milliseconds.
  /// 0 = none (the pre-deadline behavior). A request's own deadline_ms,
  /// when set, wins. run_one() is never deadline-bounded — it executes
  /// synchronously for a caller that is, by construction, still waiting.
  std::int64_t default_deadline_ms = 0;
  /// Fault-injection spec (util/fault_injection.hpp grammar, e.g.
  /// "runtime.kernel_fault:0.3,seed:7"). Non-empty: the constructor arms
  /// the process-global injector with it (malformed specs throw
  /// std::invalid_argument). Empty (default): whatever
  /// DYNASPARSE_FAULT_SPEC armed — or nothing — stays in effect.
  std::string fault_spec;
  /// Continuous cross-request batching collect window, in microseconds
  /// (service/batch_scheduler.hpp). Workers hold a group of queued
  /// requests with equal plan and dataset open this long (from its first
  /// member) and release it as one batch, whose members then run one at a
  /// time, each published as soon as it finishes. 0 (default) with
  /// max_batch_size <= 1 disables batching entirely: workers pop one job
  /// at a time. Negative values are rejected.
  std::int64_t batch_window_us = 0;
  /// Release a collecting group as soon as it reaches this many members
  /// (the K cutoff). 0 with a positive window = unlimited (the window
  /// alone decides); values > 1 enable batching even with window 0
  /// (already-queued bursts are released together, no added latency).
  std::size_t max_batch_size = 0;
};

class InferenceService {
 public:
  /// Validates and resolves `options` (see ServiceOptions field docs);
  /// throws std::invalid_argument on negative workers/intra_op_threads.
  explicit InferenceService(ServiceOptions options = {});
  /// Equivalent to shutdown(): blocks until every submitted request has
  /// completed and every in-flight wait() has returned, then joins the
  /// workers. Concurrent submit() calls fail cleanly instead of enqueueing
  /// work that would never run.
  ~InferenceService();

  /// Abort-and-join: stop accepting submits (racing ones throw
  /// ShutdownError), fail every still-queued slot with
  /// CancelledError, cancel every running request's token (the
  /// cooperative checks abort it at the next boundary), join the
  /// workers, fail any slot that never reached a terminal state, wake
  /// all waiters, and hold until each in-flight wait() has consumed its
  /// slot. Idempotent and safe to call concurrently with submit()/wait();
  /// after it returns the service only serves run_one().
  void shutdown();

  InferenceService(const InferenceService&) = delete;
  InferenceService& operator=(const InferenceService&) = delete;

  /// Enqueue a request. Throws std::invalid_argument on a null
  /// model/dataset, ShutdownError if the service is shutting down
  /// (the request is not enqueued and no slot leaks — a returned id is
  /// always eventually resolved by wait()). With a bounded queue
  /// (ServiceOptions::max_queue_depth) and the queue full, the admission
  /// policy applies: kBlock waits for room (so submit() may block),
  /// kReject returns an id whose wait() rethrows AdmissionRejectedError
  /// without executing, kShedOldest admits this request after failing the
  /// oldest queued ones the same way.
  RequestId submit(ServiceRequest request);

  /// Non-blocking admission: like submit(), but when the request cannot
  /// be enqueued right now — queue full (any admission policy; try_submit
  /// never sheds) or service shutting down — returns std::nullopt instead
  /// of blocking or throwing. Still throws std::invalid_argument on a
  /// null model/dataset.
  std::optional<RequestId> try_submit(ServiceRequest request);

  /// Poll. Throws std::invalid_argument for an unknown (or already
  /// consumed) id.
  RequestState state(RequestId id) const;
  bool done(RequestId id) const;  // kDone or kFailed

  /// Request a cooperative abort. A still-queued request fails
  /// immediately (wait(id) rethrows CancelledError; the stale queue item
  /// is skipped by the worker that eventually pops it); a running one is
  /// signalled through its token and aborts at the next pipeline check —
  /// and if execution slips past its last check and completes anyway, the
  /// worker discards the result at publish time, so `true` is a hard
  /// promise: wait(id) WILL throw CancelledError. Returns false without
  /// effect when the request already reached a terminal state —
  /// cancellation never un-completes a published result — and throws
  /// std::invalid_argument for an unknown (or consumed) id. Cancelling
  /// does not consume the slot: the owner still calls wait().
  bool cancel(RequestId id);

  /// Block until the request completes, then consume its slot: returns the
  /// report (optionally the timing), or rethrows the request's exception.
  /// Each id can be waited on exactly once.
  InferenceReport wait(RequestId id, RequestTiming* timing = nullptr);

  /// Submit all, wait all; reports come back in request order. If any
  /// request failed, every other request still completes, then the first
  /// failure (in request order) is rethrown.
  std::vector<InferenceReport> run_batch(std::vector<ServiceRequest> requests);

  /// Execute one request synchronously on the calling thread through the
  /// shared cache + execution path (no queue, no workers), then settle
  /// the memory budget as a worker does after each request.
  InferenceReport run_one(const GnnModel& model, const Dataset& ds,
                          const EngineOptions& options = {});

  CompilationCache& cache() { return cache_; }
  CacheStats cache_stats() const { return cache_.stats(); }
  ResultCache& result_cache() { return result_cache_; }
  ResultCacheStats result_cache_stats() const { return result_cache_.stats(); }
  /// The plan store seeding compilation-cache misses, or null when
  /// ServiceOptions::plan_store_capacity is 0.
  PlanStore* plan_store() { return plan_store_.get(); }
  /// Zero-initialized stats while the store is disabled.
  PlanStoreStats plan_store_stats() const {
    return plan_store_ ? plan_store_->stats() : PlanStoreStats{};
  }
  /// The process-wide byte arbiter all reuse tiers register with; its
  /// limit is options().memory_budget_bytes.
  MemoryBudget& memory_budget() { return *budget_; }
  MemoryBudgetStats memory_budget_stats() const { return budget_->stats(); }
  /// The shared operand pool (capacity 0 = sharing disabled, but the
  /// object always exists so stats read zero instead of faulting).
  TilePool& tile_pool() { return *tile_pool_; }
  TilePoolStats tile_pool_stats() const { return tile_pool_->stats(); }
  AdmissionStats admission_stats() const;
  RobustnessStats robustness_stats() const;
  /// Continuous-batching counters; all zero while batching is off.
  BatchStats batch_stats() const;
  /// Every field of the stats above, named, in one fixed order: the
  /// compile, result and tile-pool caches (`cache_`, `result_cache_`,
  /// `pool_`), the plan store (`plan_`, zeros while disabled), the memory
  /// budget and each registered tier (`budget_`, `budget_<tier>_`),
  /// admission (`admission_`), robustness, batching, the shared thread
  /// pool (`threads_`) and each armed fault site (`fault_<site>_`, dots
  /// as underscores). Every stats output renders this list.
  Metrics metrics() const;
  /// Resolved options: workers is the effective worker count and
  /// memory_budget_bytes the effective limit (neither is ever 0).
  const ServiceOptions& options() const { return options_; }

  /// Process-wide service backing core/engine.hpp's run_inference: a
  /// compilation cache of 4 programs, every other option at its
  /// ServiceOptions default (no result memoization, no plan store).
  /// DYNASPARSE_FAULT_SPEC arms the global fault injector directly — see
  /// util/fault_injection.hpp — not through these options.
  static InferenceService& process_default();

 private:
  struct Job {
    RequestId id = 0;
    ServiceRequest request;
  };
  struct Slot {
    RequestState state = RequestState::kQueued;
    InferenceReport report;
    std::exception_ptr error;
    std::chrono::steady_clock::time_point submitted, started, finished;
    /// Per-request abort handle: cancel()/shutdown() fire it; its token
    /// (deadline-carrying when one applies) rides into run_request.
    CancellationSource source;
    /// True when robust_.cancelled counted this slot. A failed-push
    /// submit path that erases (or overwrites) a shutdown-cancelled slot
    /// nobody can ever wait on must un-count it, or the cancelled stat
    /// would exceed the CancelledErrors actually observable.
    bool cancel_counted = false;
  };

  void ensure_workers();
  void worker_main();
  /// Process one BatchScheduler release member by member: each member's
  /// stale/expired recheck and kRunning mark happen under slots_mu_ right
  /// before its run_request; then the budget is settled and the member
  /// is published.
  void process_batch(std::vector<Job>& jobs);
  /// The service's one execution path, for a queued member and run_one
  /// alike: token check, key hashing, result-cache claim, compile,
  /// RuntimeSystem::execute and report assembly, under one intra-op
  /// scope. Throws the raw (unclassified) error.
  InferenceReport run_request(const GnnModel& model, const Dataset& ds,
                              const EngineOptions& options,
                              const CancellationToken& token);
  /// Terminal-state publication of one member outcome: classify `raw`
  /// into the wait() error taxonomy (or discard a completed-but-cancelled
  /// result), update the slot + robustness stats under slots_mu_, wake
  /// waiters.
  void publish_result(RequestId id, InferenceReport&& report,
                      std::exception_ptr raw, const CancellationToken& token);
  /// Create a kQueued slot under slots_mu_ (throws ShutdownError
  /// when shutting down and `throw_on_closed`; returns 0 otherwise) and
  /// bump inflight_submits_. `deadline_ms` is the request's effective
  /// relative deadline (already defaulted/validated; 0 = none) — the
  /// slot's CancellationSource is built against the absolute point.
  RequestId create_slot(bool throw_on_closed, std::int64_t deadline_ms);
  /// Fail a still-kQueued slot with `error` (slots_mu_ held). Returns
  /// false without touching the slot when it already reached a terminal
  /// state (e.g. a racing shutdown failed it first) — callers use the
  /// return to keep admission stats exact.
  bool fail_slot_locked(Slot& slot, std::exception_ptr error);
  /// Erase a slot whose id was never returned to the caller (slots_mu_
  /// held). If a racing shutdown already failed it as cancelled, the
  /// robustness stat is rolled back: nobody can ever observe that
  /// CancelledError, so counting it would break the invariant
  /// `cancelled + expired == aborts seen by waiters`.
  void erase_unobserved_slot_locked(RequestId id);

  const ServiceOptions options_;
  // Declaration order is load-bearing twice over: the budget must outlive
  // every tier handle (so it is first), and tiers register with it in
  // member-init order — pool, compile, result — which is the order
  // rebalance() walks in REVERSE, so the program/report caches drop
  // their pool-operand references before the pool is asked to free them.
  std::shared_ptr<MemoryBudget> budget_;
  std::shared_ptr<TilePool> tile_pool_;
  std::shared_ptr<PlanStore> plan_store_;  // null when disabled; outlives cache_
  CompilationCache cache_;
  ResultCache result_cache_;
  BlockingQueue<Job> queue_;
  BatchScheduler<Job> batcher_;  // consumer side of queue_; workers pop
                                 // batches through it, never queue_ directly

  mutable OrderedMutex slots_mu_{LockRank::kServiceSlots};
  OrderedCondVar slots_cv_;
  std::unordered_map<RequestId, Slot> slots_;
  RequestId next_id_ = 1;
  AdmissionStats admission_; // guarded by slots_mu_
  RobustnessStats robust_;   // guarded by slots_mu_
  BatchStats batch_;         // guarded by slots_mu_
  int waiters_ = 0;          // threads inside wait(); shutdown drains to 0
  int inflight_submits_ = 0; // submits past the accepting_ check but not
                             // yet resolved; shutdown drains to 0
  bool accepting_ = true;    // cleared first thing in shutdown()

  OrderedMutex workers_mu_{LockRank::kServiceWorkers};
  std::vector<std::thread> workers_;
};

}  // namespace dynasparse
