#include "service/inference_service.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <thread>

#include "service/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/parallel.hpp"

namespace dynasparse {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The limit memory_budget_bytes = 0 resolves to.
constexpr std::size_t kDefaultBudget = std::size_t{1280} << 20;

/// Reject nonsense, resolve defaults: options().workers and
/// options().memory_budget_bytes always report what the service will
/// actually run with — the old silent min(hardware, 16) cap is now
/// visible to callers.
ServiceOptions validate_and_resolve(ServiceOptions o) {
  if (o.workers < 0)
    throw std::invalid_argument("ServiceOptions::workers must be >= 0");
  if (o.intra_op_threads < 0)
    throw std::invalid_argument("ServiceOptions::intra_op_threads must be >= 0");
  if (o.default_deadline_ms < 0)
    throw std::invalid_argument("ServiceOptions::default_deadline_ms must be >= 0");
  if (o.batch_window_us < 0)
    throw std::invalid_argument("ServiceOptions::batch_window_us must be >= 0");
  if (o.workers == 0) o.workers = std::min(parallel_hardware_threads(), 16);
  o.workers = std::max(o.workers, 1);
  if (o.memory_budget_bytes == 0) o.memory_budget_bytes = kDefaultBudget;
  return o;
}

/// One cache tier's KeyedCacheStats under `prefix`.
void add_cache_metrics(Metrics& m, const std::string& prefix,
                       const KeyedCacheStats& s) {
  m.counter(prefix + "hits", s.hits);
  m.counter(prefix + "misses", s.misses);
  m.counter(prefix + "evictions", s.evictions);
  m.counter(prefix + "inflight_joins", s.inflight_joins);
  m.counter(prefix + "aborted_retries", s.aborted_retries);
  m.counter(prefix + "pinned_skips", s.pinned_skips);
  m.counter(prefix + "entries", s.entries);
  m.counter(prefix + "bytes", s.bytes);
  m.counter(prefix + "shared_refs", s.shared_refs);
}

/// Tighter of two caps where 0 means "uncapped".
int combine_caps(int a, int b) {
  if (a <= 0) return b;
  if (b <= 0) return a;
  return std::min(a, b);
}

/// The relative deadline a request runs under: its own, else the service
/// default, else none. Negative request values are an input error.
std::int64_t effective_deadline_ms(const ServiceOptions& opts,
                                   const ServiceRequest& req) {
  if (req.deadline_ms < 0)
    throw std::invalid_argument("ServiceRequest::deadline_ms must be >= 0");
  return req.deadline_ms > 0 ? req.deadline_ms : opts.default_deadline_ms;
}

}  // namespace

const char* admission_policy_name(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::kBlock: return "block";
    case AdmissionPolicy::kReject: return "reject";
    case AdmissionPolicy::kShedOldest: return "shed";
  }
  return "?";
}

AdmissionPolicy parse_admission_policy(const std::string& s) {
  if (s == "block") return AdmissionPolicy::kBlock;
  if (s == "reject") return AdmissionPolicy::kReject;
  if (s == "shed" || s == "shed-oldest") return AdmissionPolicy::kShedOldest;
  // Bad configuration, not runtime state: the caller passed an
  // unusable option value.
  throw std::invalid_argument("unknown admission policy: " + s +
                              " (expected block|reject|shed)");
}

ServiceRequest ServiceRequest::own(GnnModel model, Dataset dataset,
                                   EngineOptions options) {
  ServiceRequest req;
  req.model = Signed<GnnModel>(std::move(model));
  req.dataset = Signed<Dataset>(std::move(dataset));
  req.options = options;
  return req;
}

InferenceService::InferenceService(ServiceOptions options)
    : options_(validate_and_resolve(options)),
      budget_(std::make_shared<MemoryBudget>(options_.memory_budget_bytes)),
      // Tier registration order (pool, compile, result) is the reverse
      // of shrink order — see the member-declaration comment. Each cache
      // wires its own shrinker to the tier it is given.
      tile_pool_(std::make_shared<TilePool>(options_.tile_pool_capacity,
                                            budget_->register_tier("tile_pool"))),
      plan_store_(options_.plan_store_capacity > 0
                      ? std::make_shared<PlanStore>(options_.plan_store_capacity)
                      : nullptr),
      cache_(options_.cache_capacity, plan_store_,
             budget_->register_tier("compile"), tile_pool_),
      result_cache_(options_.result_cache_capacity,
                    budget_->register_tier("result")),
      queue_(options_.max_queue_depth),
      batcher_(queue_, BatchPolicy{options_.batch_window_us, options_.max_batch_size},
               [](const Job& job) {
                 const ServiceRequest& r = job.request;
                 return BatchKey{plan_signature(*r.model, r.dataset->graph.num_vertices(),
                                                r.options.config),
                                 r.dataset.signature()};
               }) {
  // Requests executed (or joined) by this service's destructor use the
  // shared pool; constructing the pool first pins its static lifetime
  // beyond this object's.
  parallel_ensure_pool();
  // Arm the process-global chaos injector when this service carries a
  // spec (a malformed spec throws std::invalid_argument here, before any
  // request can run under a half-armed configuration). An empty spec
  // leaves whatever DYNASPARSE_FAULT_SPEC armed untouched.
  if (!options_.fault_spec.empty())
    FaultInjector::global().arm(parse_fault_spec(options_.fault_spec));
}

InferenceService::~InferenceService() { shutdown(); }

void InferenceService::shutdown() {
  // Phase 1: stop accepting and abort. A submit() past this point throws
  // and leaves no slot behind. Every still-queued slot fails now with
  // CancelledError (its worker pop will skip the stale job), and every
  // running request's token is cancelled so it aborts at the next
  // cooperative check — the service goes down in bounded time instead of
  // draining a queue nobody will read.
  {
    std::lock_guard<OrderedMutex> lk(slots_mu_);
    accepting_ = false;
    for (auto& [id, slot] : slots_) {
      (void)id;
      if (slot.state == RequestState::kQueued) {
        if (fail_slot_locked(slot,
                             std::make_exception_ptr(CancelledError(
                                 "request cancelled: InferenceService "
                                 "shutting down")))) {
          ++robust_.cancelled;
          slot.cancel_counted = true;
        }
      } else if (slot.state == RequestState::kRunning) {
        slot.source.cancel();
      }
    }
    slots_cv_.notify_all();
  }
  queue_.close();
  // Phase 2: join. Workers pop (and skip) every remaining stale item
  // before exiting; a running request aborts at its next check or, if it
  // was already past the last one, completes normally.
  {
    std::lock_guard<OrderedMutex> lk(workers_mu_);
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }
  // Phase 3: no waiter outlives the service. After the join every slot
  // must be terminal (that is the invariant the phases above establish);
  // if one ever is not, fail it rather than strand its waiter, then hold
  // the destructor until every in-flight wait() has consumed its slot.
  {
    std::unique_lock<OrderedMutex> lk(slots_mu_);
    for (auto& [id, slot] : slots_) {
      (void)id;
      assert(slot.state != RequestState::kRunning &&
             "worker exited mid-request");
      if (slot.state == RequestState::kQueued ||
          slot.state == RequestState::kRunning) {
        slot.state = RequestState::kFailed;
        slot.error = std::make_exception_ptr(ShutdownError(
            "InferenceService destroyed before the request ran"));
        slot.finished = std::chrono::steady_clock::now();
        // Never picked up by a worker: pin started so a wait(id, &timing)
        // on this failed slot reports queue_ms = the full lifetime and
        // exec_ms = 0 instead of deltas against an epoch timestamp.
        slot.started = slot.finished;
      }
    }
    slots_cv_.notify_all();
    slots_cv_.wait(lk, [&] { return waiters_ == 0 && inflight_submits_ == 0; });
  }
}

void InferenceService::ensure_workers() {
  std::lock_guard<OrderedMutex> lk(workers_mu_);
  {
    std::lock_guard<OrderedMutex> slk(slots_mu_);
    if (!accepting_) return;  // submit() will throw at slot creation
  }
  while (static_cast<int>(workers_.size()) < options_.workers)
    workers_.emplace_back([this] { worker_main(); });
}

void InferenceService::worker_main() {
  std::vector<Job> jobs;
  while (batcher_.next_batch(jobs)) process_batch(jobs);
}

void InferenceService::process_batch(std::vector<Job>& jobs) {
  // Chaos site: stall between dequeue and the first member's start — the
  // window where a queued request goes stale. One draw per batch: with
  // batching off every batch is a singleton, so this is exactly the
  // pre-batching per-job behavior.
  if (fault_point(kFaultQueueDelay))
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // Members run one at a time, in arrival order, and each is published the
  // moment it finishes: a member's failure stays its own, and a fast
  // member never waits for its batchmates. A member stays kQueued until
  // it starts, so cancel() and shutdown() fail a waiting member at once.
  std::int64_t started = 0;  // members of this release that started
  for (const Job& job : jobs) {
    CancellationToken token;
    {
      std::lock_guard<OrderedMutex> lk(slots_mu_);
      auto it = slots_.find(job.id);
      // Stale member: cancel()/shutdown failed the slot while it waited
      // (and a waiter may even have consumed it already). Skip it.
      if (it == slots_.end() || it->second.state != RequestState::kQueued)
        continue;
      Slot& slot = it->second;
      token = slot.source.token();
      // Start-time recheck: an expired request must never reach the
      // compiler — fail it here, before any work.
      if (token.expired()) {
        if (fail_slot_locked(slot,
                             std::make_exception_ptr(DeadlineExceededError(
                                 "request deadline expired while queued"))))
          ++robust_.expired_in_queue;
        slots_cv_.notify_all();
        continue;
      }
      slot.state = RequestState::kRunning;
      slot.started = std::chrono::steady_clock::now();
      // Formation stats count the members that started, so mean occupancy
      // measures work actually released together, not queue bookkeeping.
      // Unbatched mode records nothing — there are no "batches" to speak
      // of and the counters stay zero as documented.
      if (batcher_.policy().enabled()) {
        ++started;
        ++batch_.batched_requests;
        if (started == 1) ++batch_.batches_formed;
        if (started == 2) {  // the release fuses: count its first member too
          ++batch_.fused_batches;
          ++batch_.fused_requests;
        }
        if (started >= 2) ++batch_.fused_requests;
      }
    }
    const ServiceRequest& req = job.request;
    ReportRef report;
    std::uint64_t fingerprint = 0;
    std::exception_ptr error;
    try {
      report = run_request(req.compile_key(), *req.model, *req.dataset,
                           req.options, token, &fingerprint);
    } catch (...) {
      error = std::current_exception();
    }
    // The request has let go of its program and report, so entries the
    // last charge found held can go now: settle the budget before the
    // outcome is published (one lock and one compare when under it).
    budget_->rebalance();
    publish_result(job.id, std::move(report), fingerprint, std::move(error),
                   token);
  }
}

InferenceService::ReportRef InferenceService::run_request(
    const CompileKey& key, const GnnModel& model, const Dataset& ds,
    const EngineOptions& options, const CancellationToken& token,
    std::uint64_t* fingerprint) {
  // One intra-op scope per request: the service-wide cap combined with the
  // request's own host_threads (thread counts never change results). It
  // covers compilation too — the partition planner's parallel loops take
  // no thread argument — and clamps the runtime's loops without turning
  // the cap into an explicit thread request, which would oversubscribe
  // the pool whenever the cap exceeds the hardware width.
  ParallelMaxThreadsScope scope(
      combine_caps(options_.intra_op_threads, options.runtime.host_threads));
  token.check();
  // `key` keys the compilation cache and, extended with the
  // runtime-options signature, the result cache.
  auto run = [&] {
    std::shared_ptr<const CompiledProgram> prog =
        cache_.get_or_compile(key, model, ds, options.config, token);
    InferenceReport report = run_compiled(*prog, options.runtime, token);
    report.dataset_tag = ds.spec.tag;
    return report;
  };
  if (!result_cache_.enabled()) {
    InferenceReport report = run();
    if (fingerprint) *fingerprint = report.deterministic_fingerprint();
    return ReportRef(std::move(report));
  }
  // Equal ResultKeys imply bit-identical deterministic report fields
  // (determinism contract), so a hit is served without compiling or
  // executing, and is shared rather than copied. The fill runs under this
  // request's token: if it aborts, same-key requests joined on other
  // threads retry under their own tokens (ResultCache's in-flight dedup
  // and hand-off).
  return result_cache_.get_or_run_shared(make_result_key(key, options.runtime),
                                         run, fingerprint);
}

InferenceReport InferenceService::owned(ReportRef&& report) {
  if (auto* own = std::get_if<InferenceReport>(&report)) return std::move(*own);
  return *std::get<std::shared_ptr<const InferenceReport>>(report);
}

void InferenceService::publish_result(RequestId id, ReportRef&& report,
                                      std::uint64_t fingerprint,
                                      std::exception_ptr raw,
                                      const CancellationToken& token) {
  // Classify the outcome outside the lock: cooperative aborts keep
  // their typed error; everything else is wrapped as ExecutionError
  // (message preserved) so "what wait() can throw" is a closed set.
  std::exception_ptr error;
  enum class Outcome { kDone, kCancelled, kExpired, kFailed } outcome = Outcome::kDone;
  if (raw) {
    try {
      std::rethrow_exception(raw);
    } catch (const CancelledError&) {
      outcome = Outcome::kCancelled;
      error = std::current_exception();
    } catch (const DeadlineExceededError&) {
      outcome = Outcome::kExpired;
      error = std::current_exception();
    } catch (const std::exception& e) {
      outcome = Outcome::kFailed;
      error = std::make_exception_ptr(
          ExecutionError(std::string("request execution failed: ") + e.what()));
    } catch (...) {
      outcome = Outcome::kFailed;
      error = std::make_exception_ptr(
          ExecutionError("request execution failed: unknown exception"));
    }
  }
  {
    std::lock_guard<OrderedMutex> lk(slots_mu_);
    Slot& slot = slots_.at(id);  // kRunning slots are never consumed
    slot.finished = std::chrono::steady_clock::now();
    if (error) {
      // Move — not copy — so this worker drops its reference inside the
      // lock: the final release of the exception (and its message
      // string) then happens on whichever thread consumes the slot,
      // after it read the error, instead of racing that read from here.
      slot.error = std::move(error);
      slot.state = RequestState::kFailed;
      if (outcome == Outcome::kCancelled) ++robust_.cancelled;
      else if (outcome == Outcome::kExpired) ++robust_.expired_running;
      else ++robust_.execution_failures;
    } else if (token.cancelled()) {
      // cancel()/shutdown fired the token while this slot was kRunning,
      // and cancel() returned true on that observation — a promise that
      // the request resolves as cancelled even when execution slipped
      // past its last checkpoint and produced a result. Both sides hold
      // slots_mu_, so the promise is exact: a cancel() that loses this
      // race instead finds the slot terminal and returns false.
      slot.error = std::make_exception_ptr(
          CancelledError("request cancelled (completed result discarded)"));
      slot.state = RequestState::kFailed;
      ++robust_.cancelled;
    } else {
      slot.report = std::move(report);
      slot.fingerprint = fingerprint;
      slot.state = RequestState::kDone;
    }
  }
  slots_cv_.notify_all();
}

RequestId InferenceService::create_slot(bool throw_on_closed,
                                        std::int64_t deadline_ms) {
  std::lock_guard<OrderedMutex> lk(slots_mu_);
  if (!accepting_) {
    if (throw_on_closed)
      throw ShutdownError("InferenceService is shutting down");
    return 0;
  }
  RequestId id = next_id_++;
  Slot& slot = slots_[id];
  slot.state = RequestState::kQueued;
  slot.submitted = std::chrono::steady_clock::now();
  // Admission-time deadline anchor: relative deadlines are measured from
  // this point, so queue time counts against them.
  if (deadline_ms > 0)
    slot.source = CancellationSource(slot.submitted +
                                     std::chrono::milliseconds(deadline_ms));
  // From here until the push resolves, shutdown() must not complete: it
  // drains inflight_submits_ to zero in its final phase, so the
  // queue/mutexes the submit path still touches outlive it.
  ++inflight_submits_;
  return id;
}

bool InferenceService::fail_slot_locked(Slot& slot, std::exception_ptr error) {
  // Only a still-queued slot can be failed by admission control: a racing
  // shutdown may already have failed it (phase 3), and that resolution
  // must not be overwritten (or double-counted in the stats).
  if (slot.state != RequestState::kQueued) return false;
  slot.state = RequestState::kFailed;
  slot.error = std::move(error);
  slot.finished = std::chrono::steady_clock::now();
  slot.started = slot.finished;  // never picked up; queue_ms = lifetime
  return true;
}

void InferenceService::erase_unobserved_slot_locked(RequestId id) {
  auto it = slots_.find(id);
  if (it == slots_.end()) return;
  if (it->second.cancel_counted) --robust_.cancelled;
  slots_.erase(it);
}

RequestId InferenceService::submit(ServiceRequest request) {
  if (!request.model || !request.dataset)
    throw std::invalid_argument("ServiceRequest needs a model and a dataset");
  const std::int64_t deadline_ms = effective_deadline_ms(options_, request);
  const RequestId id = create_slot(/*throw_on_closed=*/true, deadline_ms);
  // The queue can still close between slot creation and this push
  // (shutdown closes it right after flipping accepting_; a push blocked
  // on a full queue is woken by the close). The push then refuses the
  // item; erase the slot and report shutdown instead of returning an id
  // whose request will never run — the bug this guards against left the
  // slot kQueued forever and deadlocked wait().
  bool pushed = false;
  bool rejected_full = false;  // kReject policy refused a full queue
  std::vector<Job> shed;
  try {
    ensure_workers();
    if (options_.max_queue_depth == 0 ||
        options_.admission == AdmissionPolicy::kBlock) {
      pushed = queue_.push(Job{id, std::move(request)});
    } else if (options_.admission == AdmissionPolicy::kReject) {
      auto r = queue_.try_push(Job{id, std::move(request)});
      pushed = r == BlockingQueue<Job>::PushResult::kOk;
      rejected_full = r == BlockingQueue<Job>::PushResult::kFull;
    } else {  // kShedOldest
      pushed = queue_.push_shed_oldest(Job{id, std::move(request)}, shed);
    }
  } catch (...) {
    // Thread spawn or enqueue allocation failed: resolve the inflight
    // accounting and drop the slot, or shutdown() would wait on
    // inflight_submits_ forever (the id was never returned, so no waiter
    // can exist).
    {
      std::lock_guard<OrderedMutex> lk(slots_mu_);
      --inflight_submits_;
      erase_unobserved_slot_locked(id);
    }
    slots_cv_.notify_all();
    throw;
  }
  {
    std::lock_guard<OrderedMutex> lk(slots_mu_);
    --inflight_submits_;
    if (pushed) ++admission_.accepted;
    // Shed jobs were removed from the queue atomically with the push, so
    // no worker can ever pop them; fail their slots now (unless shutdown
    // already did, or a waiter consumed the shutdown-failed slot).
    for (const Job& job : shed) {
      auto it = slots_.find(job.id);
      if (it == slots_.end()) continue;
      if (fail_slot_locked(it->second,
                           std::make_exception_ptr(AdmissionRejectedError(
                               "request shed by admission control "
                               "(queue full, policy shed-oldest)"))))
        ++admission_.shed;
    }
    if (!pushed) {
      if (rejected_full) {
        // Failed-fast slot: submit still returns the id; wait(id)
        // rethrows the admission error without the request executing.
        // The id has not been returned to anyone yet, so no waiter can
        // have consumed the slot — if shutdown's phase 3 failed it first
        // (also unobserved, for the same reason), overwrite that with the
        // admission error: a full-queue reject always resolves as
        // AdmissionRejectedError and always counts as rejected,
        // regardless of how the shutdown race interleaves.
        Slot& slot = slots_.at(id);
        if (slot.cancel_counted) {  // shutdown counted a cancel we overwrite
          --robust_.cancelled;
          slot.cancel_counted = false;
        }
        slot.state = RequestState::kFailed;
        slot.error = std::make_exception_ptr(AdmissionRejectedError(
            "request rejected by admission control (queue full, policy "
            "reject)"));
        slot.finished = std::chrono::steady_clock::now();
        slot.started = slot.finished;
        ++admission_.rejected;
      } else {
        // Queue closed under us: shutdown race.
        erase_unobserved_slot_locked(id);
      }
    }
  }
  slots_cv_.notify_all();  // shutdown may be waiting on the inflight drain
  if (!pushed && !rejected_full)
    throw ShutdownError("InferenceService is shutting down");
  return id;
}

std::optional<RequestId> InferenceService::try_submit(ServiceRequest request) {
  if (!request.model || !request.dataset)
    throw std::invalid_argument("ServiceRequest needs a model and a dataset");
  const std::int64_t deadline_ms = effective_deadline_ms(options_, request);
  const RequestId id = create_slot(/*throw_on_closed=*/false, deadline_ms);
  if (id == 0) return std::nullopt;  // shutting down; nothing to clean up
  BlockingQueue<Job>::PushResult r;
  try {
    ensure_workers();
    r = queue_.try_push(Job{id, std::move(request)});
  } catch (...) {
    // Same cleanup as submit(): never leave inflight_submits_ elevated or
    // a kQueued slot behind on a thread-spawn/allocation failure.
    {
      std::lock_guard<OrderedMutex> lk(slots_mu_);
      --inflight_submits_;
      erase_unobserved_slot_locked(id);
    }
    slots_cv_.notify_all();
    throw;
  }
  const bool pushed = r == BlockingQueue<Job>::PushResult::kOk;
  {
    std::lock_guard<OrderedMutex> lk(slots_mu_);
    --inflight_submits_;
    if (pushed) {
      ++admission_.accepted;
    } else {
      if (r == BlockingQueue<Job>::PushResult::kFull) ++admission_.rejected;
      erase_unobserved_slot_locked(id);
    }
  }
  slots_cv_.notify_all();
  if (!pushed) return std::nullopt;
  return id;
}

AdmissionStats InferenceService::admission_stats() const {
  std::lock_guard<OrderedMutex> lk(slots_mu_);
  return admission_;
}

BatchStats InferenceService::batch_stats() const {
  std::lock_guard<OrderedMutex> lk(slots_mu_);
  return batch_;
}

RobustnessStats InferenceService::robustness_stats() const {
  std::lock_guard<OrderedMutex> lk(slots_mu_);
  return robust_;
}

Metrics InferenceService::metrics() const {
  Metrics m;
  add_cache_metrics(m, "cache_", cache_stats());
  add_cache_metrics(m, "result_cache_", result_cache_stats());

  const PlanStoreStats ps = plan_store_stats();
  m.counter("plan_hits", ps.hits);
  m.counter("plan_misses", ps.misses);
  m.counter("plan_inflight_joins", ps.inflight_joins);
  m.counter("plan_aborted_retries", ps.aborted_retries);
  m.counter("plan_entries", ps.entries);
  m.counter("plan_evictions", ps.evictions);
  m.counter("plan_planned", ps.planned);
  m.counter("plan_seeded", ps.seeded);
  m.gauge("plan_planning_ms", ps.planning_ms);

  add_cache_metrics(m, "pool_", tile_pool_stats());

  const MemoryBudgetStats bs = memory_budget_stats();
  m.counter("budget_limit", static_cast<std::int64_t>(bs.limit_bytes));
  m.counter("budget_bytes", bs.bytes);
  m.counter("budget_high_water", bs.high_water);
  m.counter("budget_rebalances", bs.rebalances);
  for (const MemoryTierStats& t : bs.tiers) {
    const std::string prefix = "budget_" + t.name + "_";
    m.counter(prefix + "bytes", t.bytes);
    m.counter(prefix + "high_water", t.high_water);
    m.counter(prefix + "shrinks", t.shrinks);
  }

  const AdmissionStats as = admission_stats();
  const RobustnessStats rs = robustness_stats();
  const BatchStats bt = batch_stats();
  m.counter("admission_accepted", as.accepted);
  m.counter("admission_rejected", as.rejected);
  m.counter("admission_shed", as.shed);
  m.counter("cancelled", rs.cancelled);
  m.counter("expired_in_queue", rs.expired_in_queue);
  m.counter("expired_running", rs.expired_running);
  m.counter("execution_failures", rs.execution_failures);
  m.counter("batches_formed", bt.batches_formed);
  m.counter("batched_requests", bt.batched_requests);
  m.counter("fused_batches", bt.fused_batches);
  m.counter("fused_requests", bt.fused_requests);
  // Batches never execute fused; the key stays, at 0, because
  // perfbench/metrics.py (server_layers) reads it.
  m.counter("fused_kernels", 0);
  m.gauge("batch_mean_occupancy", bt.mean_occupancy());

  const PoolStats tp = parallel_pool_stats();
  m.counter("threads_spawned", tp.threads);
  m.counter("threads_jobs", tp.jobs);
  m.counter("threads_chunks", tp.chunks);
  m.counter("threads_chunks_stolen", tp.chunks_stolen);

  for (const auto& [site, st] : FaultInjector::global().all_stats()) {
    std::string prefix = "fault_" + site + "_";
    std::replace(prefix.begin(), prefix.end(), '.', '_');
    m.counter(prefix + "evaluations", st.evaluations);
    m.counter(prefix + "injected", st.injected);
  }
  return m;
}

bool InferenceService::cancel(RequestId id) {
  bool notify = false;
  bool accepted = false;
  {
    std::lock_guard<OrderedMutex> lk(slots_mu_);
    auto it = slots_.find(id);
    if (it == slots_.end()) throw std::invalid_argument("unknown request id");
    Slot& slot = it->second;
    if (slot.state == RequestState::kDone || slot.state == RequestState::kFailed)
      return false;  // already terminal: cancellation never un-completes
    slot.source.cancel();
    accepted = true;
    if (slot.state == RequestState::kQueued) {
      // Fail the slot now so the owner's wait() resolves promptly —
      // otherwise it would sit until a worker popped the stale job. The
      // worker that eventually pops it finds the slot terminal and skips.
      if (fail_slot_locked(slot, std::make_exception_ptr(
                                     CancelledError("request cancelled")))) {
        ++robust_.cancelled;
        slot.cancel_counted = true;
      }
      notify = true;
    }
    // kRunning: the token is signalled; the worker aborts at the next
    // cooperative check — or, if execution finishes first, discards the
    // result at publish time (both under slots_mu_, so returning true
    // here guarantees the request resolves as cancelled).
  }
  if (notify) slots_cv_.notify_all();
  return accepted;
}

RequestState InferenceService::state(RequestId id) const {
  std::lock_guard<OrderedMutex> lk(slots_mu_);
  auto it = slots_.find(id);
  if (it == slots_.end()) throw std::invalid_argument("unknown request id");
  return it->second.state;
}

bool InferenceService::done(RequestId id) const {
  RequestState s = state(id);
  return s == RequestState::kDone || s == RequestState::kFailed;
}

InferenceReport InferenceService::wait(RequestId id, RequestTiming* timing,
                                       std::uint64_t* fingerprint) {
  return owned(take(id, timing, fingerprint));
}

std::shared_ptr<const InferenceReport> InferenceService::wait_shared(
    RequestId id, RequestTiming* timing, std::uint64_t* fingerprint) {
  ReportRef report = take(id, timing, fingerprint);
  if (auto* own = std::get_if<InferenceReport>(&report))
    return std::make_shared<const InferenceReport>(std::move(*own));
  return std::get<std::shared_ptr<const InferenceReport>>(std::move(report));
}

InferenceService::ReportRef InferenceService::take(RequestId id,
                                                   RequestTiming* timing,
                                                   std::uint64_t* fingerprint) {
  std::unique_lock<OrderedMutex> lk(slots_mu_);
  if (slots_.find(id) == slots_.end())
    throw std::invalid_argument("unknown request id");
  ++waiters_;
  // Re-find inside the predicate: concurrent submits may rehash the map
  // while this thread sleeps, invalidating any held iterator.
  slots_cv_.wait(lk, [&] {
    auto it = slots_.find(id);
    if (it == slots_.end()) return true;  // consumed by a racing waiter
    RequestState s = it->second.state;
    return s == RequestState::kDone || s == RequestState::kFailed;
  });
  --waiters_;
  auto it = slots_.find(id);
  if (it == slots_.end()) {
    // The destructor may be blocked on waiters_ == 0.
    slots_cv_.notify_all();
    lk.unlock();
    throw std::invalid_argument("request id already consumed by another waiter");
  }
  Slot slot = std::move(it->second);
  slots_.erase(it);
  slots_cv_.notify_all();
  lk.unlock();
  if (timing) {
    timing->queue_ms = ms_between(slot.submitted, slot.started);
    timing->exec_ms = ms_between(slot.started, slot.finished);
    timing->total_ms = ms_between(slot.submitted, slot.finished);
  }
  if (slot.error) std::rethrow_exception(slot.error);
  if (fingerprint) *fingerprint = slot.fingerprint;
  return std::move(slot.report);
}

std::vector<InferenceReport> InferenceService::run_batch(
    std::vector<ServiceRequest> requests) {
  // Validate the whole batch before enqueueing anything: a mid-batch
  // submit() throw would otherwise abandon already-submitted requests
  // (their slots, and eventually their reports, would leak in slots_).
  for (const ServiceRequest& req : requests)
    if (!req.model || !req.dataset)
      throw std::invalid_argument("ServiceRequest needs a model and a dataset");
  std::vector<RequestId> ids;
  ids.reserve(requests.size());
  try {
    for (ServiceRequest& req : requests) ids.push_back(submit(std::move(req)));
  } catch (...) {
    // Shutdown raced the batch: drain what did get in, then propagate.
    for (RequestId id : ids) {
      try {
        (void)wait(id);
      } catch (...) {
      }
    }
    throw;
  }
  std::vector<InferenceReport> reports(ids.size());
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    try {
      reports[i] = wait(ids[i]);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return reports;
}

InferenceReport InferenceService::run_one(const GnnModel& model, const Dataset& ds,
                                          const EngineOptions& options) {
  InferenceReport report =
      owned(run_request(make_compile_key(model, ds, options.config), model, ds,
                        options, {}));
  budget_->rebalance();  // as process_batch does after each member
  return report;
}

InferenceService& InferenceService::process_default() {
  static InferenceService service([] {
    ServiceOptions opts;
    opts.cache_capacity = 4;
    return opts;
  }());
  return service;
}

}  // namespace dynasparse
