// Stress/soak for bounded admission control (ISSUE 4) and the
// deadline/cancellation layer (ISSUE 6): randomized interleavings of
// submit / try_submit / cancel / wait / shutdown from 4+ threads against
// a bounded queue, under every admission policy, with and without result
// memoization, with random per-request deadlines. The properties under
// test:
//
//   1. Termination: every round drains or shuts down without deadlock —
//      a hang trips the ctest timeout. This is the regression net for
//      the close()/bounded-push interaction (a submit blocked on a full
//      queue must be woken by shutdown and resolve cleanly) and for the
//      abort-shutdown path (queued slots are failed, not drained).
//   2. Exact resolution: every id a submitter obtains resolves exactly
//      once through wait() — a report, an AdmissionRejectedError, a
//      cooperative abort (CancelledError / DeadlineExceededError), or a
//      shutdown failure — and the outcome counts add up to the attempts.
//   3. Correct reports: every completed request's fingerprint equals its
//      content's sequential reference (admission control, memoization,
//      and racing cancels never corrupt a result).
//
// Part of the CI TSan matrix and the forced-4-thread lane; requests are
// deliberately tiny so the randomized schedules, not the simulator,
// dominate the runtime.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "service/inference_service.hpp"
#include "service_counters.hpp"

namespace dynasparse {
namespace {

Dataset tiny_dataset(std::uint64_t seed) {
  DatasetSpec spec;
  spec.name = "stress";
  spec.tag = "ST" + std::to_string(seed % 100);
  spec.vertices = 100;
  spec.edges = 400;
  spec.feature_dim = 16;
  spec.num_classes = 4;
  spec.h0_density = 0.3;
  spec.hidden_dim = 8;
  spec.degree_skew = 0.5;
  return generate_dataset(spec, 1, seed);
}

ServiceRequest tiny_request(std::uint64_t seed, GnnModelKind kind) {
  Dataset ds = tiny_dataset(seed);
  Rng rng(seed + 1);
  GnnModel model = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                               ds.spec.num_classes, rng);
  return ServiceRequest::own(std::move(model), std::move(ds), {});
}

std::uint64_t reference_fingerprint(const ServiceRequest& req) {
  CompiledProgram prog = compile(*req.model, *req.dataset, req.options.config);
  InferenceReport rep = run_compiled(prog, req.options.runtime);
  rep.dataset_tag = req.dataset->spec.tag;
  return rep.deterministic_fingerprint();
}

TEST(ServiceStressTest, RandomizedSubmitWaitShutdownInterleavings) {
  const ServiceRequest req_a = tiny_request(201, GnnModelKind::kGcn);
  const ServiceRequest req_b = tiny_request(202, GnnModelKind::kSgc);
  const std::uint64_t fp_a = reference_fingerprint(req_a);
  const std::uint64_t fp_b = reference_fingerprint(req_b);

  constexpr int kSubmitters = 5;
  constexpr int kIters = 12;
  int round = 0;
  for (AdmissionPolicy policy :
       {AdmissionPolicy::kBlock, AdmissionPolicy::kReject,
        AdmissionPolicy::kShedOldest}) {
    for (int variant = 0; variant < 3; ++variant, ++round) {
      ServiceOptions opts;
      opts.workers = 2 + variant % 2;
      opts.cache_capacity = 2;
      opts.max_queue_depth = 1 + static_cast<std::size_t>(variant);
      opts.admission = policy;
      // Alternate the memoized and cold execution paths under contention.
      opts.result_cache_capacity = variant % 2 ? 8 : 0;
      InferenceService service(opts);

      std::atomic<long> attempts{0};
      std::atomic<long> completed{0};         // wait() returned a report
      std::atomic<long> admission_failed{0};  // AdmissionRejectedError
      std::atomic<long> aborted{0};           // CancelledError / DeadlineExceeded
                                              // (cancel(), expiry, or
                                              // abort-shutdown)
      std::atomic<long> shutdown_failed{0};   // other shutdown failures
      std::atomic<long> refused_entry{0};     // submit threw / try_submit nullopt
      std::atomic<long> wrong_fingerprint{0};

      std::vector<std::thread> submitters;
      for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
          std::mt19937 rng(static_cast<unsigned>(1000 * round + t));
          for (int i = 0; i < kIters; ++i) {
            const bool use_a = rng() % 2 == 0;
            ServiceRequest req = use_a ? req_a : req_b;
            // Random deadline pressure: mostly none, sometimes generous,
            // sometimes aggressive enough to expire in the queue.
            const unsigned deadline_die = rng() % 8;
            if (deadline_die == 0) req.deadline_ms = 1;
            else if (deadline_die == 1) req.deadline_ms = 50;
            ++attempts;
            std::optional<RequestId> id;
            if (rng() % 2 == 0) {
              try {
                id = service.submit(req);
              } catch (const std::runtime_error&) {
                // Shutdown won the race before enqueue; nothing to wait on
                // and no later submit can succeed.
                ++refused_entry;
                return;
              }
            } else {
              id = service.try_submit(req);
              if (!id) {
                ++refused_entry;  // full queue or shutdown; no slot leaked
                continue;
              }
            }
            if (rng() % 4 == 0) (void)service.done(*id);  // racing poll
            if (rng() % 4 == 0) {
              // Racing cancel of our own id: queued, running, or already
              // terminal — all must be safe, and never consume the slot.
              try {
                (void)service.cancel(*id);
              } catch (const std::invalid_argument&) {
                // A racing waiter cannot exist (we own the id), but a
                // racing shutdown path may not know it yet; tolerated.
              }
            }
            // An obtained id must resolve exactly once — never hang.
            try {
              InferenceReport rep = service.wait(*id);
              ++completed;
              if (rep.deterministic_fingerprint() != (use_a ? fp_a : fp_b))
                ++wrong_fingerprint;
            } catch (const AdmissionRejectedError&) {
              ++admission_failed;
            } catch (const RequestAbortedError&) {
              ++aborted;  // own cancel, deadline expiry, or abort-shutdown
            } catch (const std::runtime_error&) {
              ++shutdown_failed;
            }
          }
        });
      }

      // Even rounds: shut down under the submitters at a randomized point.
      // Odd rounds: let the burst drain; the destructor shuts down.
      if (round % 2 == 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 + round % 5));
        service.shutdown();
      }
      for (std::thread& t : submitters) t.join();

      const long resolved = completed.load() + admission_failed.load() +
                            aborted.load() + shutdown_failed.load() +
                            refused_entry.load();
      EXPECT_EQ(resolved, attempts.load())
          << "round " << round << " (" << admission_policy_name(policy)
          << "): some attempt neither resolved nor was refused";
      EXPECT_EQ(wrong_fingerprint.load(), 0)
          << "round " << round << ": completed request returned a wrong report";
      if (policy == AdmissionPolicy::kBlock && round % 2 != 0) {
        // No shutdown race and blocking admission: every attempt either
        // completes, aborts cooperatively (its own cancel or deadline),
        // or was a try_submit that found the queue full — nothing fails
        // after acceptance for any other reason.
        EXPECT_EQ(completed.load() + aborted.load() + refused_entry.load(),
                  attempts.load())
            << "round " << round;
        EXPECT_EQ(admission_failed.load(), 0) << "round " << round;
        EXPECT_EQ(shutdown_failed.load(), 0) << "round " << round;
      }
      AdmissionStats as = service.admission_stats();
      EXPECT_EQ(as.accepted, completed.load() + aborted.load() +
                                 shutdown_failed.load() + as.shed)
          << "round " << round
          << ": accepted requests must complete, abort, be failed by "
             "shutdown, or be shed";
      // The abort buckets agree with the service's own accounting.
      RobustnessStats rs = service.robustness_stats();
      EXPECT_EQ(rs.cancelled + rs.expired_in_queue + rs.expired_running,
                aborted.load())
          << "round " << round;
      testing::expect_counters_add_up(service, completed.load());
    }
  }
}

// The same randomized submit/cancel/deadline/shutdown storm, but with
// continuous batching ON (PR 9): batch formation — the collect window,
// the K cutoff, and the per-key groups — races cancels, queue-time
// expiries, and shutdown, under every admission policy. The PR-6
// invariants must hold unchanged:
//
//   - exact resolution: every obtained id resolves exactly once, and the
//     robustness counters equal the aborts waiters observed;
//   - member isolation: no batchmate observes another member's abort —
//     in rounds without a shutdown race, a request the submitter never
//     cancelled and that carried no deadline MUST complete (a foreign
//     abort leaking across a batch would surface exactly here);
//   - bit-identity: every completed report matches its sequential
//     reference, batched or not.
TEST(ServiceStressTest, RandomizedBatchingSoakKeepsIsolationAndAccounting) {
  const ServiceRequest req_a = tiny_request(301, GnnModelKind::kGcn);
  const ServiceRequest req_b = tiny_request(302, GnnModelKind::kSgc);
  const std::uint64_t fp_a = reference_fingerprint(req_a);
  const std::uint64_t fp_b = reference_fingerprint(req_b);

  constexpr int kSubmitters = 5;
  constexpr int kIters = 10;
  int round = 0;
  for (AdmissionPolicy policy :
       {AdmissionPolicy::kBlock, AdmissionPolicy::kReject,
        AdmissionPolicy::kShedOldest}) {
    for (int variant = 0; variant < 3; ++variant, ++round) {
      ServiceOptions opts;
      opts.workers = 2;
      opts.cache_capacity = 4;
      opts.max_queue_depth = 2 + static_cast<std::size_t>(variant);
      opts.admission = policy;
      opts.result_cache_capacity = variant % 2 ? 8 : 0;
      // Batching pressure varies by round: a pure K policy, a short
      // window, and a window+K combination.
      opts.batch_window_us = (variant == 0) ? 0 : 500;
      opts.max_batch_size = (variant == 1) ? 0 : 3;
      InferenceService service(opts);

      std::atomic<long> attempts{0}, completed{0}, admission_failed{0},
          aborted{0}, shutdown_failed{0}, refused_entry{0},
          wrong_fingerprint{0}, foreign_abort{0};

      std::vector<std::thread> submitters;
      for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
          std::mt19937 rng(static_cast<unsigned>(9000 + 1000 * round + t));
          for (int i = 0; i < kIters; ++i) {
            const bool use_a = rng() % 2 == 0;
            ServiceRequest req = use_a ? req_a : req_b;
            const unsigned deadline_die = rng() % 8;
            bool had_deadline = false;
            if (deadline_die == 0) {
              req.deadline_ms = 1;  // can expire while a batch collects
              had_deadline = true;
            } else if (deadline_die == 1) {
              req.deadline_ms = 50;
              had_deadline = true;
            }
            ++attempts;
            std::optional<RequestId> id;
            if (rng() % 2 == 0) {
              try {
                id = service.submit(req);
              } catch (const std::runtime_error&) {
                ++refused_entry;
                return;
              }
            } else {
              id = service.try_submit(req);
              if (!id) {
                ++refused_entry;
                continue;
              }
            }
            bool did_cancel = false;
            if (rng() % 4 == 0) {
              // Cancel racing batch formation: the victim may be sitting
              // in a half-collected group, running, or terminal.
              try {
                did_cancel = service.cancel(*id);
              } catch (const std::invalid_argument&) {
              }
            }
            try {
              InferenceReport rep = service.wait(*id);
              ++completed;
              if (rep.deterministic_fingerprint() != (use_a ? fp_a : fp_b))
                ++wrong_fingerprint;
            } catch (const AdmissionRejectedError&) {
              ++admission_failed;
            } catch (const RequestAbortedError&) {
              ++aborted;
              if (!did_cancel && !had_deadline) ++foreign_abort;
            } catch (const std::runtime_error&) {
              ++shutdown_failed;
            }
          }
        });
      }

      if (round % 2 == 0) {
        // Shut down mid-storm: close lands on half-collected groups.
        std::this_thread::sleep_for(std::chrono::milliseconds(1 + round % 5));
        service.shutdown();
      }
      for (std::thread& t : submitters) t.join();

      const long resolved = completed.load() + admission_failed.load() +
                            aborted.load() + shutdown_failed.load() +
                            refused_entry.load();
      EXPECT_EQ(resolved, attempts.load())
          << "round " << round << " (" << admission_policy_name(policy)
          << "): some attempt neither resolved nor was refused";
      EXPECT_EQ(wrong_fingerprint.load(), 0)
          << "round " << round
          << ": a batch member returned a wrong report";
      if (round % 2 != 0) {
        // No shutdown race: an uncancelled, deadline-free request must
        // never abort — a batchmate's cancel/expiry/fault is not allowed
        // to leak into it.
        EXPECT_EQ(foreign_abort.load(), 0)
            << "round " << round
            << ": a batch member observed another member's abort";
      }
      AdmissionStats as = service.admission_stats();
      EXPECT_EQ(as.accepted, completed.load() + aborted.load() +
                                 shutdown_failed.load() + as.shed)
          << "round " << round;
      RobustnessStats rs = service.robustness_stats();
      EXPECT_EQ(rs.cancelled + rs.expired_in_queue + rs.expired_running,
                aborted.load())
          << "round " << round;
      testing::expect_counters_add_up(service, completed.load());
    }
  }
}

// A dedicated canceller thread racing the workers over every in-flight
// id: cancels land on queued, running, and already-terminal slots in
// arbitrary interleavings. Invariants: cancel() never consumes a slot
// (the owner's wait() still resolves), every id resolves as a report or
// a CancelledError, completed reports stay bit-identical, and the
// service's cancelled counter equals the observed CancelledErrors.
TEST(ServiceStressTest, CancellerRacingWorkersKeepsExactAccounting) {
  const ServiceRequest req_a = tiny_request(204, GnnModelKind::kGcn);
  const ServiceRequest req_b = tiny_request(205, GnnModelKind::kSgc);
  const std::uint64_t fp_a = reference_fingerprint(req_a);
  const std::uint64_t fp_b = reference_fingerprint(req_b);

  ServiceOptions opts;
  opts.workers = 3;
  opts.cache_capacity = 4;
  InferenceService service(opts);

  std::mutex ids_mu;
  std::vector<RequestId> live_ids;  // submitted, not yet waited
  std::atomic<bool> submitting{true};
  std::atomic<long> completed{0}, cancelled{0}, wrong_fingerprint{0};

  std::thread canceller([&] {
    std::mt19937 rng(7);
    while (submitting.load()) {
      RequestId victim = 0;
      {
        std::lock_guard<std::mutex> lk(ids_mu);
        if (!live_ids.empty())
          victim = live_ids[rng() % live_ids.size()];
      }
      if (victim != 0) {
        try {
          (void)service.cancel(victim);
        } catch (const std::invalid_argument&) {
          // The owner's wait() consumed the slot between our snapshot
          // and the cancel — the documented race, must stay an error the
          // canceller can absorb.
        }
      }
      std::this_thread::yield();
    }
  });

  constexpr int kThreads = 4, kPerThread = 25;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(100 + t));
      for (int i = 0; i < kPerThread; ++i) {
        const bool use_a = rng() % 2 == 0;
        RequestId id = service.submit(use_a ? req_a : req_b);
        {
          std::lock_guard<std::mutex> lk(ids_mu);
          live_ids.push_back(id);
        }
        if (rng() % 3 == 0) std::this_thread::yield();
        try {
          InferenceReport rep = service.wait(id);
          ++completed;
          if (rep.deterministic_fingerprint() != (use_a ? fp_a : fp_b))
            ++wrong_fingerprint;
        } catch (const CancelledError&) {
          ++cancelled;
        }
        {
          std::lock_guard<std::mutex> lk(ids_mu);
          live_ids.erase(std::find(live_ids.begin(), live_ids.end(), id));
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  submitting = false;
  canceller.join();

  EXPECT_EQ(completed.load() + cancelled.load(),
            static_cast<long>(kThreads * kPerThread));
  EXPECT_EQ(wrong_fingerprint.load(), 0);
  RobustnessStats rs = service.robustness_stats();
  EXPECT_EQ(rs.cancelled, cancelled.load());
  EXPECT_EQ(rs.expired_in_queue + rs.expired_running, 0);  // no deadlines
  testing::expect_counters_add_up(service, completed.load());
}

// Soak the blocking policy specifically: a deep burst through a depth-1
// queue must fully drain with every submitter backpressured, never
// refused. Exercises the pop->space_cv_ wakeup chain under contention.
TEST(ServiceStressTest, BlockingPolicyDrainsDeepBurstThroughDepthOneQueue) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.cache_capacity = 1;
  opts.max_queue_depth = 1;
  opts.admission = AdmissionPolicy::kBlock;
  opts.result_cache_capacity = 4;
  InferenceService service(opts);

  const ServiceRequest req = tiny_request(203, GnnModelKind::kGcn);
  const std::uint64_t fp = reference_fingerprint(req);
  constexpr int kThreads = 4, kPerThread = 10;
  std::atomic<long> completed{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        RequestId id = service.submit(req);
        InferenceReport rep = service.wait(id);
        EXPECT_EQ(rep.deterministic_fingerprint(), fp);
        ++completed;
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(completed.load(), kThreads * kPerThread);
  EXPECT_EQ(service.admission_stats().accepted, kThreads * kPerThread);
  EXPECT_EQ(service.admission_stats().rejected, 0);
  EXPECT_EQ(service.admission_stats().shed, 0);
  testing::expect_counters_add_up(service, completed.load());
}

// Regression for the submit/shutdown race behind the network listener
// (ISSUE 7 satellite): a submit racing shutdown() must ALWAYS surface a
// typed answer — a report, an AdmissionRejectedError, a cooperative
// CancelledError, or the shutdown runtime_error — and never a silently
// dropped request. This is the service-side contract the wire layer
// leans on when it maps these outcomes to RESULT/ERROR frames: if any
// path here could swallow a request, a connected client would hang
// forever on a frame that never comes.
TEST(ServiceStressTest, SubmitRacingShutdownAlwaysGetsATypedAnswer) {
  const ServiceRequest req = tiny_request(204, GnnModelKind::kGcn);
  const std::uint64_t fp = reference_fingerprint(req);

  std::atomic<long> completed{0}, rejected{0}, cancelled{0}, refused{0};
  std::atomic<long> untyped{0};  // any escape from the closed outcome set
  std::mt19937_64 seq(0x5d0ffULL);

  int round = 0;
  for (AdmissionPolicy policy :
       {AdmissionPolicy::kReject, AdmissionPolicy::kShedOldest,
        AdmissionPolicy::kBlock}) {
    for (int variant = 0; variant < 4; ++variant, ++round) {
      ServiceOptions opts;
      opts.workers = 2;
      opts.cache_capacity = 1;
      opts.max_queue_depth = 1;
      opts.admission = policy;
      opts.result_cache_capacity = variant % 2 ? 4 : 0;
      InferenceService service(opts);

      constexpr int kThreads = 4, kPerThread = 6;
      std::atomic<long> attempts{0}, resolved{0}, round_completed{0};
      std::vector<std::thread> submitters;
      for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&] {
          for (int i = 0; i < kPerThread; ++i) {
            ++attempts;
            RequestId id = 0;
            try {
              id = service.submit(req);
            } catch (const std::runtime_error&) {
              ++refused;  // "InferenceService is shutting down"
              ++resolved;
              continue;
            } catch (...) {
              ++untyped;
              ++resolved;
              continue;
            }
            try {
              InferenceReport rep = service.wait(id);
              EXPECT_EQ(rep.deterministic_fingerprint(), fp);
              ++completed;
              ++round_completed;
            } catch (const AdmissionRejectedError&) {
              ++rejected;
            } catch (const CancelledError&) {
              ++cancelled;  // queued at shutdown, failed cooperatively
            } catch (const DeadlineExceededError&) {
              ++untyped;  // no deadlines configured: must not appear
            } catch (...) {
              ++untyped;
            }
            ++resolved;
          }
        });
      }
      // Shut down somewhere inside the burst; jitter the delay so the
      // close lands before, between, and after individual pushes across
      // rounds (including mid-push for blocked kBlock submitters).
      std::this_thread::sleep_for(
          std::chrono::microseconds(200 + seq() % 4000));
      service.shutdown();
      for (std::thread& t : submitters) t.join();
      EXPECT_EQ(resolved.load(), attempts.load()) << "policy round " << round;
      testing::expect_counters_add_up(service, round_completed.load());
    }
  }
  // Two deterministic rounds pin each side of the race, since a loaded
  // machine can push every jittered round onto the same side.
  {
    InferenceService service({.workers = 2});
    InferenceReport rep = service.wait(service.submit(req));
    EXPECT_EQ(rep.deterministic_fingerprint(), fp);
    ++completed;
    service.shutdown();
  }
  {
    InferenceService service({.workers = 2});
    service.shutdown();
    EXPECT_THROW((void)service.submit(req), std::runtime_error);
    ++refused;
  }
  EXPECT_EQ(untyped.load(), 0);
  EXPECT_EQ(completed.load() + rejected.load() + cancelled.load() +
                refused.load(),
            static_cast<long>(3 * 4 * 4 * 6 + 2));
  EXPECT_GT(completed.load(), 0);
  EXPECT_GT(refused.load() + cancelled.load() + rejected.load(), 0);
}

}  // namespace
}  // namespace dynasparse
