// Continuous cross-request batching: the BatchScheduler's collection
// policy (window/K cutoffs, per-key grouping, close-time flush) tested
// directly against a plain job type, and the end-to-end contract tested
// through the service — a request released as a batch member produces an
// InferenceReport whose deterministic_fingerprint() is bit-identical to
// the same request executed solo, across models, datasets and batch
// sizes, with the formation counters proving batching actually happened
// (these are not vacuous passthrough runs).

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "service/batch_scheduler.hpp"
#include "service/inference_service.hpp"
#include "service_counters.hpp"
#include "util/blocking_queue.hpp"
#include "util/random.hpp"

namespace dynasparse {
namespace {

// ---------------------------------------------------------------------
// Scheduler policy semantics, against a plain job type.
// ---------------------------------------------------------------------

struct FakeJob {
  int key = 0;
  int seq = 0;
};

BatchKey fake_key(const FakeJob& j) {
  return BatchKey{static_cast<std::uint64_t>(j.key), 42};
}

TEST(BatchSchedulerPolicy, DisabledPolicyIsPurePassthrough) {
  BlockingQueue<FakeJob> q(0);
  BatchScheduler<FakeJob> sched(q, BatchPolicy{}, fake_key);
  ASSERT_FALSE(BatchPolicy{}.enabled());
  ASSERT_TRUE(q.push(FakeJob{1, 0}));
  ASSERT_TRUE(q.push(FakeJob{1, 1}));
  std::vector<FakeJob> out;
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 1u);  // one at a time, even with same-key jobs queued
  EXPECT_EQ(out[0].seq, 0);
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 1);
  q.close();
  EXPECT_FALSE(sched.next_batch(out));
}

TEST(BatchSchedulerPolicy, KCutoffReleasesWithoutWaitingForWindow) {
  BlockingQueue<FakeJob> q(0);
  // A window long enough that a timing-based release would hang the test:
  // only the K cutoff can explain a prompt return.
  BatchScheduler<FakeJob> sched(q, BatchPolicy{60'000'000, 3}, fake_key);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(q.push(FakeJob{7, i}));
  std::vector<FakeJob> out;
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i].seq, i);  // arrival order
}

TEST(BatchSchedulerPolicy, WindowExpiryReleasesAPartialGroup) {
  BlockingQueue<FakeJob> q(0);
  // K never reached (max 100): only the 5 ms window can release.
  BatchScheduler<FakeJob> sched(q, BatchPolicy{5'000, 100}, fake_key);
  ASSERT_TRUE(q.push(FakeJob{3, 0}));
  ASSERT_TRUE(q.push(FakeJob{3, 1}));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<FakeJob> out;
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 2u);
  // The release must have waited for the window (minus scheduling slop,
  // generous upper bound for loaded CI machines).
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_GE(ms, 3.0);
  EXPECT_LT(ms, 4000.0);
}

TEST(BatchSchedulerPolicy, ZeroWindowBatchesOnlyWhatIsAlreadyQueued) {
  BlockingQueue<FakeJob> q(0);
  BatchScheduler<FakeJob> sched(q, BatchPolicy{0, 100}, fake_key);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(q.push(FakeJob{9, i}));
  std::vector<FakeJob> out;
  // Everything queued fuses; nothing waits for more.
  ASSERT_TRUE(sched.next_batch(out));
  EXPECT_EQ(out.size(), 4u);
  // A lone job released immediately as a singleton batch.
  ASSERT_TRUE(q.push(FakeJob{9, 4}));
  ASSERT_TRUE(sched.next_batch(out));
  EXPECT_EQ(out.size(), 1u);
}

TEST(BatchSchedulerPolicy, GroupsByKeyNeverMixing) {
  BlockingQueue<FakeJob> q(0);
  BatchScheduler<FakeJob> sched(q, BatchPolicy{60'000'000, 2}, fake_key);
  // Interleaved keys: A B A B. Key A reaches K=2 first.
  ASSERT_TRUE(q.push(FakeJob{1, 0}));
  ASSERT_TRUE(q.push(FakeJob{2, 1}));
  ASSERT_TRUE(q.push(FakeJob{1, 2}));
  ASSERT_TRUE(q.push(FakeJob{2, 3}));
  std::vector<FakeJob> out;
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 1);
  EXPECT_EQ(out[1].key, 1);
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 2);
  EXPECT_EQ(out[1].key, 2);
}

TEST(BatchSchedulerPolicy, CloseFlushesPendingGroupsOnePerCall) {
  BlockingQueue<FakeJob> q(0);
  BatchScheduler<FakeJob> sched(q, BatchPolicy{60'000'000, 100}, fake_key);
  ASSERT_TRUE(q.push(FakeJob{1, 0}));
  ASSERT_TRUE(q.push(FakeJob{2, 1}));
  ASSERT_TRUE(q.push(FakeJob{1, 2}));
  q.close();
  std::vector<FakeJob> out;
  // Oldest group (key 1) first, then key 2, then end-of-stream.
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 1);
  ASSERT_TRUE(sched.next_batch(out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, 2);
  EXPECT_FALSE(sched.next_batch(out));
}

// ---------------------------------------------------------------------
// End-to-end: a batch member's report is bit-identical to solo execution.
// ---------------------------------------------------------------------

Dataset batch_dataset(std::uint64_t seed, const std::string& tag) {
  DatasetSpec spec;
  spec.name = "batch";
  spec.tag = tag;
  spec.vertices = 150;
  spec.edges = 600;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.h0_density = 0.3;
  spec.hidden_dim = 8;
  spec.degree_skew = 0.5;
  return generate_dataset(spec, 1, seed);
}

/// A batch-compatible roster: same dataset content and layer shapes
/// (equal BatchKey) but a different weight draw per member — different
/// CompileKeys, so this exercises genuine cross-request batches, not
/// result memoization.
std::vector<ServiceRequest> compatible_requests(std::size_t n, GnnModelKind kind,
                                                std::uint64_t dataset_seed,
                                                const std::string& tag) {
  std::vector<ServiceRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    Dataset ds = batch_dataset(dataset_seed, tag);
    Rng rng(1000 + 31 * i);
    GnnModel model = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                                 ds.spec.num_classes, rng);
    model.name += "#" + std::to_string(i);
    reqs.push_back(ServiceRequest::own(std::move(model), std::move(ds)));
  }
  return reqs;
}

InferenceReport solo_report(const ServiceRequest& req) {
  CompiledProgram prog = compile(*req.model, *req.dataset, req.options.config);
  InferenceReport rep = run_compiled(prog, req.options.runtime);
  rep.dataset_tag = req.dataset->spec.tag;
  return rep;
}

std::uint64_t solo_fingerprint(const ServiceRequest& req) {
  return solo_report(req).deterministic_fingerprint();
}

TEST(BatchServiceFusion, FusedReportsAreBitIdenticalToSoloAcrossSweep) {
  const GnnModelKind kinds[] = {GnnModelKind::kGcn, GnnModelKind::kSage};
  const std::size_t batch_sizes[] = {2, 3, 5};
  std::uint64_t dataset_seed = 77;
  for (GnnModelKind kind : kinds) {
    for (std::size_t k : batch_sizes) {
      ++dataset_seed;
      std::vector<ServiceRequest> reqs =
          compatible_requests(k, kind, dataset_seed, "BT");
      std::vector<std::uint64_t> expected;
      for (const ServiceRequest& r : reqs)
        expected.push_back(solo_fingerprint(r));

      ServiceOptions opts;
      opts.workers = 2;
      // K = the roster size releases the batch the moment the last
      // member arrives; the long window is only the backstop.
      opts.batch_window_us = 3'000'000;
      opts.max_batch_size = k;
      InferenceService svc(opts);
      std::vector<RequestId> ids;
      for (ServiceRequest& r : reqs) ids.push_back(svc.submit(std::move(r)));
      for (std::size_t i = 0; i < ids.size(); ++i) {
        std::uint64_t handed_out = 0;
        InferenceReport rep = svc.wait(ids[i], nullptr, &handed_out);
        EXPECT_EQ(rep.deterministic_fingerprint(), expected[i])
            << "kind=" << static_cast<int>(kind) << " k=" << k
            << " member=" << i;
        EXPECT_EQ(handed_out, rep.deterministic_fingerprint()) << "member=" << i;
      }
      const BatchStats bs = svc.batch_stats();
      EXPECT_EQ(bs.batched_requests, static_cast<std::int64_t>(k));
      EXPECT_EQ(bs.fused_requests, static_cast<std::int64_t>(k))
          << "expected the whole roster to be released as one batch";
      EXPECT_GT(bs.mean_occupancy(), 1.0);
      testing::expect_counters_add_up(svc, static_cast<std::int64_t>(k));
      svc.shutdown();
    }
  }
}

TEST(BatchServiceFusion, MixedDatasetsGroupSeparatelyAndStayCorrect) {
  // Two incompatible populations (different dataset content) interleaved:
  // the scheduler must group them apart; every report still matches its
  // solo reference exactly.
  std::vector<ServiceRequest> a = compatible_requests(2, GnnModelKind::kGcn, 5, "DA");
  std::vector<ServiceRequest> b = compatible_requests(2, GnnModelKind::kGcn, 6, "DB");
  std::vector<ServiceRequest> interleaved;
  interleaved.push_back(std::move(a[0]));
  interleaved.push_back(std::move(b[0]));
  interleaved.push_back(std::move(a[1]));
  interleaved.push_back(std::move(b[1]));
  std::vector<std::uint64_t> expected;
  for (const ServiceRequest& r : interleaved)
    expected.push_back(solo_fingerprint(r));

  ServiceOptions opts;
  opts.workers = 2;
  opts.batch_window_us = 3'000'000;
  opts.max_batch_size = 2;
  InferenceService svc(opts);
  std::vector<RequestId> ids;
  for (ServiceRequest& r : interleaved) ids.push_back(svc.submit(std::move(r)));
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(svc.wait(ids[i]).deterministic_fingerprint(), expected[i])
        << "member=" << i;
  const BatchStats bs = svc.batch_stats();
  EXPECT_EQ(bs.batched_requests, 4);
  EXPECT_EQ(bs.fused_batches, 2);  // one 2-batch per dataset, never mixed
  testing::expect_counters_add_up(svc, 4);
  svc.shutdown();
}

TEST(BatchServiceFusion, SingleRequestDegeneratePathMatchesSolo) {
  std::vector<ServiceRequest> reqs =
      compatible_requests(1, GnnModelKind::kGcn, 11, "SG");
  const std::uint64_t expected = solo_fingerprint(reqs[0]);
  ServiceOptions opts;
  opts.workers = 1;
  opts.batch_window_us = 5'000;  // batching ON, but only one request ever
  InferenceService svc(opts);
  RequestId id = svc.submit(std::move(reqs[0]));
  EXPECT_EQ(svc.wait(id).deterministic_fingerprint(), expected);
  const BatchStats bs = svc.batch_stats();
  EXPECT_EQ(bs.batches_formed, 1);
  EXPECT_EQ(bs.batched_requests, 1);
  EXPECT_EQ(bs.fused_batches, 0);
  EXPECT_EQ(bs.fused_requests, 0);
  testing::expect_counters_add_up(svc, 1);
  svc.shutdown();
}

TEST(BatchServiceFusion, MemoizedRepeatInsideAFusedBatchCountsAHit) {
  // Memoization and batching both on: a request repeated inside a later
  // batch, or twice inside one batch, must be served as a counted
  // result-cache hit that never reaches the compiler, exactly as it would
  // be with batching off.
  std::vector<ServiceRequest> reqs =
      compatible_requests(4, GnnModelKind::kGcn, 31, "MH");
  std::vector<std::uint64_t> expected;
  for (const ServiceRequest& r : reqs) expected.push_back(solo_fingerprint(r));

  ServiceOptions opts;
  opts.workers = 1;
  opts.result_cache_capacity = 8;
  opts.batch_window_us = 3'000'000;
  opts.max_batch_size = 2;
  InferenceService svc(opts);
  // First batch: two cold members, two misses.
  RequestId a = svc.submit(reqs[0]);
  RequestId b = svc.submit(reqs[1]);
  EXPECT_EQ(svc.wait(a).deterministic_fingerprint(), expected[0]);
  EXPECT_EQ(svc.wait(b).deterministic_fingerprint(), expected[1]);
  // Second batch: a repeat of the first request plus a cold one.
  RequestId repeat = svc.submit(reqs[0]);
  RequestId c = svc.submit(reqs[2]);
  EXPECT_EQ(svc.wait(repeat).deterministic_fingerprint(), expected[0]);
  EXPECT_EQ(svc.wait(c).deterministic_fingerprint(), expected[2]);
  // Third batch: one cold request twice. The first member claims the
  // memo entry and runs; the duplicate is a hit, not a second compile
  // and execute whose report is thrown away.
  RequestId d1 = svc.submit(reqs[3]);
  RequestId d2 = svc.submit(reqs[3]);
  EXPECT_EQ(svc.wait(d1).deterministic_fingerprint(), expected[3]);
  EXPECT_EQ(svc.wait(d2).deterministic_fingerprint(), expected[3]);

  const ResultCacheStats rs = svc.result_cache_stats();
  EXPECT_EQ(rs.hits, 2) << "a repeat inside a batch was not a hit";
  EXPECT_EQ(rs.misses, 4);
  // One compile per distinct request.
  const CacheStats cs = svc.cache_stats();
  EXPECT_EQ(cs.hits, 0) << "a memoized repeat reached the compiler";
  EXPECT_EQ(cs.misses, 4);
  const BatchStats bs = svc.batch_stats();
  EXPECT_EQ(bs.fused_batches, 3);
  EXPECT_EQ(bs.fused_requests, 6);
  testing::expect_counters_add_up(svc, 6);
  svc.shutdown();
}

TEST(BatchServiceFusion, UnbatchedDefaultsKeepCountersZero) {
  std::vector<ServiceRequest> reqs =
      compatible_requests(3, GnnModelKind::kGcn, 21, "UB");
  std::vector<std::uint64_t> expected;
  for (const ServiceRequest& r : reqs) expected.push_back(solo_fingerprint(r));
  ServiceOptions opts;
  opts.workers = 2;  // defaults: batch_window_us = 0, max_batch_size = 0
  InferenceService svc(opts);
  std::vector<RequestId> ids;
  for (ServiceRequest& r : reqs) ids.push_back(svc.submit(std::move(r)));
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_EQ(svc.wait(ids[i]).deterministic_fingerprint(), expected[i]);
  const BatchStats bs = svc.batch_stats();
  EXPECT_EQ(bs.batches_formed, 0);
  EXPECT_EQ(bs.batched_requests, 0);
  testing::expect_counters_add_up(svc, 3);
  svc.shutdown();
}

TEST(BatchServiceFusion, WaitingMembersStayQueuedUntilTheyStart) {
  // One worker runs a K-full batch member by member. Member 1 joins a
  // memo fill that this test holds open, so members 2-4 wait behind it.
  // A waiting member is still queued: cancel() fails it at once, a
  // deadline that passes while it waits counts in expired_in_queue, and
  // its wait shows in queue_ms.
  std::vector<ServiceRequest> reqs =
      compatible_requests(4, GnnModelKind::kGcn, 41, "WQ");
  const InferenceReport first = solo_report(reqs[0]);
  const std::uint64_t second = solo_fingerprint(reqs[1]);
  reqs[2].deadline_ms = 50;

  ServiceOptions opts;
  opts.workers = 1;
  opts.result_cache_capacity = 8;
  opts.batch_window_us = 3'000'000;
  opts.max_batch_size = 4;
  InferenceService svc(opts);

  std::mutex mu;
  std::condition_variable cv;
  bool filling = false, release = false;
  std::thread holder([&] {
    const ServiceRequest& r = reqs[0];
    (void)svc.result_cache().get_or_run(
        make_result_key(make_compile_key(*r.model, *r.dataset, r.options.config),
                        r.options.runtime),
        [&] {
          std::unique_lock<std::mutex> lk(mu);
          filling = true;
          cv.notify_all();
          cv.wait(lk, [&] { return release; });
          return first;
        });
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return filling; });
  }

  std::vector<RequestId> ids;
  for (const ServiceRequest& r : reqs) ids.push_back(svc.submit(r));
  while (svc.state(ids[0]) != RequestState::kRunning)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(svc.state(ids[3]), RequestState::kQueued);
  EXPECT_TRUE(svc.cancel(ids[3]));
  EXPECT_TRUE(svc.done(ids[3])) << "a waiting member must fail at once";
  // Member 3's 50 ms deadline passes while member 1 is held.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  {
    std::lock_guard<std::mutex> lk(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();

  RequestTiming timing;
  EXPECT_EQ(svc.wait(ids[0]).deterministic_fingerprint(),
            first.deterministic_fingerprint());
  EXPECT_EQ(svc.wait(ids[1], &timing).deterministic_fingerprint(), second);
  EXPECT_GE(timing.queue_ms, 80.0) << "the wait behind member 1 is queue time";
  EXPECT_THROW((void)svc.wait(ids[2]), DeadlineExceededError);
  EXPECT_THROW((void)svc.wait(ids[3]), CancelledError);
  const RobustnessStats rs = svc.robustness_stats();
  EXPECT_EQ(rs.expired_in_queue, 1);
  EXPECT_EQ(rs.expired_running, 0);
  EXPECT_EQ(rs.cancelled, 1);
  const BatchStats bs = svc.batch_stats();
  EXPECT_EQ(bs.batches_formed, 1);
  EXPECT_EQ(bs.batched_requests, 2);  // only the members that started
  EXPECT_EQ(bs.fused_requests, 2);
  testing::expect_counters_add_up(svc, 2);
  svc.shutdown();
}

TEST(BatchServiceFusion, NegativeWindowIsRejected) {
  ServiceOptions opts;
  opts.batch_window_us = -1;
  EXPECT_THROW(InferenceService svc(opts), std::invalid_argument);
}

}  // namespace
}  // namespace dynasparse
