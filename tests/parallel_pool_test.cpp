// Multi-job work-stealing pool tests (util/parallel.hpp): concurrent
// top-level jobs, nested parallel_for as stealable work, per-thread
// concurrency caps, cross-thread-count bit-identity of full inference
// reports, and exception routing. Thread counts are forced explicitly so
// the pool's multi-worker schedules are exercised even on a 1-vCPU host;
// this suite is part of the CI ThreadSanitizer job.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "graph/dataset.hpp"
#include "model/model.hpp"
#include "util/parallel.hpp"

namespace dynasparse {
namespace {

TEST(WorkStealingPoolTest, ConcurrentTopLevelJobsAllComplete) {
  // The PR-1 pool serialized concurrent callers on a single job slot;
  // the work-stealing pool must run many top-level jobs at once, each
  // covering its index space exactly once.
  constexpr int kJobs = 4;
  constexpr std::int64_t kN = 4096;
  std::vector<std::vector<std::atomic<int>>> hits(kJobs);
  for (auto& h : hits) {
    std::vector<std::atomic<int>> v(kN);
    for (auto& x : v) x = 0;
    h = std::move(v);
  }
  std::vector<std::thread> submitters;
  for (int j = 0; j < kJobs; ++j) {
    submitters.emplace_back([&, j] {
      parallel_for(
          kN, [&, j](std::int64_t i) { ++hits[j][static_cast<std::size_t>(i)]; },
          4);
    });
  }
  for (std::thread& t : submitters) t.join();
  for (int j = 0; j < kJobs; ++j)
    for (std::int64_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[j][static_cast<std::size_t>(i)].load(), 1)
          << "job " << j << " index " << i;
}

TEST(WorkStealingPoolTest, NestedParallelForIsExactUnderConcurrentJobs) {
  // Nested calls are stealable jobs now, not forced-inline loops; totals
  // must stay exact with two submitters nesting concurrently.
  constexpr int kSubmitters = 2;
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      parallel_for(
          32,
          [&](std::int64_t) {
            parallel_for(
                64, [&](std::int64_t) { total.fetch_add(1); }, 4);
          },
          4);
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(total.load(), kSubmitters * 32 * 64);
}

TEST(WorkStealingPoolTest, LoneJobFansOutAcrossWorkerThreads) {
  // One big job, idle workers available: chunks must execute on more than
  // one thread. Item 0 (run by the submitter, which walks chunks in
  // ascending order) blocks until other items have run — which can only
  // happen if workers stole them.
  const PoolStats before = parallel_pool_stats();
  std::atomic<std::int64_t> others{0};
  std::atomic<bool> timed_out{false};
  std::mutex mu;
  std::set<std::thread::id> tids;
  parallel_for(
      256,
      [&](std::int64_t i) {
        {
          std::lock_guard<std::mutex> lk(mu);
          tids.insert(std::this_thread::get_id());
        }
        if (i == 0) {
          auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
          while (others.load() < 32) {
            if (std::chrono::steady_clock::now() > deadline) {
              timed_out = true;
              break;
            }
            std::this_thread::yield();
          }
        } else {
          others.fetch_add(1);
        }
      },
      4, /*grain=*/1);
  EXPECT_FALSE(timed_out.load()) << "no worker stole chunks from the lone job";
  EXPECT_GT(tids.size(), 1u);
  // The job's own counter deltas: workers stole some of its 256 chunks,
  // and a chunk re-stolen from a thief's deque counts once, never more.
  const PoolStats after = parallel_pool_stats();
  const std::int64_t chunks = after.chunks - before.chunks;
  const std::int64_t stolen = after.chunks_stolen - before.chunks_stolen;
  EXPECT_EQ(chunks, 256);
  EXPECT_GT(stolen, 0);
  EXPECT_LE(stolen, chunks);
}

TEST(WorkStealingPoolTest, MaxThreadsScopeOfOneRunsInline) {
  std::mutex mu;
  std::set<std::thread::id> tids;
  ParallelMaxThreadsScope serial(1);
  parallel_for(
      512,
      [&](std::int64_t) {
        std::lock_guard<std::mutex> lk(mu);
        tids.insert(std::this_thread::get_id());
      },
      8);
  EXPECT_EQ(tids.size(), 1u);
  EXPECT_EQ(*tids.begin(), std::this_thread::get_id());
}

TEST(WorkStealingPoolTest, InlineScopeAppliesToNestedCallsToo) {
  // The cap is inherited by whatever thread runs a capped job's chunks,
  // so a request bounded to one thread stays on one thread even when its
  // body nests further parallel calls.
  std::mutex mu;
  std::set<std::thread::id> tids;
  ParallelInlineScope scope;
  parallel_for(16, [&](std::int64_t) {
    parallel_for(64, [&](std::int64_t) {
      std::lock_guard<std::mutex> lk(mu);
      tids.insert(std::this_thread::get_id());
    }, 8);
  }, 8);
  EXPECT_EQ(tids.size(), 1u);
}

TEST(WorkStealingPoolTest, CapBoundsConcurrentThreadsAcrossNesting) {
  // The cap bounds the scope's *concurrent* fan-out as a whole, not each
  // job separately: nested parallel calls inside a capped job's chunks
  // must not multiply the budget (N executors each submitting an N-slot
  // nested job would give ~N^2 concurrent threads). Executor slots churn
  // per chunk, so distinct thread ids over the run may exceed the cap —
  // the invariant is the high-water mark of simultaneous executors.
  std::atomic<int> active{0}, high_water{0};
  ParallelMaxThreadsScope budget(2);
  parallel_for(
      64,
      [&](std::int64_t) {
        parallel_for(
            32,
            [&](std::int64_t) {
              int cur = active.fetch_add(1) + 1;
              int seen = high_water.load();
              while (cur > seen && !high_water.compare_exchange_weak(seen, cur)) {
              }
              std::this_thread::yield();
              active.fetch_sub(1);
            },
            8);
      },
      8);
  EXPECT_LE(high_water.load(), 2);
}

TEST(WorkStealingPoolTest, TighterEnclosingCapWins) {
  std::mutex mu;
  std::set<std::thread::id> tids;
  ParallelMaxThreadsScope outer(1);
  {
    // An inner scope cannot widen the budget the outer scope imposed.
    ParallelMaxThreadsScope inner(8);
    parallel_for(
        256,
        [&](std::int64_t) {
          std::lock_guard<std::mutex> lk(mu);
          tids.insert(std::this_thread::get_id());
        },
        8);
  }
  EXPECT_EQ(tids.size(), 1u);
}

TEST(WorkStealingPoolTest, ZeroCapMeansUncappedNotSerial) {
  // 0 follows the API-wide "0 = default/uncapped" convention: the scope
  // is a no-op, it neither serializes nor widens an enclosing cap.
  std::mutex mu;
  std::set<std::thread::id> tids;
  {
    ParallelMaxThreadsScope outer(1);
    ParallelMaxThreadsScope noop(0);
    parallel_for(
        256,
        [&](std::int64_t) {
          std::lock_guard<std::mutex> lk(mu);
          tids.insert(std::this_thread::get_id());
        },
        8);
  }
  EXPECT_EQ(tids.size(), 1u);  // outer cap still in force

  // Alone, scope(0) leaves fan-out fully available: item 0 blocks until
  // stolen chunks run elsewhere, exactly as with no scope at all.
  std::atomic<std::int64_t> others{0};
  std::atomic<bool> timed_out{false};
  ParallelMaxThreadsScope uncapped(0);
  parallel_for(
      256,
      [&](std::int64_t i) {
        if (i == 0) {
          auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
          while (others.load() < 32) {
            if (std::chrono::steady_clock::now() > deadline) {
              timed_out = true;
              break;
            }
            std::this_thread::yield();
          }
        } else {
          others.fetch_add(1);
        }
      },
      4, /*grain=*/1);
  EXPECT_FALSE(timed_out.load());
}

TEST(WorkStealingPoolTest, ExceptionsRouteToTheirOwnSubmitter) {
  // Two concurrent jobs, one poisoned: only its submitter sees the throw,
  // and the healthy job still covers every index.
  std::atomic<std::int64_t> healthy{0};
  std::atomic<bool> threw_in_healthy{false}, threw_in_poisoned{false};
  std::thread poisoned([&] {
    try {
      parallel_for(
          2048,
          [](std::int64_t i) {
            if (i == 100) throw std::runtime_error("poison");
          },
          4);
    } catch (const std::runtime_error&) {
      threw_in_poisoned = true;
    }
  });
  std::thread ok([&] {
    try {
      parallel_for(
          2048, [&](std::int64_t) { healthy.fetch_add(1); }, 4);
    } catch (...) {
      threw_in_healthy = true;
    }
  });
  poisoned.join();
  ok.join();
  EXPECT_TRUE(threw_in_poisoned.load());
  EXPECT_FALSE(threw_in_healthy.load());
  EXPECT_EQ(healthy.load(), 2048);
}

TEST(WorkStealingPoolTest, ReduceBitIdenticalAcrossThreadCountsUnderLoad) {
  // Determinism is by construction — chunk boundaries and combine order
  // depend only on (n, grain) — and must hold while other jobs contend
  // for the same workers.
  auto reduce_at = [](int threads) {
    return parallel_reduce<double>(
        10000, 0.0, [](std::int64_t i, double& acc) { acc += 1.0 / (1.0 + i); },
        [](double& into, const double& from) { into += from; }, threads);
  };
  const double serial = reduce_at(1);
  std::atomic<bool> stop{false};
  std::thread noise([&] {
    while (!stop.load())
      parallel_for(512, [](std::int64_t) {}, 2);
  });
  for (int rep = 0; rep < 10; ++rep)
    for (int threads : {2, 4, 8}) EXPECT_EQ(serial, reduce_at(threads));
  stop = true;
  noise.join();
}

/// Full-pipeline determinism: the fingerprint hashes every
/// simulation-deterministic report field including output matrix bits.
TEST(WorkStealingPoolTest, InferenceFingerprintBitIdenticalAcrossThreadCounts) {
  DatasetSpec spec;
  spec.name = "pool";
  spec.tag = "PL";
  spec.vertices = 220;
  spec.edges = 880;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.h0_density = 0.3;
  spec.hidden_dim = 12;
  spec.degree_skew = 0.5;
  Dataset ds = generate_dataset(spec, 1, 7);
  Rng rng(11);
  GnnModel model = build_model(GnnModelKind::kGcn, ds.spec.feature_dim,
                               ds.spec.hidden_dim, ds.spec.num_classes, rng);
  CompiledProgram prog = compile(model, ds, u250_config());

  auto fingerprint_at = [&](int threads) {
    RuntimeOptions opt;
    opt.host_threads = threads;
    return run_compiled(prog, opt).deterministic_fingerprint();
  };
  const std::uint64_t golden = fingerprint_at(1);
  for (int threads : {2, 4, 8})
    EXPECT_EQ(golden, fingerprint_at(threads)) << threads << " threads";
}

}  // namespace
}  // namespace dynasparse
