// Unit tests: util/ (config, rng, prefix sums, math helpers, logging,
// blocking queue incl. the bounded/admission mode).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/blocking_queue.hpp"
#include "util/cancellation.hpp"
#include "util/config.hpp"
#include "util/fault_injection.hpp"
#include "util/keyed_future_cache.hpp"
#include "util/logging.hpp"
#include "util/math_util.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/prefix_sum.hpp"
#include "util/random.hpp"
#include "util/strict_parse.hpp"

namespace dynasparse {
namespace {

TEST(ConfigTest, DefaultsMatchPaperPlatform) {
  SimConfig cfg = u250_config();
  EXPECT_EQ(cfg.psys, 16);
  EXPECT_EQ(cfg.num_cores, 7);
  EXPECT_DOUBLE_EQ(cfg.core_clock_hz, 250.0e6);
  EXPECT_DOUBLE_EQ(cfg.soft_clock_hz, 370.0e6);
  EXPECT_DOUBLE_EQ(cfg.ddr_bandwidth_bytes_per_s, 77.0e9);
  EXPECT_TRUE(cfg.valid());
}

TEST(ConfigTest, DdrBytesPerCycle) {
  SimConfig cfg = u250_config();
  EXPECT_NEAR(cfg.ddr_bytes_per_cycle(), 77.0e9 / 250.0e6, 1e-9);
}

TEST(ConfigTest, MaxPartitionSizeFitsBuffer) {
  SimConfig cfg = u250_config();
  int n = cfg.max_partition_size();
  EXPECT_EQ(n, 720);  // largest psys-aligned square tile in a 2 MB buffer
  EXPECT_LE(static_cast<std::size_t>(n) * n * cfg.dense_elem_bytes, cfg.onchip_tile_bytes);
  EXPECT_EQ(n % cfg.psys, 0);
}

TEST(ConfigTest, MaxPartitionSizeIsMaximal) {
  SimConfig cfg = u250_config();
  cfg.onchip_tile_bytes = 300 * 300 * 4;  // not a psys-aligned square
  int n = cfg.max_partition_size();
  EXPECT_LE(static_cast<std::size_t>(n) * n * 4, cfg.onchip_tile_bytes);
  EXPECT_EQ(n % cfg.psys, 0);
  // The next psys multiple must overflow the buffer.
  std::size_t next = static_cast<std::size_t>(n + cfg.psys);
  EXPECT_GT(next * next * 4, cfg.onchip_tile_bytes);
}

TEST(ConfigTest, InvalidConfigsRejected) {
  SimConfig cfg;
  cfg.psys = 12;  // not a power of two
  EXPECT_FALSE(cfg.valid());
  cfg = SimConfig{};
  cfg.num_cores = 0;
  EXPECT_FALSE(cfg.valid());
  cfg = SimConfig{};
  cfg.ddr_bandwidth_bytes_per_s = -1.0;
  EXPECT_FALSE(cfg.valid());
  cfg = SimConfig{};
  cfg.onchip_tile_bytes = 4;  // smaller than one psys x psys tile
  EXPECT_FALSE(cfg.valid());
  cfg = SimConfig{};
  cfg.sparse_storage_threshold = 0.0;
  EXPECT_FALSE(cfg.valid());
}

TEST(ConfigTest, CycleConversions) {
  SimConfig cfg = u250_config();
  EXPECT_NEAR(cfg.cycles_to_ms(250e6), 1000.0, 1e-6);
  EXPECT_NEAR(cfg.soft_cycles_to_ms(370e6), 1000.0, 1e-6);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.uniform_int(0, 1 << 30) == b.uniform_int(0, 1 << 30)) ++same;
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, SampleWithoutReplacementDistinctAndInRange) {
  Rng rng(9);
  auto sample = rng.sample_without_replacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<std::int64_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (auto v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(9);
  auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::int64_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 10u);
  auto over = rng.sample_without_replacement(5, 50);
  EXPECT_EQ(over.size(), 5u);
}

TEST(RngTest, SampleApproximatelyUniform) {
  Rng rng(11);
  std::vector<int> counts(20, 0);
  for (int trial = 0; trial < 2000; ++trial)
    for (auto v : rng.sample_without_replacement(20, 5)) ++counts[static_cast<std::size_t>(v)];
  // Expected 500 per slot; allow generous slack.
  for (int c : counts) {
    EXPECT_GT(c, 350);
    EXPECT_LT(c, 650);
  }
}

TEST(PrefixSumTest, ExclusiveBasic) {
  std::vector<std::int64_t> in = {1, 2, 3, 4};
  auto out = exclusive_prefix_sum(in);
  EXPECT_EQ(out, (std::vector<std::int64_t>{0, 1, 3, 6}));
}

TEST(PrefixSumTest, InclusiveBasic) {
  std::vector<std::int64_t> in = {1, 2, 3, 4};
  auto out = inclusive_prefix_sum(in);
  EXPECT_EQ(out, (std::vector<std::int64_t>{1, 3, 6, 10}));
}

TEST(PrefixSumTest, EmptyInput) {
  EXPECT_TRUE(exclusive_prefix_sum({}).empty());
  EXPECT_TRUE(inclusive_prefix_sum({}).empty());
}

TEST(PrefixSumTest, NetworkStages) {
  EXPECT_EQ(prefix_network_stages(1), 0);
  EXPECT_EQ(prefix_network_stages(2), 1);
  EXPECT_EQ(prefix_network_stages(16), 4);
  EXPECT_EQ(prefix_network_stages(17), 5);
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div(1, 512), 1);
}

TEST(MathUtilTest, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(geometric_mean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_DOUBLE_EQ(geometric_mean({3.0}), 3.0);
}

TEST(MathUtilTest, Clamp) {
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(2.0, 0.0, 1.0), 1.0);
}

TEST(LoggingTest, LevelGate) {
  LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  log_info("should be dropped silently");
  set_log_level(before);
}

// ---- parallel primitives (work-stealing pool) -----------------------------
// Pool-specific behavior (concurrent jobs, stealing, caps, shutdown) is
// covered by tests/parallel_pool_test.cpp; these are the API contracts.

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h = 0;
    parallel_for(257, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; },
                 threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, EmptyAndNegativeAreNoops) {
  parallel_for(0, [](std::int64_t) { FAIL(); });
  parallel_for(-5, [](std::int64_t) { FAIL(); });
}

TEST(ParallelForTest, PropagatesException) {
  EXPECT_THROW(
      parallel_for(
          100, [](std::int64_t i) { if (i == 37) throw std::runtime_error("boom"); },
          4),
      std::runtime_error);
}

TEST(ParallelForTest, StopsStartingWorkAfterFailure) {
  // After the failure is recorded no further item may *start*; items
  // numbered after the failing one in the same chunk must be skipped.
  std::atomic<std::int64_t> started{0};
  try {
    parallel_for(
        1 << 20,
        [&](std::int64_t i) {
          if (i == 0) throw std::runtime_error("early");
          ++started;
        },
        2);
    FAIL() << "exception did not propagate";
  } catch (const std::runtime_error&) {
  }
  // Not every remaining index ran: cancellation cut the sweep short.
  EXPECT_LT(started.load(), (1 << 20) - 1);
}

TEST(ParallelForTest, NestedCallsAreExact) {
  // Nested calls become stealable pool jobs (work-stealing pool, PR 3);
  // every index must still run exactly once whatever thread executes it.
  std::atomic<int> total{0};
  parallel_for(
      8,
      [&](std::int64_t) {
        parallel_for(16, [&](std::int64_t) { ++total; }, 4);
      },
      4);
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelReduceTest, SumsDeterministicallyAcrossThreadCounts) {
  const std::int64_t n = 1000;
  auto run = [&](int threads) {
    return parallel_reduce<double>(
        n, 0.0, [](std::int64_t i, double& acc) { acc += 1.0 / (1.0 + i); },
        [](double& into, const double& from) { into += from; }, threads);
  };
  double serial = run(1);
  // Bit-identical regardless of thread count: chunking depends only on n.
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelReduceTest, EmptyReturnsIdentity) {
  double r = parallel_reduce<double>(
      0, 42.0, [](std::int64_t, double&) {},
      [](double& into, const double& from) { into += from; });
  EXPECT_DOUBLE_EQ(r, 42.0);
}

TEST(ParallelForRangeTest, ChunksPartitionTheRange) {
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h = 0;
  parallel_for_range(
      100,
      [&](std::int64_t begin, std::int64_t end) {
        EXPECT_LT(begin, end);
        for (std::int64_t i = begin; i < end; ++i)
          ++hits[static_cast<std::size_t>(i)];
      },
      4, 7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

using IntQueue = BlockingQueue<int>;

TEST(BlockingQueueTest, UnboundedPushNeverRefusesUntilClosed) {
  IntQueue q;  // capacity 0 = unbounded
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.try_push(100), IntQueue::PushResult::kOk);
  EXPECT_EQ(q.size(), 101u);
  q.close();
  EXPECT_FALSE(q.push(0));
  EXPECT_EQ(q.try_push(0), IntQueue::PushResult::kClosed);
  // Queued items remain poppable after close, in FIFO order.
  int out = -1;
  for (int i = 0; i <= 100; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.pop(out));  // closed and drained
}

TEST(BlockingQueueTest, TryPushDistinguishesFullFromClosed) {
  IntQueue q(2);
  EXPECT_EQ(q.try_push(1), IntQueue::PushResult::kOk);
  EXPECT_EQ(q.try_push(2), IntQueue::PushResult::kOk);
  EXPECT_EQ(q.try_push(3), IntQueue::PushResult::kFull);
  int out = 0;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(q.try_push(3), IntQueue::PushResult::kOk);  // space freed
  q.close();
  EXPECT_EQ(q.try_push(4), IntQueue::PushResult::kClosed);
}

TEST(BlockingQueueTest, BoundedPushBlocksUntilPopMakesRoom) {
  IntQueue q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks until the pop below
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(pushed.load());  // still blocked on the full queue
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
}

TEST(BlockingQueueTest, CloseWakesBlockedBoundedPush) {
  // The close()/bounded-push contract: a producer blocked on a full
  // queue is woken by close() and returns false without enqueueing — the
  // item never sneaks into a closing queue. This is what lets
  // InferenceService::shutdown() compose with the kBlock admission
  // policy.
  IntQueue q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<int> result{-1};
  std::thread producer([&] { result = q.push(2) ? 1 : 0; });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.close();
  producer.join();
  EXPECT_EQ(result.load(), 0);
  int out = 0;
  ASSERT_TRUE(q.pop(out));  // the accepted item drains...
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(q.pop(out));  // ...and the refused one was never queued
}

TEST(BlockingQueueTest, PushShedOldestEvictsInFifoOrderAtomically) {
  IntQueue q(2);
  std::vector<int> shed;
  EXPECT_TRUE(q.push_shed_oldest(1, shed));
  EXPECT_TRUE(q.push_shed_oldest(2, shed));
  EXPECT_TRUE(shed.empty());
  EXPECT_TRUE(q.push_shed_oldest(3, shed));  // sheds 1
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], 1);
  int out = 0;
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 3);
  q.close();
  shed.clear();
  EXPECT_FALSE(q.push_shed_oldest(4, shed));  // closed: refuse, shed nothing
  EXPECT_TRUE(shed.empty());
}

TEST(BlockingQueueTest, ManyProducersConsumersBoundedDeliverEveryItemOnce) {
  IntQueue q(3);
  constexpr int kProducers = 3, kConsumers = 3, kPerProducer = 50;
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  for (auto& s : seen) s = 0;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        EXPECT_TRUE(q.push(p * kPerProducer + i));
    });
  std::atomic<int> consumed{0};
  for (int c = 0; c < kConsumers; ++c)
    threads.emplace_back([&] {
      int v = 0;
      while (q.pop(v)) {
        ++seen[static_cast<std::size_t>(v)];
        ++consumed;
      }
    });
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();  // producers done; consumers drain and exit
  for (int c = 0; c < kConsumers; ++c)
    threads[static_cast<std::size_t>(kProducers + c)].join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

// ---- strict parsing (util/strict_parse.hpp) -------------------------------

TEST(StrictParseTest, WholeTokenRequired) {
  EXPECT_EQ(strict_stoi("16"), 16);
  EXPECT_EQ(strict_stoi("-4"), -4);
  EXPECT_EQ(strict_stoll("123456789012"), 123456789012ll);
  EXPECT_EQ(strict_stoull("2023"), 2023ull);
  EXPECT_DOUBLE_EQ(strict_stod("0.5"), 0.5);
  // std::stoi alone accepts all of these as their numeric prefix.
  EXPECT_THROW(strict_stoi("16abc"), std::invalid_argument);
  EXPECT_THROW(strict_stoi("4x2"), std::invalid_argument);
  EXPECT_THROW(strict_stoll("12 "), std::invalid_argument);
  EXPECT_THROW(strict_stod("0.5pt"), std::invalid_argument);
  EXPECT_THROW(strict_stoi("abc"), std::invalid_argument);
  EXPECT_THROW(strict_stoi(""), std::invalid_argument);
  EXPECT_THROW(strict_stoi("999999999999999999999"), std::out_of_range);
}

TEST(StrictParseTest, UnsignedRejectsNegativeInsteadOfWrapping) {
  // std::stoull("-1") silently yields 2^64 - 1.
  EXPECT_THROW(strict_stoull("-1"), std::invalid_argument);
  EXPECT_THROW(strict_stoull(" -7"), std::invalid_argument);
  EXPECT_EQ(strict_stoull("18446744073709551615"), ~0ull);
}

TEST(ParseEnvIntTest, UnsetAndEmptyFallBackSilently) {
  unsetenv("DYNASPARSE_TEST_KNOB");
  EXPECT_EQ(parse_env_int("DYNASPARSE_TEST_KNOB", 42, 0, 100), 42);
  setenv("DYNASPARSE_TEST_KNOB", "", 1);
  EXPECT_EQ(parse_env_int("DYNASPARSE_TEST_KNOB", 42, 0, 100), 42);
  unsetenv("DYNASPARSE_TEST_KNOB");
}

TEST(ParseEnvIntTest, ValidValuesParsedMalformedFallBackDeterministically) {
  setenv("DYNASPARSE_TEST_KNOB", "17", 1);
  EXPECT_EQ(parse_env_int("DYNASPARSE_TEST_KNOB", 42, 0, 100), 17);
  // Malformed or out-of-range: logged and the default kept — the knob
  // never silently misparses ("16abc" is not 16) or crashes.
  for (const char* bad : {"16abc", "foo", "-1", "1e3", "101"}) {
    setenv("DYNASPARSE_TEST_KNOB", bad, 1);
    EXPECT_EQ(parse_env_int("DYNASPARSE_TEST_KNOB", 42, 0, 100), 42) << bad;
  }
  unsetenv("DYNASPARSE_TEST_KNOB");
}

TEST(ParseDurationTest, BareMillisecondsSuffixesAndFractions) {
  EXPECT_EQ(parse_duration_ms("250"), 250);
  EXPECT_EQ(parse_duration_ms("250ms"), 250);
  EXPECT_EQ(parse_duration_ms("2s"), 2000);
  EXPECT_EQ(parse_duration_ms("1.5s"), 1500);
  EXPECT_EQ(parse_duration_ms("0"), 0);
  EXPECT_EQ(parse_duration_ms("0.25s"), 250);
  // Whole-token discipline: suffix typos and trailing junk are errors,
  // not numeric prefixes.
  EXPECT_THROW(parse_duration_ms(""), std::invalid_argument);
  EXPECT_THROW(parse_duration_ms("250m"), std::invalid_argument);
  EXPECT_THROW(parse_duration_ms("250 ms"), std::invalid_argument);
  EXPECT_THROW(parse_duration_ms("ms"), std::invalid_argument);
  EXPECT_THROW(parse_duration_ms("abc"), std::invalid_argument);
  EXPECT_THROW(parse_duration_ms("-5"), std::invalid_argument);
  EXPECT_THROW(parse_duration_ms("-1s"), std::invalid_argument);
  // Fractional milliseconds don't exist in this API.
  EXPECT_THROW(parse_duration_ms("1.5"), std::invalid_argument);
  EXPECT_THROW(parse_duration_ms("1.5ms"), std::invalid_argument);
}

TEST(ParseSizeTest, SuffixesAndCase) {
  EXPECT_EQ(parse_size_bytes("1024"), 1024u);
  EXPECT_EQ(parse_size_bytes("512b"), 512u);
  EXPECT_EQ(parse_size_bytes("4k"), std::size_t{4} << 10);
  EXPECT_EQ(parse_size_bytes("4kb"), std::size_t{4} << 10);
  EXPECT_EQ(parse_size_bytes("512m"), std::size_t{512} << 20);
  EXPECT_EQ(parse_size_bytes("512MB"), std::size_t{512} << 20);
  EXPECT_EQ(parse_size_bytes("2g"), std::size_t{2} << 30);
  EXPECT_EQ(parse_size_bytes("2Gb"), std::size_t{2} << 30);
  EXPECT_EQ(parse_size_bytes("0"), 0u);
}

TEST(ParseSizeTest, WholeTokenDisciplineAndOverflow) {
  // Trailing garbage after the suffix is an error, not a numeric prefix.
  EXPECT_THROW(parse_size_bytes("512mx"), std::invalid_argument);
  EXPECT_THROW(parse_size_bytes("512 m"), std::invalid_argument);
  EXPECT_THROW(parse_size_bytes("m"), std::invalid_argument);
  EXPECT_THROW(parse_size_bytes(""), std::invalid_argument);
  EXPECT_THROW(parse_size_bytes("-1"), std::invalid_argument);
  EXPECT_THROW(parse_size_bytes("1.5g"), std::invalid_argument);
  // Multiplying past SIZE_MAX must throw, not wrap.
  EXPECT_THROW(parse_size_bytes("18446744073709551615k"), std::out_of_range);
  EXPECT_THROW(parse_size_bytes("99999999999999999999"), std::out_of_range);
}

TEST(FaultSpecTest, ParseGrammarAndRejections) {
  EXPECT_TRUE(parse_fault_spec("").empty());

  FaultSpec spec = parse_fault_spec(
      "queue.delay:0.3,compile.alloc:0.1:5,seed:42");
  EXPECT_EQ(spec.seed, 42u);
  ASSERT_EQ(spec.sites.size(), 2u);
  EXPECT_EQ(spec.sites[0].site, "queue.delay");
  EXPECT_DOUBLE_EQ(spec.sites[0].probability, 0.3);
  EXPECT_EQ(spec.sites[0].count, -1);
  EXPECT_EQ(spec.sites[1].site, "compile.alloc");
  EXPECT_EQ(spec.sites[1].count, 5);

  // A typo'd site name must be loud, never a silently-unarmed chaos run.
  EXPECT_THROW(parse_fault_spec("compile.allocx:0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("compile.alloc"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("compile.alloc:1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("compile.alloc:-0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("compile.alloc:0.5:-2"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("compile.alloc:0.5:2x"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("seed:abc"), std::invalid_argument);

  // Every published site constant parses.
  for (const std::string& site : fault_site_names())
    EXPECT_NO_THROW(parse_fault_spec(site + ":0.5")) << site;
}

TEST(FaultInjectorTest, DeterministicPerSiteAndCountBounded) {
  FaultInjector inj;
  inj.arm(parse_fault_spec("queue.delay:0.5,seed:7"));
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(inj.should_inject("queue.delay"));

  // Re-arming with the same spec restarts the same deterministic draw
  // sequence — a chaos failure reproduces from its seed alone.
  inj.arm(parse_fault_spec("queue.delay:0.5,seed:7"));
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(inj.should_inject("queue.delay"), first[i]) << "draw " << i;
  FaultSiteStats st = inj.site_stats("queue.delay");
  EXPECT_EQ(st.evaluations, 64);
  EXPECT_GT(st.injected, 0);   // p=0.5 over 64 draws
  EXPECT_LT(st.injected, 64);

  // Sites not in the spec never fire and are not counted.
  EXPECT_FALSE(inj.should_inject("compile.alloc"));
  EXPECT_EQ(inj.site_stats("compile.alloc").evaluations, 0);

  // The count budget caps injections even at probability 1.
  inj.arm(parse_fault_spec("compile.alloc:1:3"));
  int fired = 0;
  for (int i = 0; i < 10; ++i) fired += inj.should_inject("compile.alloc") ? 1 : 0;
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(inj.site_stats("compile.alloc").evaluations, 10);

  // pause()/resume() suspend without losing RNG position or arming.
  inj.arm(parse_fault_spec("compile.alloc:1"));
  inj.pause();
  EXPECT_FALSE(inj.should_inject("compile.alloc"));
  inj.resume();
  EXPECT_TRUE(inj.should_inject("compile.alloc"));

  inj.disarm();
  EXPECT_FALSE(inj.armed());
  EXPECT_FALSE(inj.should_inject("compile.alloc"));
}

TEST(CancellationTest, TokensObserveCancelAndDeadline) {
  // Default token: never aborts, costs nothing.
  CancellationToken none;
  EXPECT_FALSE(none.cancelled());
  EXPECT_FALSE(none.expired());
  EXPECT_FALSE(none.aborted());
  EXPECT_FALSE(none.has_deadline());
  EXPECT_NO_THROW(none.check());

  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_FALSE(token.aborted());
  EXPECT_NO_THROW(token.check());
  source.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.aborted());
  EXPECT_THROW(token.check(), CancelledError);

  // Deadline-carrying source: expired() flips once the deadline passes.
  CancellationSource past(std::chrono::steady_clock::now() -
                          std::chrono::milliseconds(1));
  EXPECT_TRUE(past.token().has_deadline());
  EXPECT_TRUE(past.token().expired());
  EXPECT_THROW(past.token().check(), DeadlineExceededError);

  CancellationSource future(std::chrono::steady_clock::now() +
                            std::chrono::hours(1));
  EXPECT_FALSE(future.token().expired());
  EXPECT_NO_THROW(future.token().check());
  // cancel() wins over an expired deadline (checked first).
  future.cancel();
  EXPECT_THROW(future.token().check(), CancelledError);

  // The taxonomy: both abort reasons share RequestAbortedError.
  EXPECT_THROW(
      { throw CancelledError("c"); }, RequestAbortedError);
  EXPECT_THROW(
      { throw DeadlineExceededError("d"); }, RequestAbortedError);
}

TEST(KeyedFutureCacheTest, FailedFillErasesBeforePublishSoRetrySucceeds) {
  // Regression: a factory that throws must erase its entry BEFORE the
  // exception reaches any waiter, so a later (or woken) caller re-runs
  // the factory instead of observing the cached failure forever.
  KeyedFutureCache<int, int> cache(4);
  EXPECT_THROW(cache.get_or_make(1, []() -> std::shared_ptr<const int> {
    throw std::runtime_error("fill failed");
  }),
               std::runtime_error);
  std::shared_ptr<const int> v =
      cache.get_or_make(1, [] { return std::make_shared<const int>(7); });
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 7);
  EXPECT_EQ(cache.stats().misses, 2);  // both calls ran a factory
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(KeyedFutureCacheTest, AbortedLeaderHandsOffToJoiner) {
  // A leader whose factory aborts cooperatively must not propagate the
  // abort to joined waiters: each retries under its own factory. The
  // joiner here blocks on the leader's in-flight future, the leader
  // aborts, and the joiner's retry produces the value.
  KeyedFutureCache<int, int> cache(4);
  std::atomic<bool> leader_entered{false};
  std::atomic<bool> joiner_joined{false};

  std::thread leader([&] {
    EXPECT_THROW(
        cache.get_or_make(1,
                          [&]() -> std::shared_ptr<const int> {
                            leader_entered = true;
                            // Hold the entry in flight until the joiner
                            // has actually joined it.
                            while (!joiner_joined)
                              std::this_thread::yield();
                            throw CancelledError("leader cancelled");
                          }),
        CancelledError);
  });
  while (!leader_entered) std::this_thread::yield();

  std::thread joiner([&] {
    std::shared_ptr<const int> v = cache.get_or_make(1, [&] {
      return std::make_shared<const int>(42);
    });
    ASSERT_TRUE(v);
    EXPECT_EQ(*v, 42);
  });
  // The joiner must be inside fut.get() before the leader throws; the
  // inflight_joins stat flips exactly as it joins.
  while (cache.stats().inflight_joins == 0) std::this_thread::yield();
  joiner_joined = true;
  leader.join();
  joiner.join();

  KeyedCacheStats s = cache.stats();
  EXPECT_EQ(s.aborted_retries, 1);
  EXPECT_EQ(s.misses, 2);  // leader's run + joiner's retry
  EXPECT_EQ(s.entries, 1);
  std::shared_ptr<const int> v = cache.peek(1);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 42);
}

TEST(KeyedFutureCacheTest, OverBoundEntriesLeaveOnTheNextHitOnceReleased) {
  // Key 2 fills while key 1 is held, so the fill's pass must skip key 1
  // and the cache stays one over its bound. Once both holders let go, a
  // hit alone (no further miss) brings the cache back under the bound.
  KeyedFutureCache<int, int> cache(1);
  auto make = [](int v) {
    return [v] { return std::make_shared<const int>(v); };
  };
  std::shared_ptr<const int> one = cache.get_or_make(1, make(1));
  std::shared_ptr<const int> two = cache.get_or_make(2, make(2));
  EXPECT_EQ(cache.stats().entries, 2);
  one.reset();
  two.reset();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(*cache.get_or_make(2, make(-1)), 2);

  KeyedCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.hits, 3);
  EXPECT_EQ(cache.peek(1), nullptr);
}

TEST(MetricsTest, CountersPrintAsIntegersAndJsonHasNoTrailingComma) {
  Metrics m;
  m.counter("pool_bytes", 30207552);
  m.gauge("batch_mean_occupancy", 3.75);
  m.counter("cancelled", 0);
  EXPECT_EQ(m.render_kv(),
            "pool_bytes=30207552 batch_mean_occupancy=3.75 cancelled=0");
  EXPECT_EQ(m.render_json(),
            "{\n"
            "  \"pool_bytes\": 30207552,\n"
            "  \"batch_mean_occupancy\": 3.75,\n"
            "  \"cancelled\": 0\n"
            "}\n");

  Metrics all;
  all.counter("port", 7411);
  all.append(m);
  ASSERT_EQ(all.list().size(), 4u);
  EXPECT_EQ(all.list()[0].name, "port");
  EXPECT_EQ(all.list()[3].name, "cancelled");
  EXPECT_EQ(Metrics().render_kv(), "");
  EXPECT_EQ(Metrics().render_json(), "{\n}\n");
}

}  // namespace
}  // namespace dynasparse
