// InferenceService tests: batched results bit-identical to sequential
// runs, compilation-cache accounting (hits, in-flight dedup, LRU
// eviction that never drops a held program), failure isolation,
// race-freedom under concurrent submitters, signed input handles (one
// shared signature per input, raced first use), result memoization
// (ResultKey sensitivity, hits that skip execution, LRU by count and by
// the memory budget's bytes), the default budget limit, and bounded
// admission control (reject fail-fast, try_submit, shed-oldest). The concurrency tests
// force >1 worker regardless of the host's core count and are part of
// the CI ThreadSanitizer job; the randomized interleaving soak lives in
// tests/service_stress_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <variant>

#include "core/engine.hpp"
#include "service/inference_service.hpp"
#include "service/request_stream.hpp"
#include "service_counters.hpp"
#include "util/fault_injection.hpp"
#include "util/parallel.hpp"

namespace dynasparse {
namespace {

/// Small synthetic dataset so each request costs milliseconds.
Dataset small_dataset(std::uint64_t seed, std::int64_t vertices = 150,
                      double h0_density = 0.3) {
  DatasetSpec spec;
  spec.name = "svc";
  spec.tag = "SV" + std::to_string(seed % 100);
  spec.vertices = vertices;
  spec.edges = vertices * 4;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.h0_density = h0_density;
  spec.hidden_dim = 8;
  spec.degree_skew = 0.5;
  return generate_dataset(spec, 1, seed);
}

ServiceRequest make_request(std::uint64_t seed, GnnModelKind kind,
                            MappingStrategy strategy = MappingStrategy::kDynamic) {
  Dataset ds = small_dataset(seed);
  Rng rng(seed + 1);
  GnnModel model = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                               ds.spec.num_classes, rng);
  EngineOptions options;
  options.runtime.strategy = strategy;
  return ServiceRequest::own(std::move(model), std::move(ds), options);
}

/// The pre-service reference: compile + execute on the calling thread.
InferenceReport sequential_reference(const ServiceRequest& req) {
  CompiledProgram prog = compile(*req.model, *req.dataset, req.options.config);
  InferenceReport rep = run_compiled(prog, req.options.runtime);
  rep.dataset_tag = req.dataset->spec.tag;
  return rep;
}

TEST(ServiceTest, BatchBitIdenticalToSequential) {
  std::vector<ServiceRequest> requests;
  for (std::uint64_t seed : {11, 12, 13}) {
    requests.push_back(make_request(seed, GnnModelKind::kGcn));
    requests.push_back(make_request(seed, GnnModelKind::kSage));
    requests.push_back(make_request(seed, GnnModelKind::kGin, MappingStrategy::kStatic1));
  }

  std::vector<InferenceReport> expected;
  for (const ServiceRequest& req : requests) expected.push_back(sequential_reference(req));

  ServiceOptions opts;
  opts.workers = 4;  // force multi-worker even on a 1-core host
  opts.cache_capacity = 16;
  InferenceService service(opts);
  std::vector<InferenceReport> got = service.run_batch(requests);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].deterministic_fingerprint(), expected[i].deterministic_fingerprint())
        << "request " << i;
    // Spot-check the headline fields behind the fingerprint.
    EXPECT_EQ(got[i].latency_ms, expected[i].latency_ms) << "request " << i;
    EXPECT_EQ(got[i].execution.exec_cycles, expected[i].execution.exec_cycles);
    EXPECT_EQ(got[i].execution.stats.pairs, expected[i].execution.stats.pairs);
    EXPECT_EQ(DenseMatrix::max_abs_diff(got[i].execution.output.to_dense(),
                                        expected[i].execution.output.to_dense()),
              0.0f);
  }
  testing::expect_counters_add_up(service,
                                  static_cast<std::int64_t>(got.size()));
}

TEST(ServiceTest, CacheCountsHitsAcrossContentIdenticalRequests) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.cache_capacity = 8;
  InferenceService service(opts);

  // Three unique contents, each materialized independently three times:
  // content hashing must collapse them to three compilations.
  std::vector<ServiceRequest> requests;
  for (int repeat = 0; repeat < 3; ++repeat)
    for (std::uint64_t seed : {21, 22, 23})
      requests.push_back(make_request(seed, GnnModelKind::kGcn));
  service.run_batch(requests);

  CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.hits, 6);
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.evictions, 0);

  // A second batch of the same contents is all hits.
  std::vector<ServiceRequest> again;
  for (std::uint64_t seed : {21, 22, 23})
    again.push_back(make_request(seed, GnnModelKind::kGcn));
  service.run_batch(again);
  stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.hits, 9);
  testing::expect_counters_add_up(service, 12);
}

TEST(ServiceTest, InFlightCompilationsDeduplicate) {
  ServiceOptions opts;
  opts.workers = 4;
  opts.cache_capacity = 8;
  InferenceService service(opts);

  // Four identical requests hit a cold cache at once: exactly one compile.
  std::vector<ServiceRequest> requests;
  for (int i = 0; i < 4; ++i) requests.push_back(make_request(31, GnnModelKind::kSage));
  std::vector<InferenceReport> reports = service.run_batch(requests);

  CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 3);
  for (const InferenceReport& rep : reports)
    EXPECT_EQ(rep.deterministic_fingerprint(), reports[0].deterministic_fingerprint());
}

TEST(ServiceTest, LruEvictsLeastRecentlyUsed) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.cache_capacity = 2;
  InferenceService service(opts);

  auto run_seed = [&](std::uint64_t seed) {
    std::vector<ServiceRequest> one;
    one.push_back(make_request(seed, GnnModelKind::kGcn));
    service.run_batch(std::move(one));
  };
  run_seed(41);  // cache: {41}
  run_seed(42);  // cache: {41, 42}
  run_seed(43);  // evicts 41 -> {42, 43}
  CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.entries, 2);

  run_seed(41);  // miss again: 41 was evicted
  EXPECT_EQ(service.cache_stats().misses, 4);
  run_seed(43);  // still resident: hit
  EXPECT_EQ(service.cache_stats().hits, 1);
}

TEST(ServiceTest, CompileCacheNeverEvictsAHeldProgram) {
  // Capacity 1 while this test still holds the first program: compiling
  // a second content must not evict it — that would free nothing and
  // make the next request for it compile a second copy.
  const ServiceRequest a = make_request(61, GnnModelKind::kGcn);
  const ServiceRequest b = make_request(62, GnnModelKind::kGcn);
  const ServiceRequest c = make_request(63, GnnModelKind::kGcn);
  CompilationCache cache(1);
  auto get = [&](const ServiceRequest& r) {
    return cache.get_or_compile(
        make_compile_key(*r.model, *r.dataset, r.options.config), *r.model,
        *r.dataset, r.options.config);
  };
  auto held = get(a);
  (void)get(b);
  auto again = get(a);
  EXPECT_EQ(again.get(), held.get());  // a hit on the very same program
  CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.hits, 1);
  EXPECT_GT(s.pinned_skips, 0);

  // Released, it is evicted by the next insert like any other entry.
  held.reset();
  again.reset();
  (void)get(c);
  EXPECT_EQ(cache.stats().entries, 1);
  (void)get(a);
  EXPECT_EQ(cache.stats().misses, 4);  // evicted, so compiled again
}

TEST(ServiceTest, ConcurrentSubmittersAreRaceFree) {
  ServiceOptions opts;
  opts.workers = 4;
  opts.cache_capacity = 4;
  InferenceService service(opts);

  // Expected fingerprints for the two request contents.
  ServiceRequest a = make_request(51, GnnModelKind::kGcn);
  ServiceRequest b = make_request(52, GnnModelKind::kGin);
  const std::uint64_t fp_a = sequential_reference(a).deterministic_fingerprint();
  const std::uint64_t fp_b = sequential_reference(b).deterministic_fingerprint();

  constexpr int kSubmitters = 4, kPerThread = 4;
  std::vector<std::thread> submitters;
  std::vector<std::uint64_t> fingerprints(kSubmitters * kPerThread, 0);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        bool use_a = (t + i) % 2 == 0;
        RequestId id = service.submit(use_a ? a : b);
        while (!service.done(id)) std::this_thread::yield();
        std::uint64_t handed_out = 0;
        InferenceReport rep = service.wait(id, nullptr, &handed_out);
        fingerprints[static_cast<std::size_t>(t * kPerThread + i)] =
            rep.deterministic_fingerprint();
        EXPECT_EQ(handed_out, rep.deterministic_fingerprint());
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  for (int t = 0; t < kSubmitters; ++t)
    for (int i = 0; i < kPerThread; ++i) {
      bool use_a = (t + i) % 2 == 0;
      EXPECT_EQ(fingerprints[static_cast<std::size_t>(t * kPerThread + i)],
                use_a ? fp_a : fp_b)
          << "submitter " << t << " request " << i;
    }
  // Two unique contents -> exactly two compilations, whatever the
  // interleaving.
  EXPECT_EQ(service.cache_stats().misses, 2);
  testing::expect_counters_add_up(service, kSubmitters * kPerThread);
}

TEST(ServiceTest, FailedRequestPropagatesAndServiceKeepsServing) {
  ServiceOptions opts;
  opts.workers = 2;
  InferenceService service(opts);

  // Model whose in_dim disagrees with the dataset: compile() throws.
  Dataset ds = small_dataset(61);
  Rng rng(62);
  GnnModel bad = build_model(GnnModelKind::kGcn, ds.spec.feature_dim + 1,
                             ds.spec.hidden_dim, ds.spec.num_classes, rng);
  RequestId bad_id = service.submit(ServiceRequest::own(std::move(bad), ds));
  // Asynchronous failures surface through the closed taxonomy: the
  // worker wraps the compile error (std::invalid_argument here) in
  // ExecutionError so wait()'s throw-set stays enumerable.
  EXPECT_THROW(service.wait(bad_id), ExecutionError);

  // The failure is isolated: the next request succeeds.
  RequestId good_id = service.submit(make_request(61, GnnModelKind::kGcn));
  EXPECT_NO_THROW(service.wait(good_id));

  // run_batch surfaces the failure after completing the good requests.
  std::vector<ServiceRequest> mixed;
  mixed.push_back(make_request(63, GnnModelKind::kGcn));
  Rng rng2(64);
  GnnModel bad2 = build_model(GnnModelKind::kGcn, ds.spec.feature_dim + 2,
                              ds.spec.hidden_dim, ds.spec.num_classes, rng2);
  mixed.push_back(ServiceRequest::own(std::move(bad2), small_dataset(61)));
  EXPECT_THROW(service.run_batch(std::move(mixed)), ExecutionError);
  EXPECT_EQ(service.robustness_stats().execution_failures, 2);

  // The synchronous run_one path stays unwrapped: the caller holds the
  // stack, so the original exception type is the most useful one.
  Rng rng3(65);
  GnnModel bad3 = build_model(GnnModelKind::kGcn, ds.spec.feature_dim + 3,
                              ds.spec.hidden_dim, ds.spec.num_classes, rng3);
  EXPECT_THROW(service.run_one(bad3, small_dataset(61)), std::invalid_argument);
}

TEST(ServiceTest, RequestLifecycleAndValidation) {
  ServiceOptions opts;
  opts.workers = 1;
  InferenceService service(opts);

  EXPECT_THROW(service.submit(ServiceRequest{}), std::invalid_argument);
  EXPECT_THROW(service.state(999), std::invalid_argument);

  RequestId id = service.submit(make_request(71, GnnModelKind::kSgc));
  (void)service.wait(id);
  // A consumed id is unknown afterwards.
  EXPECT_THROW(service.state(id), std::invalid_argument);
  EXPECT_THROW(service.wait(id), std::invalid_argument);
}

TEST(ServiceTest, RunInferenceRoutesThroughProcessCache) {
  Dataset ds = small_dataset(81);
  Rng rng(82);
  GnnModel model = build_model(GnnModelKind::kGcn, ds.spec.feature_dim,
                               ds.spec.hidden_dim, ds.spec.num_classes, rng);
  CacheStats before = InferenceService::process_default().cache_stats();
  InferenceReport first = run_inference(model, ds, {});
  InferenceReport second = run_inference(model, ds, {});
  CacheStats after = InferenceService::process_default().cache_stats();

  EXPECT_EQ(first.deterministic_fingerprint(), second.deterministic_fingerprint());
  EXPECT_EQ(after.misses - before.misses, 1);
  EXPECT_GE(after.hits - before.hits, 1);
}

TEST(ServiceTest, SignatureSensitivity) {
  ServiceRequest base = make_request(91, GnnModelKind::kGcn);
  CompileKey key = make_compile_key(*base.model, *base.dataset,
                                    base.options.config);

  // Same content rebuilt from scratch: identical key.
  ServiceRequest rebuilt = make_request(91, GnnModelKind::kGcn);
  EXPECT_EQ(key, make_compile_key(*rebuilt.model, *rebuilt.dataset,
                                  rebuilt.options.config));

  // One weight bit changes the model signature.
  GnnModel tweaked = *base.model;
  tweaked.weights[0].at(0, 0) += 1.0f;
  EXPECT_NE(key.model, model_signature(tweaked));

  // One feature nonzero changes the dataset signature.
  Dataset ds2 = *base.dataset;
  ds2.features.entries()[0].value += 1.0f;
  EXPECT_NE(key.dataset, dataset_signature(ds2));

  // Any config field change changes the config signature.
  SimConfig cfg = base.options.config;
  cfg.psys *= 2;
  EXPECT_NE(key.config, config_signature(cfg));
}

TEST(ServiceTest, SignedHandlesHashOnceAndShareTheSignature) {
  // Ground truth: a handle's signature is the full-content hash of the
  // value it holds, and a request's compile key is make_compile_key's.
  const ServiceRequest req = make_request(92, GnnModelKind::kGcn);
  EXPECT_EQ(req.model.signature(), model_signature(*req.model));
  EXPECT_EQ(req.dataset.signature(), dataset_signature(*req.dataset));
  EXPECT_EQ(req.compile_key(),
            make_compile_key(*req.model, *req.dataset, req.options.config));

  // A copy shares the value and its signature.
  const Signed<Dataset> copy = req.dataset;
  EXPECT_EQ(&*copy, &*req.dataset);
  EXPECT_EQ(copy.signature(), req.dataset.signature());

  // Eight threads race the first signature() call of one cold handle, each
  // through its own copy: every one reads the full-content hash.
  const ServiceRequest cold = make_request(93, GnnModelKind::kSage);
  const std::uint64_t expected = model_signature(*cold.model);
  std::vector<std::uint64_t> seen(8, 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> racers;
  for (std::size_t t = 0; t < seen.size(); ++t)
    racers.emplace_back([&seen, &go, t, handle = cold.model] {
      while (!go.load()) std::this_thread::yield();
      seen[t] = handle.signature();
    });
  go = true;
  for (std::thread& t : racers) t.join();
  for (std::size_t t = 0; t < seen.size(); ++t)
    EXPECT_EQ(seen[t], expected) << "thread " << t;

  // A default handle is null, and a request without inputs is refused.
  const ServiceRequest empty;
  EXPECT_FALSE(empty.model);
  EXPECT_FALSE(empty.dataset);
  ServiceOptions opts;
  opts.workers = 1;
  InferenceService service(opts);
  EXPECT_THROW(service.submit(empty), std::invalid_argument);
}

TEST(ServiceTest, RuntimeOptionsSignatureFlipsOnEveryField) {
  // Property: flipping any single RuntimeOptions field changes
  // runtime_options_signature — the keep-in-sync discipline that makes a
  // ResultKey safe to memoize under. Every mutation below is one field.
  const RuntimeOptions base;
  const std::uint64_t sig = runtime_options_signature(base);

  std::vector<RuntimeOptions> flipped;
  {
    RuntimeOptions r = base;
    r.strategy = MappingStrategy::kStatic1;
    flipped.push_back(r);
  }
  {
    RuntimeOptions r = base;
    r.hide_ahm = !r.hide_ahm;
    flipped.push_back(r);
  }
  {
    RuntimeOptions r = base;
    r.hide_runtime = !r.hide_runtime;
    flipped.push_back(r);
  }
  {
    RuntimeOptions r = base;
    r.host_threads = r.host_threads + 3;
    flipped.push_back(r);
  }
  {
    RuntimeOptions r = base;
    r.detailed_timing = !r.detailed_timing;
    flipped.push_back(r);
  }
  {
    RuntimeOptions r = base;
    r.collect_timeline = !r.collect_timeline;
    flipped.push_back(r);
  }
  for (std::size_t i = 0; i < flipped.size(); ++i)
    EXPECT_NE(runtime_options_signature(flipped[i]), sig)
        << "flipped field " << i << " did not change the signature";

  // Pairwise distinct too (no two single-field flips collide), and the
  // full ResultKey separates equal compile content under different
  // runtime options.
  for (std::size_t i = 0; i < flipped.size(); ++i)
    for (std::size_t j = i + 1; j < flipped.size(); ++j)
      EXPECT_NE(runtime_options_signature(flipped[i]),
                runtime_options_signature(flipped[j]))
          << i << " vs " << j;
  CompileKey ck{1, 2, 3};
  EXPECT_NE(make_result_key(ck, base), make_result_key(ck, flipped[0]));
  EXPECT_EQ(make_result_key(ck, base), make_result_key(ck, RuntimeOptions{}));
}

TEST(ServiceTest, MemoizedRepeatSkipsExecutionAndIsBitIdentical) {
  ServiceOptions opts;
  opts.workers = 2;
  opts.cache_capacity = 4;
  opts.result_cache_capacity = 4;
  InferenceService service(opts);

  // Independently materialized identical content: the repeat must hit the
  // result cache, skip compile AND execute, and return a report whose
  // deterministic fingerprint is bit-identical to the cold run.
  ServiceRequest first = make_request(101, GnnModelKind::kGcn);
  ServiceRequest repeat = make_request(101, GnnModelKind::kGcn);
  std::uint64_t cold_fp = 0, memo_fp = 0;
  InferenceReport cold = service.wait(service.submit(first), nullptr, &cold_fp);
  InferenceReport memo = service.wait(service.submit(repeat), nullptr, &memo_fp);
  EXPECT_EQ(memo.deterministic_fingerprint(), cold.deterministic_fingerprint());
  // wait() hands out the fingerprint the fill computed, on the miss and
  // on the hit alike.
  EXPECT_EQ(cold_fp, cold.deterministic_fingerprint());
  EXPECT_EQ(memo_fp, memo.deterministic_fingerprint());

  ResultCacheStats rcs = service.result_cache_stats();
  EXPECT_EQ(rcs.misses, 1);
  EXPECT_EQ(rcs.hits, 1);
  EXPECT_EQ(rcs.entries, 1);
  EXPECT_GT(rcs.bytes, 0);
  EXPECT_EQ(rcs.shared_refs, 0);
  // The repeat never reached the compilation cache.
  EXPECT_EQ(service.cache_stats().misses, 1);
  EXPECT_EQ(service.cache_stats().hits, 0);

  // wait_shared() hands out a hit without copying it: two hits read the
  // one report the cache holds, which their handles pin until released.
  std::uint64_t shared_fp = 0;
  std::shared_ptr<const InferenceReport> a = service.wait_shared(
      service.submit(make_request(101, GnnModelKind::kGcn)), nullptr,
      &shared_fp);
  std::shared_ptr<const InferenceReport> b = service.wait_shared(
      service.submit(make_request(101, GnnModelKind::kGcn)));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(shared_fp, cold.deterministic_fingerprint());
  EXPECT_EQ(a->deterministic_fingerprint(), cold.deterministic_fingerprint());
  EXPECT_EQ(service.result_cache_stats().shared_refs, 2);
  a.reset();
  b.reset();
  rcs = service.result_cache_stats();
  EXPECT_EQ(rcs.hits, 3);
  EXPECT_EQ(rcs.shared_refs, 0);

  // Different runtime options over the same compile content: result-cache
  // miss (new ResultKey) but compilation-cache hit (same CompileKey).
  ServiceRequest other = make_request(101, GnnModelKind::kGcn);
  other.options.runtime.strategy = MappingStrategy::kStatic1;
  (void)service.wait(service.submit(other));
  rcs = service.result_cache_stats();
  EXPECT_EQ(rcs.misses, 2);
  EXPECT_EQ(rcs.entries, 2);
  EXPECT_EQ(service.cache_stats().hits, 1);
  testing::expect_counters_add_up(service, 5);
}

TEST(ServiceTest, DefaultBudgetResolvesToAFixedLimit) {
  // memory_budget_bytes = 0 resolves to 1280 MiB. options() and the
  // budget_limit counter report the effective limit; an explicit value
  // is kept as given.
  auto limit_of = [](const ServiceOptions& o) {
    InferenceService svc(o);
    const std::size_t limit = svc.options().memory_budget_bytes;
    EXPECT_EQ(svc.memory_budget_stats().limit_bytes, limit);
    const Metrics metrics = svc.metrics();
    for (const Metrics::Metric& m : metrics.list())
      if (m.name == "budget_limit")
        EXPECT_EQ(std::get<std::int64_t>(m.value), static_cast<std::int64_t>(limit));
    return limit;
  };
  ServiceOptions opts;
  EXPECT_EQ(limit_of(opts), std::size_t{1280} << 20);
  opts.memory_budget_bytes = 12345;
  EXPECT_EQ(limit_of(opts), 12345u);
}

TEST(ServiceTest, EveryCounterIsCheckedOrListed) {
  // The counter census: with every tier on, each metrics() name is read
  // by an identity in tests/service_counters.hpp or held by its
  // kUncheckedCounters, and every exact name that list holds exists.
  ServiceOptions opts;
  opts.workers = 2;
  opts.result_cache_capacity = 4;
  opts.plan_store_capacity = 4;
  InferenceService service(opts);
  std::vector<ServiceRequest> requests;
  for (std::uint64_t seed : {41, 42, 41})
    requests.push_back(make_request(seed, GnnModelKind::kGcn));
  service.run_batch(requests);

  const std::set<std::string> read = testing::expect_counters_add_up(service, 3);
  auto listed = [](const std::string& name) {
    for (const char* pattern : testing::kUncheckedCounters)
      if (testing::matches_counter(pattern, name)) return true;
    return false;
  };
  std::set<std::string> names;
  const Metrics metrics = service.metrics();
  for (const Metrics::Metric& m : metrics.list()) {
    names.insert(m.name);
    EXPECT_TRUE(read.count(m.name) || listed(m.name))
        << m.name << ": no identity reads it and kUncheckedCounters lacks it";
  }
  for (const std::string pattern : testing::kUncheckedCounters)
    if (pattern.find('*') == std::string::npos)
      EXPECT_TRUE(names.count(pattern)) << pattern << " is listed but not a metric";
}

TEST(ServiceTest, ResultCacheEvictsByCountAndBytes) {
  // Count bound: capacity 2, three distinct contents -> one eviction, the
  // LRU entry re-misses.
  {
    ResultCache cache(2);
    auto run = [&](std::uint64_t key_seed) {
      ResultKey key{{key_seed, 1, 1}, 7};
      return cache.get_or_run(key, [] {
        InferenceReport rep;
        rep.model_name = "r";
        return rep;
      });
    };
    run(1), run(2), run(3);
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 3);
    EXPECT_EQ(s.evictions, 1);
    EXPECT_EQ(s.entries, 2);
    run(1);  // was evicted
    EXPECT_EQ(cache.stats().misses, 4);
    run(3);  // still resident
    EXPECT_EQ(cache.stats().hits, 1);
  }
  // Byte bound: entries far under the count bound still evict once the
  // approximate resident bytes exceed the memory budget the cache's tier
  // belongs to.
  {
    InferenceReport sample;
    sample.model_name = "r";
    const std::size_t one = sample.approx_footprint_bytes();
    MemoryBudget budget(2 * one + one / 2);  // room for ~2.5 reports
    ResultCache cache(100, budget.register_tier("result"));
    for (std::uint64_t k = 1; k <= 4; ++k)
      cache.get_or_run(ResultKey{{k, 1, 1}, 7}, [&] { return sample; });
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 4);
    EXPECT_EQ(s.evictions, 2);
    EXPECT_EQ(s.entries, 2);
    EXPECT_LE(s.bytes, static_cast<std::int64_t>(2 * one + one / 2));
  }
  // A lone report heavier than the whole budget is dropped by its own
  // insertion without flushing resident entries as collateral.
  {
    InferenceReport small;
    small.model_name = "r";
    const std::size_t one = small.approx_footprint_bytes();
    InferenceReport huge = small;
    huge.model_name.assign(4 * one, 'x');  // footprint >> the budget
    MemoryBudget budget(2 * one);
    ResultCache cache(100, budget.register_tier("result"));
    cache.get_or_run(ResultKey{{1, 1, 1}, 7}, [&] { return small; });
    cache.get_or_run(ResultKey{{2, 1, 1}, 7}, [&] { return huge; });
    ResultCacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1);  // only the oversized newcomer
    EXPECT_EQ(s.entries, 1);    // the small report survived
    cache.get_or_run(ResultKey{{1, 1, 1}, 7}, [&] { return small; });
    EXPECT_EQ(cache.stats().hits, 1);  // still resident
  }
}

TEST(ServiceTest, AdmissionRejectFailsFastAndShedFailsOldest) {
  // Deterministic single-worker setup: park the worker on a slow-ish
  // request, fill the depth-1 queue, then probe each admission outcome.
  ServiceOptions opts;
  opts.workers = 1;
  opts.cache_capacity = 2;
  opts.max_queue_depth = 1;
  opts.admission = AdmissionPolicy::kReject;
  InferenceService service(opts);

  ServiceRequest busy = make_request(111, GnnModelKind::kGin);
  ServiceRequest queued = make_request(112, GnnModelKind::kGcn);
  RequestId running = service.submit(busy);
  // Fill the queue. The worker may already have popped `running` (or even
  // both); submit until one genuinely parks in the queue or a reject
  // proves the queue was full.
  RequestId parked = service.submit(queued);
  RequestId rejected = service.submit(queued);
  // With one worker and a depth-1 queue, three instant submits cannot all
  // be admitted... but the worker races; accept either outcome for the
  // middle one and require the *system* invariants instead: every id
  // resolves, and any rejection carries AdmissionRejectedError.
  int completed = 0, refused = 0;
  for (RequestId id : {running, parked, rejected}) {
    try {
      (void)service.wait(id);
      ++completed;
    } catch (const AdmissionRejectedError&) {
      ++refused;
    }
  }
  EXPECT_EQ(completed + refused, 3);
  EXPECT_EQ(service.admission_stats().rejected, refused);
  EXPECT_EQ(service.admission_stats().accepted, completed);
  testing::expect_counters_add_up(service, completed);

  // try_submit: non-blocking, returns nullopt instead of failing a slot.
  ServiceOptions t_opts;
  t_opts.workers = 1;
  t_opts.cache_capacity = 2;
  t_opts.max_queue_depth = 1;
  t_opts.admission = AdmissionPolicy::kBlock;
  {
    InferenceService t_service(t_opts);
    std::vector<RequestId> ids;
    int nullopts = 0;
    for (int i = 0; i < 6; ++i) {
      std::optional<RequestId> id = t_service.try_submit(queued);
      if (id)
        ids.push_back(*id);
      else
        ++nullopts;
    }
    for (RequestId id : ids) EXPECT_NO_THROW((void)t_service.wait(id));
    EXPECT_EQ(t_service.admission_stats().rejected, nullopts);
    testing::expect_counters_add_up(t_service,
                                    static_cast<std::int64_t>(ids.size()));
  }

  // Shed-oldest: freshest traffic wins. Park the worker, overfill the
  // queue, and check that shed slots fail with AdmissionRejectedError
  // while the service's shed counter matches.
  ServiceOptions s_opts;
  s_opts.workers = 1;
  s_opts.cache_capacity = 2;
  s_opts.max_queue_depth = 2;
  s_opts.admission = AdmissionPolicy::kShedOldest;
  InferenceService s_service(s_opts);
  std::vector<RequestId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(s_service.submit(queued));
  int s_completed = 0, s_shed = 0;
  for (RequestId id : ids) {
    try {
      (void)s_service.wait(id);
      ++s_completed;
    } catch (const AdmissionRejectedError&) {
      ++s_shed;
    }
  }
  EXPECT_EQ(s_completed + s_shed, 8);
  EXPECT_EQ(s_service.admission_stats().shed, s_shed);
  EXPECT_EQ(s_service.admission_stats().accepted, 8);  // all were enqueued
  // The newest submission is never shed by construction: it is admitted
  // by the push that sheds others and can only leave the queue by
  // running.
  EXPECT_GE(s_completed, 1);
  testing::expect_counters_add_up(s_service, s_completed);
}

TEST(ServiceTest, OptionsValidatedAndEffectiveWorkersSurfaced) {
  ServiceOptions bad;
  bad.workers = -1;
  EXPECT_THROW(InferenceService{bad}, std::invalid_argument);
  bad.workers = 0;
  bad.intra_op_threads = -3;
  EXPECT_THROW(InferenceService{bad}, std::invalid_argument);

  // workers = 0 resolves to a visible effective count instead of a
  // hidden cap applied at spawn time.
  InferenceService auto_sized{ServiceOptions{}};
  EXPECT_GE(auto_sized.options().workers, 1);
  EXPECT_EQ(auto_sized.options().workers,
            std::min(parallel_hardware_threads(), 16));

  ServiceOptions explicit_opts;
  explicit_opts.workers = 5;
  explicit_opts.intra_op_threads = 2;
  InferenceService sized(explicit_opts);
  EXPECT_EQ(sized.options().workers, 5);
  EXPECT_EQ(sized.options().intra_op_threads, 2);
}

TEST(ServiceTest, IntraOpParallelismIsBitIdenticalToSerial) {
  // The same request executed serially per worker (intra_op_threads = 1,
  // the pre-work-stealing behavior) and fanned out on the shared pool
  // must produce identical reports: every parallel primitive is
  // thread-count-invariant.
  ServiceRequest req = make_request(95, GnnModelKind::kGcn);
  const std::uint64_t expected = sequential_reference(req).deterministic_fingerprint();
  for (int intra : {1, 0, 3}) {
    ServiceOptions opts;
    opts.workers = 2;
    opts.intra_op_threads = intra;
    InferenceService service(opts);
    RequestId id = service.submit(req);
    EXPECT_EQ(service.wait(id).deterministic_fingerprint(), expected)
        << "intra_op_threads=" << intra;
  }
}

// Regression for the shutdown race: submit() used to be able to return a
// valid RequestId after shutdown had closed the queue — the job was
// silently dropped (BlockingQueue::push returns false once closed), the
// slot stayed kQueued forever, and wait(id) deadlocked. Now a racing
// submit either throws std::runtime_error or returns an id that wait()
// always resolves; this test hangs (and trips the ctest timeout) if the
// bug comes back.
TEST(ServiceTest, SubmitRacingShutdownNeverHangsAWaiter) {
  for (int round = 0; round < 12; ++round) {
    ServiceOptions opts;
    opts.workers = 2;
    opts.cache_capacity = 2;
    InferenceService service(opts);

    // Both submitters share one cheap request content (compiles once).
    ServiceRequest req = make_request(97, GnnModelKind::kSgc);
    std::atomic<int> resolved{0}, rejected{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 2; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 50; ++i) {
          RequestId id;
          try {
            id = service.submit(req);
          } catch (const std::runtime_error&) {
            ++rejected;  // shutdown won the race before enqueue
            return;
          }
          // A returned id must always resolve: either a report, or
          // shutdown failing the slot — never a hang.
          try {
            (void)service.wait(id);
          } catch (const std::runtime_error&) {
          }
          ++resolved;
        }
      });
    }
    // Let the submitters get going, then shut the service down under
    // them (the object stays alive; the destructor's teardown runs
    // concurrently with live submit/wait calls).
    std::this_thread::sleep_for(std::chrono::milliseconds(2 + round % 5));
    service.shutdown();
    for (std::thread& t : submitters) t.join();
    EXPECT_GT(resolved.load() + rejected.load(), 0);
  }
}

/// A request heavy enough (milliseconds of compile + execute) that a
/// test can deterministically act while it is queued behind or running.
ServiceRequest make_slow_request(std::uint64_t seed) {
  Dataset ds = small_dataset(seed, /*vertices=*/2500, /*h0_density=*/0.4);
  Rng rng(seed + 1);
  GnnModel model = build_model(GnnModelKind::kGin, ds.spec.feature_dim,
                               ds.spec.hidden_dim, ds.spec.num_classes, rng);
  return ServiceRequest::own(std::move(model), std::move(ds));
}

TEST(ServiceTest, CancelQueuedRunningTerminalAndUnknown) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.cache_capacity = 4;
  InferenceService service(opts);

  // Unknown id: invalid_argument, same contract as state()/wait().
  EXPECT_THROW(service.cancel(999999), std::invalid_argument);

  // Terminal: cancel() never un-completes a result.
  RequestId done_id = service.submit(make_request(121, GnnModelKind::kSgc));
  while (!service.done(done_id)) std::this_thread::yield();
  EXPECT_FALSE(service.cancel(done_id));
  EXPECT_NO_THROW((void)service.wait(done_id));
  // cancel() does not consume the slot: wait() above still got the report.

  // Queued: park the single worker on a slow head, cancel the request
  // behind it. The worker may race past us, so accept either outcome but
  // require consistency: cancel()==true must mean wait() throws
  // CancelledError, and false must mean a normal report.
  RequestId head = service.submit(make_slow_request(122));
  RequestId parked = service.submit(make_request(123, GnnModelKind::kGcn));
  bool cancelled = service.cancel(parked);
  if (cancelled) {
    EXPECT_THROW(service.wait(parked), CancelledError);
    EXPECT_GE(service.robustness_stats().cancelled, 1);
  } else {
    EXPECT_NO_THROW((void)service.wait(parked));
  }
  EXPECT_NO_THROW((void)service.wait(head));

  // Running: cancel the slow head itself mid-execution. Cooperative
  // checks abort it at the next stage/kernel boundary, and a request
  // that slips to completion first is discarded at publish time — so
  // cancel()==true is a hard promise of CancelledError. false means the
  // worker published the report before cancel() got the lock.
  RequestId running = service.submit(make_slow_request(124));
  while (service.state(running) == RequestState::kQueued)
    std::this_thread::yield();
  const std::int64_t cancelled_before = service.robustness_stats().cancelled;
  bool aborted = service.cancel(running);
  if (aborted) {
    EXPECT_THROW(service.wait(running), CancelledError);
    EXPECT_EQ(service.robustness_stats().cancelled, cancelled_before + 1);
  } else {
    EXPECT_NO_THROW((void)service.wait(running));
  }
}

TEST(ServiceTest, DeadlineExpiredInQueueNeverReachesCompiler) {
  // Requests carry a 1 ms default deadline while the queue.delay chaos
  // site (armed at probability 1) stalls every dequeue 2 ms between pop
  // and the deadline recheck — so each victim is deterministically
  // expired when rechecked, independent of scheduler timing. The worker
  // must fail those slots BEFORE compiling: one compile miss total (the
  // generous-deadline head), and expired_in_queue counts every victim.
  ServiceOptions opts;
  opts.workers = 1;
  opts.cache_capacity = 8;
  opts.default_deadline_ms = 1;
  opts.fault_spec = "queue.delay:1";
  {
    InferenceService service(opts);

    ServiceRequest head = make_slow_request(131);
    head.deadline_ms = 60'000;  // per-request value wins over the default
    RequestId head_id = service.submit(head);

    constexpr int kVictims = 4;
    std::vector<RequestId> victims;
    for (int i = 0; i < kVictims; ++i)
      victims.push_back(service.submit(make_request(132, GnnModelKind::kGcn)));

    EXPECT_NO_THROW((void)service.wait(head_id));
    for (RequestId id : victims)
      EXPECT_THROW(service.wait(id), DeadlineExceededError);

    RobustnessStats rs = service.robustness_stats();
    EXPECT_EQ(rs.expired_in_queue, kVictims);
    EXPECT_EQ(rs.expired_running, 0);
    // The victims' content (seed 132) was never compiled: only the head's.
    EXPECT_EQ(service.cache_stats().misses, 1);
    EXPECT_EQ(service.cache_stats().hits, 0);

    // The service keeps serving after expiries, and a request with no
    // deadline pressure completes normally.
    ServiceRequest fresh = make_request(132, GnnModelKind::kGcn);
    fresh.deadline_ms = 60'000;
    EXPECT_NO_THROW((void)service.wait(service.submit(fresh)));
    testing::expect_counters_add_up(service, 2);
  }
  // The injector is process-global; don't leak the armed site into later
  // tests in this binary.
  FaultInjector::global().disarm();
}

TEST(ServiceTest, DeadlineExpiryMidExecutionAborts) {
  // A slow request with a deadline shorter than its own execution: it is
  // dequeued promptly (idle worker) and expires mid-flight, aborting at a
  // stage/kernel boundary. Under scheduler noise the deadline can instead
  // pass while still queued — either way it must surface as
  // DeadlineExceededError and exactly one expiry counter must advance.
  ServiceOptions opts;
  opts.workers = 1;
  InferenceService service(opts);

  ServiceRequest req = make_slow_request(141);
  req.deadline_ms = 1;
  RequestId id = service.submit(req);
  EXPECT_THROW(service.wait(id), DeadlineExceededError);
  RobustnessStats rs = service.robustness_stats();
  EXPECT_EQ(rs.expired_in_queue + rs.expired_running, 1);
}

TEST(ServiceTest, NegativeDeadlinesRejected) {
  ServiceOptions bad;
  bad.default_deadline_ms = -5;
  EXPECT_THROW(InferenceService{bad}, std::invalid_argument);

  ServiceOptions opts;
  opts.workers = 1;
  InferenceService service(opts);
  ServiceRequest req = make_request(151, GnnModelKind::kGcn);
  req.deadline_ms = -1;
  EXPECT_THROW(service.submit(req), std::invalid_argument);
  EXPECT_THROW(service.try_submit(req), std::invalid_argument);
  // The rejection happened before a slot existed: nothing to wait on,
  // and the service still serves.
  req.deadline_ms = 0;
  EXPECT_NO_THROW((void)service.wait(service.submit(req)));
}

TEST(ServiceTest, ShutdownAbortsInFlightWork) {
  // shutdown() must not drain a long queue: queued slots fail with
  // CancelledError, the running request aborts at its next cooperative
  // check, and every waiter resolves promptly.
  ServiceOptions opts;
  opts.workers = 1;
  opts.cache_capacity = 4;
  InferenceService service(opts);

  std::vector<RequestId> ids;
  ids.push_back(service.submit(make_slow_request(161)));
  for (int i = 0; i < 6; ++i)
    ids.push_back(service.submit(make_request(162, GnnModelKind::kGcn)));
  service.shutdown();

  int completed = 0, cancelled = 0;
  for (RequestId id : ids) {
    try {
      (void)service.wait(id);
      ++completed;
    } catch (const CancelledError&) {
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, static_cast<int>(ids.size()));
  // The worker was parked on the slow head when shutdown fired, so the
  // queued tail (most of the batch) must have been aborted, not drained.
  EXPECT_GE(cancelled, 1);
  EXPECT_EQ(service.robustness_stats().cancelled, cancelled);
  testing::expect_counters_add_up(service, completed);
}

TEST(ServiceTest, RequestStreamRoundTrip) {
  std::string text =
      "# serving workload\n"
      "dataset=CI model=gcn seed=5\n"
      "dataset=CO model=sage prune=0.5 repeat=3  # popular\n"
      "\n"
      "dataset=PU model=sgc strategy=static2 hidden=32 scale=2\n"
      "dataset=CI model=gcn deadline_ms=250\n";
  std::istringstream in(text);
  std::vector<StreamRequestSpec> specs = parse_request_stream(in);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[1].repeat, 3);
  EXPECT_EQ(specs[2].strategy, MappingStrategy::kStatic2);
  EXPECT_EQ(specs[3].deadline_ms, 250);
  EXPECT_EQ(materialize_request(specs[3]).deadline_ms, 250);
  EXPECT_EQ(expand_stream(specs).size(), 6u);

  // to_line -> parse is a fixpoint.
  std::ostringstream out;
  for (const StreamRequestSpec& s : specs) out << s.to_line() << "\n";
  std::istringstream in2(out.str());
  std::vector<StreamRequestSpec> reparsed = parse_request_stream(in2);
  ASSERT_EQ(reparsed.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    EXPECT_EQ(reparsed[i].to_line(), specs[i].to_line());

  std::istringstream bad("dataset=CI model=nope\n");
  EXPECT_THROW(parse_request_stream(bad), std::runtime_error);
  // Numeric values must be fully consumed ("4x2" is not scale 4).
  std::istringstream bad_num("dataset=CI scale=4x2\n");
  EXPECT_THROW(parse_request_stream(bad_num), std::runtime_error);
  std::istringstream bad_deadline("dataset=CI deadline_ms=-3\n");
  EXPECT_THROW(parse_request_stream(bad_deadline), std::runtime_error);
}

}  // namespace
}  // namespace dynasparse
