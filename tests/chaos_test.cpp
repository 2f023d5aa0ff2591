// Chaos tests: the service under deterministic fault injection
// (util/fault_injection.hpp). Each scenario arms one or more sites and
// asserts the robustness contract:
//
//   - no hangs, no crashes: every submitted id resolves through wait();
//   - typed errors only: a non-completed request surfaces as exactly one
//     of CancelledError / DeadlineExceededError / AdmissionRejectedError
//     / ExecutionError — wait()'s closed throw-set survives chaos;
//   - graceful degradation: optional tiers (the plan store's disk tier)
//     absorb their faults and fall back to the cold path, counting
//     disk_errors, instead of failing requests;
//   - determinism under chaos: a request that completes returns a report
//     bit-identical to a fault-free run (references computed under
//     FaultPauseScope), and a chaos run reproduces from its seed.
//
// The injector is process-global (DYNASPARSE_FAULT_SPEC / the service's
// fault_spec option both arm it), so every test disarms on exit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/inference_service.hpp"
#include "service/request_stream.hpp"
#include "util/fault_injection.hpp"

namespace dynasparse {
namespace {

/// Small synthetic dataset so each request costs milliseconds.
Dataset chaos_dataset(std::uint64_t seed) {
  DatasetSpec spec;
  spec.name = "chaos";
  spec.tag = "CH" + std::to_string(seed % 100);
  spec.vertices = 150;
  spec.edges = 600;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.h0_density = 0.3;
  spec.hidden_dim = 8;
  spec.degree_skew = 0.5;
  return generate_dataset(spec, 1, seed);
}

ServiceRequest chaos_request(std::uint64_t seed, GnnModelKind kind) {
  Dataset ds = chaos_dataset(seed);
  Rng rng(seed + 1);
  GnnModel model = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                               ds.spec.num_classes, rng);
  return ServiceRequest::own(std::move(model), std::move(ds));
}

/// Fault-free reference fingerprint, computed with injection suspended so
/// it can run in the middle of an armed chaos test.
std::uint64_t reference_fingerprint(const ServiceRequest& req) {
  FaultPauseScope pause;
  CompiledProgram prog = compile(*req.model, *req.dataset, req.options.config);
  InferenceReport rep = run_compiled(prog, req.options.runtime);
  rep.dataset_tag = req.dataset->spec.tag;  // the service stamps this too
  return rep.deterministic_fingerprint();
}

/// RAII disarm so a failing assertion can't leak an armed injector into
/// the next test in this binary.
struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::global().disarm(); }
};

std::string fresh_dir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "chaos_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ChaosTest, PlanStoreDiskFaultsDegradeWithoutFailingRequests) {
  DisarmGuard guard;
  // Every disk read AND write fails. The disk tier is optional by
  // contract: requests must still complete (cold path), bit-identical,
  // with disk_errors counting every absorbed fault.
  // References first, while the injector is still unarmed (the service
  // constructor arms it from fault_spec).
  std::vector<std::pair<ServiceRequest, std::uint64_t>> work;
  for (std::uint64_t seed : {201, 202, 203, 204})
    for (GnnModelKind kind : {GnnModelKind::kGcn, GnnModelKind::kSage}) {
      ServiceRequest req = chaos_request(seed, kind);
      std::uint64_t fp = reference_fingerprint(req);
      work.emplace_back(std::move(req), fp);
    }

  ServiceOptions opts;
  opts.workers = 2;
  opts.cache_capacity = 2;  // small: force evictions + recompiles
  opts.plan_store_capacity = 8;
  opts.plan_store_dir = fresh_dir("disk_faults");
  opts.fault_spec = "plan_store.disk_read:1,plan_store.disk_write:1";
  InferenceService service(opts);

  std::map<RequestId, std::uint64_t> expect;
  std::vector<RequestId> ids;
  for (auto& [req, fp] : work) {
    RequestId id = service.submit(req);
    ids.push_back(id);
    expect[id] = fp;
  }
  for (RequestId id : ids) {
    InferenceReport rep;
    ASSERT_NO_THROW(rep = service.wait(id)) << "disk faults must degrade";
    EXPECT_EQ(rep.deterministic_fingerprint(), expect[id]);
  }
  PlanStoreStats pss = service.plan_store_stats();
  EXPECT_GT(pss.disk_errors, 0);  // the degradation was exercised, not idle
  EXPECT_EQ(pss.disk_hits, 0);    // nothing was ever trusted from disk
  FaultSiteStats w =
      FaultInjector::global().site_stats(kFaultPlanStoreDiskWrite);
  EXPECT_GT(w.injected, 0);
}

TEST(ChaosTest, CompileAllocFaultIsTypedAndCountBounded) {
  DisarmGuard guard;
  // compile.alloc at probability 1 with a budget of 2: the first two
  // compile attempts throw bad_alloc (surfacing as ExecutionError — a
  // real failure, not degradable), later attempts succeed and stay
  // bit-identical. The count budget is what lets one spec cover both the
  // failing and the recovered phase deterministically.
  ServiceRequest req = chaos_request(211, GnnModelKind::kGcn);
  const std::uint64_t fp = reference_fingerprint(req);

  ServiceOptions opts;
  opts.workers = 1;  // serialize: the count budget maps 1:1 onto requests
  opts.cache_capacity = 4;
  opts.fault_spec = "compile.alloc:1:2";
  InferenceService service(opts);

  EXPECT_THROW((void)service.wait(service.submit(req)), ExecutionError);
  EXPECT_THROW((void)service.wait(service.submit(req)), ExecutionError);
  InferenceReport rep;
  ASSERT_NO_THROW(rep = service.wait(service.submit(req)));
  EXPECT_EQ(rep.deterministic_fingerprint(), fp);
  EXPECT_EQ(service.robustness_stats().execution_failures, 2);
  // The failed compiles were not cached as poison: the success above
  // re-ran the factory (erase-before-publish in keyed_future_cache).
  EXPECT_EQ(service.cache_stats().misses, 3);
}

TEST(ChaosTest, KernelFaultsAreIsolatedPerRequest) {
  DisarmGuard guard;
  // runtime.kernel_fault fires per *kernel*, so even a small per-draw
  // probability kills a meaningful fraction of requests. Each failure
  // must be isolated to its own request — neighbors complete
  // bit-identically — and be typed as ExecutionError.
  std::vector<std::pair<ServiceRequest, std::uint64_t>> work;
  for (int i = 0; i < 12; ++i) {
    ServiceRequest req =
        chaos_request(221 + static_cast<std::uint64_t>(i % 3),
                      i % 2 == 0 ? GnnModelKind::kGcn : GnnModelKind::kSgc);
    std::uint64_t fp = reference_fingerprint(req);
    work.emplace_back(std::move(req), fp);
  }

  ServiceOptions opts;
  opts.workers = 2;
  opts.cache_capacity = 8;
  opts.fault_spec = "runtime.kernel_fault:0.05,seed:17";
  InferenceService service(opts);

  std::map<RequestId, std::uint64_t> expect;
  std::vector<RequestId> ids;
  for (auto& [req, fp] : work) {
    RequestId id = service.submit(req);
    ids.push_back(id);
    expect[id] = fp;
  }
  int completed = 0, failed = 0;
  for (RequestId id : ids) {
    try {
      InferenceReport rep = service.wait(id);
      EXPECT_EQ(rep.deterministic_fingerprint(), expect[id]);
      ++completed;
    } catch (const ExecutionError& e) {
      EXPECT_NE(std::string(e.what()).find("injected kernel fault"),
                std::string::npos);
      ++failed;
    }
  }
  EXPECT_EQ(completed + failed, static_cast<int>(ids.size()));
  EXPECT_EQ(service.robustness_stats().execution_failures, failed);
  // Both outcomes occur under this seed (deterministic draw sequence).
  EXPECT_GT(failed, 0);
  EXPECT_GT(completed, 0);
}

/// Batch-compatible roster for the batching chaos scenarios: one
/// dataset content (equal BatchKey) with a different weight draw per
/// member, so the members share a batch yet carry distinct CompileKeys.
std::vector<std::pair<ServiceRequest, std::uint64_t>> fusion_roster(
    std::size_t n, std::uint64_t dataset_seed) {
  std::vector<std::pair<ServiceRequest, std::uint64_t>> work;
  for (std::size_t i = 0; i < n; ++i) {
    Dataset ds = chaos_dataset(dataset_seed);
    Rng rng(5000 + 17 * i);
    GnnModel model = build_model(GnnModelKind::kGcn, ds.spec.feature_dim,
                                 ds.spec.hidden_dim, ds.spec.num_classes, rng);
    model.name += "#" + std::to_string(i);
    ServiceRequest req = ServiceRequest::own(std::move(model), std::move(ds));
    std::uint64_t fp = reference_fingerprint(req);
    work.emplace_back(std::move(req), fp);
  }
  return work;
}

TEST(ChaosTest, KernelFaultsInsideFusedBatchesStayMemberIsolated) {
  DisarmGuard guard;
  // runtime.kernel_fault + queue.delay against a *batching* service: the
  // fault draw lands on one member of a batch (each member draws at its
  // own kernel boundaries as it runs, exactly as solo), and must
  // fail only that member — surviving batchmates complete bit-identical
  // to their fault-free references, and every failure is typed
  // ExecutionError. queue.delay stalls whole batches, exercising the
  // collect path under injected latency.
  std::vector<std::pair<ServiceRequest, std::uint64_t>> work =
      fusion_roster(16, 321);

  ServiceOptions opts;
  opts.workers = 2;
  opts.cache_capacity = 16;
  opts.batch_window_us = 2'000'000;  // backstop; the K cutoff releases
  opts.max_batch_size = 4;
  opts.fault_spec = "runtime.kernel_fault:0.05,queue.delay:0.25,seed:17";
  InferenceService service(opts);

  std::map<RequestId, std::uint64_t> expect;
  std::vector<RequestId> ids;
  for (auto& [req, fp] : work) {
    RequestId id = service.submit(req);
    ids.push_back(id);
    expect[id] = fp;
  }
  int completed = 0, failed = 0;
  for (RequestId id : ids) {
    try {
      InferenceReport rep = service.wait(id);
      EXPECT_EQ(rep.deterministic_fingerprint(), expect[id])
          << "a surviving batchmate must stay bit-identical";
      ++completed;
    } catch (const ExecutionError& e) {
      EXPECT_NE(std::string(e.what()).find("injected kernel fault"),
                std::string::npos);
      ++failed;
    }
  }
  EXPECT_EQ(completed + failed, static_cast<int>(ids.size()));
  EXPECT_EQ(service.robustness_stats().execution_failures, failed);
  EXPECT_GT(failed, 0);
  EXPECT_GT(completed, 0);
  // Batching must actually have been in play for the isolation claim to
  // mean anything.
  EXPECT_GT(service.batch_stats().fused_requests, 0);
  service.shutdown();
}

TEST(ChaosTest, BatchedChaosRunReproducesFromItsSeed) {
  DisarmGuard guard;
  // One worker + one deterministic batch membership (a single group
  // released by its K cutoff) => the per-member fault draws happen in
  // member order, so the same spec reproduces the same outcome vector.
  auto run_once = [&] {
    ServiceOptions opts;
    opts.workers = 1;
    opts.cache_capacity = 0;  // every member compiles: no cross-run state
    opts.batch_window_us = 2'000'000;
    opts.max_batch_size = 8;
    opts.fault_spec = "runtime.kernel_fault:0.08,seed:29";
    InferenceService service(opts);
    std::vector<std::pair<ServiceRequest, std::uint64_t>> work =
        fusion_roster(8, 322);
    std::vector<RequestId> ids;
    for (auto& [req, fp] : work) ids.push_back(service.submit(req));
    std::vector<bool> ok;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      try {
        InferenceReport rep = service.wait(ids[i]);
        EXPECT_EQ(rep.deterministic_fingerprint(), work[i].second);
        ok.push_back(true);
      } catch (const ExecutionError&) {
        ok.push_back(false);
      }
    }
    EXPECT_EQ(service.batch_stats().fused_requests, 8);
    service.shutdown();
    return ok;
  };
  std::vector<bool> first = run_once();
  std::vector<bool> second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(ChaosTest, EverySiteArmedMixedStreamKeepsTheContract) {
  DisarmGuard guard;
  // The full chaos mix: every known site armed at 0.3 over a mixed
  // stream with memoization, plan store, bounded queue, and deadlines in
  // play. The service must neither hang nor crash; every id resolves as
  // a completed bit-identical report or one typed error.
  std::string spec;
  for (const std::string& site : fault_site_names())
    spec += site + ":0.3,";
  spec += "seed:23";

  // References first (injector unarmed until the service constructor).
  // Deadlines generous enough that they only fire when queue.delay
  // stalls pile up — the expiry path under chaos, not a guaranteed kill.
  std::vector<StreamRequestSpec> stream = synthetic_stream(36, 2023);
  std::vector<std::pair<ServiceRequest, std::uint64_t>> work;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ServiceRequest req = materialize_request(stream[i]);
    if (i % 3 == 0) req.deadline_ms = 200;
    std::uint64_t fp = reference_fingerprint(req);
    work.emplace_back(std::move(req), fp);
  }

  ServiceOptions opts;
  opts.workers = 4;
  opts.cache_capacity = 4;
  opts.result_cache_capacity = 8;
  opts.plan_store_capacity = 8;
  opts.plan_store_dir = fresh_dir("mixed");
  opts.max_queue_depth = 16;
  opts.admission = AdmissionPolicy::kReject;
  opts.fault_spec = spec;
  InferenceService service(opts);

  std::map<RequestId, std::uint64_t> expect;
  std::vector<RequestId> ids;
  for (auto& [req, fp] : work) {
    RequestId id = service.submit(req);
    ids.push_back(id);
    expect[id] = fp;
  }

  int completed = 0, cancelled = 0, expired = 0, rejected = 0, failed = 0;
  for (RequestId id : ids) {
    try {
      InferenceReport rep = service.wait(id);
      EXPECT_EQ(rep.deterministic_fingerprint(), expect[id])
          << "chaos must never corrupt a completed result";
      ++completed;
    } catch (const DeadlineExceededError&) {
      ++expired;
    } catch (const CancelledError&) {
      ++cancelled;
    } catch (const AdmissionRejectedError&) {
      ++rejected;
    } catch (const ExecutionError&) {
      ++failed;
    }
    // Anything else escapes and fails the test: the taxonomy is closed.
  }
  EXPECT_EQ(completed + cancelled + expired + rejected + failed,
            static_cast<int>(ids.size()));
  // The chaos actually happened: sites were evaluated...
  std::int64_t evaluations = 0, injected = 0;
  for (const auto& [site, st] : FaultInjector::global().all_stats()) {
    evaluations += st.evaluations;
    injected += st.injected;
  }
  EXPECT_GT(evaluations, 0);
  EXPECT_GT(injected, 0);
  // No `completed > 0` assertion on the storm itself: with every site at
  // 0.3 a request's survival odds are (1 - 0.3)^kernels per attempt, and
  // under sanitizer slowdown the 200ms deadlines expire the rest — zero
  // completions is a legitimate outcome, not a service defect. Liveness
  // is asserted deterministically below instead.

  // The service survives the storm: with injection paused, a fresh
  // request completes normally.
  {
    FaultPauseScope pause;
    ServiceRequest fresh = chaos_request(231, GnnModelKind::kGcn);
    std::uint64_t fp = reference_fingerprint(fresh);
    InferenceReport rep;
    ASSERT_NO_THROW(rep = service.wait(service.submit(fresh)));
    EXPECT_EQ(rep.deterministic_fingerprint(), fp);
  }
}

TEST(ChaosTest, NetFaultsKillConnectionsNotTheContract) {
  DisarmGuard guard;
  // net.accept drops fresh connections at the door, net.read kills
  // established ones mid-conversation. Clients observe transport
  // failures (NetError) — never malformed frames — and every response
  // that does arrive is bit-identical to a fault-free run or one typed
  // wire error. The server itself must survive arbitrarily many dead
  // connections.
  const std::vector<StreamRequestSpec> specs = {
      [] { StreamRequestSpec s; s.dataset = "CI"; s.seed = 61; return s; }(),
      [] { StreamRequestSpec s; s.dataset = "CO"; s.seed = 62; return s; }(),
      [] { StreamRequestSpec s; s.dataset = "PU"; s.seed = 63; return s; }(),
  };
  // References before arming: the same content through run_batch.
  std::map<std::string, std::uint64_t> expect;
  {
    InferenceService local(ServiceOptions{});
    std::vector<ServiceRequest> reqs;
    for (const StreamRequestSpec& s : specs) reqs.push_back(materialize_request(s));
    std::vector<InferenceReport> reps = local.run_batch(std::move(reqs));
    for (std::size_t i = 0; i < specs.size(); ++i)
      expect[specs[i].to_line()] = reps[i].deterministic_fingerprint();
  }

  InferenceService service(ServiceOptions{});
  NetServer server(service);
  server.start();
  FaultInjector::global().arm(
      parse_fault_spec("net.accept:0.25,net.read:0.15,seed:31"));

  constexpr int kClients = 3, kRounds = 6;
  std::atomic<int> completed{0}, transport_failures{0}, wire_errors{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        const StreamRequestSpec& spec =
            specs[static_cast<std::size_t>(round) % specs.size()];
        try {
          NetClient client("127.0.0.1", server.port(), 15000);
          NetClient::Outcome out = client.await(client.submit(spec));
          if (out.ok) {
            if (out.result.fingerprint != expect[spec.to_line()])
              ++mismatches;
            ++completed;
          } else {
            ++wire_errors;  // typed — decode_error validated the code
          }
        } catch (const NetError&) {
          ++transport_failures;  // the chaos did its job; try again
        }
        // WireProtocolError or an unexpected exception type escapes the
        // thread and aborts the test: chaos must never corrupt framing.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches, 0) << "a surviving response was not bit-identical";
  EXPECT_EQ(completed + transport_failures + wire_errors, kClients * kRounds);
  // The storm actually happened, through both sites' own draws.
  const FaultSiteStats accept_stats =
      FaultInjector::global().site_stats(kFaultNetAccept);
  const FaultSiteStats read_stats =
      FaultInjector::global().site_stats(kFaultNetRead);
  EXPECT_GT(accept_stats.evaluations + read_stats.evaluations, 0);
  EXPECT_GT(accept_stats.injected + read_stats.injected, 0)
      << "seed 31 must fire at least once over " << kClients * kRounds
      << " connections";
  EXPECT_GT(completed.load(), 0) << "some connections must survive p=0.25";

  // Dead connections cancelled their in-flight work instead of leaking
  // it; the server and service survive the storm and still serve.
  FaultInjector::global().disarm();
  NetClient fresh("127.0.0.1", server.port());
  NetClient::Outcome out = fresh.await(fresh.submit(specs[0]));
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.result.fingerprint, expect[specs[0].to_line()]);
  server.stop();
  service.shutdown();
}

TEST(ChaosTest, NetAcceptChaosReproducesFromItsSeed) {
  DisarmGuard guard;
  // One sequential client, one accept per connection attempt: the k-th
  // connection lives or dies by the k-th net.accept draw, which the
  // per-site seeded RNG fixes. Same seed, same kill pattern.
  InferenceService service(ServiceOptions{});
  NetServer server(service);
  server.start();
  StreamRequestSpec spec;
  spec.dataset = "CI";
  spec.seed = 71;

  auto run_once = [&] {
    // arm() resets the site RNGs: each run replays the same draws.
    FaultInjector::global().arm(parse_fault_spec("net.accept:0.5,seed:13"));
    std::vector<bool> survived;
    for (int i = 0; i < 10; ++i) {
      try {
        NetClient client("127.0.0.1", server.port());
        survived.push_back(client.await(client.submit(spec)).ok);
      } catch (const NetError&) {
        survived.push_back(false);
      }
    }
    return survived;
  };
  std::vector<bool> first = run_once();
  std::vector<bool> second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  server.stop();
}

TEST(ChaosTest, ChaosRunReproducesFromItsSeed) {
  DisarmGuard guard;
  // Same spec + same single-worker request sequence => the same
  // per-request outcome sequence, by the per-site seeded RNG contract.
  auto run_once = [&](std::int64_t batch_window_us) {
    ServiceOptions opts;
    opts.workers = 1;  // serialize so draws map 1:1 onto requests
    opts.cache_capacity = 0;  // no caching: every request compiles + runs
    opts.fault_spec = "runtime.kernel_fault:0.05,seed:5";
    opts.batch_window_us = batch_window_us;
    InferenceService service(opts);
    std::vector<bool> ok;
    for (int i = 0; i < 10; ++i) {
      ServiceRequest req = chaos_request(241, GnnModelKind::kSgc);
      try {
        (void)service.wait(service.submit(req));
        ok.push_back(true);
      } catch (const ExecutionError&) {
        ok.push_back(false);
      }
    }
    return ok;
  };
  std::vector<bool> first = run_once(0);
  std::vector<bool> second = run_once(0);
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  // Batching on: each request is submitted and waited alone, so every
  // batch has one member and must draw its faults exactly as unbatched.
  EXPECT_EQ(run_once(1'000), first);
}

}  // namespace
}  // namespace dynasparse
