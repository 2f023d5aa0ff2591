// Loopback end-to-end tests for the network front-end (net/server.hpp +
// net/client.hpp over real TCP sockets):
//
//   - N concurrent clients observe bit-identical deterministic
//     fingerprints to a direct InferenceService::run_batch of the same
//     specs — the wire adds transport, never changes results;
//   - an abrupt client disconnect mid-request drives
//     InferenceService::cancel: RobustnessStats.cancelled advances and
//     every slot is still consumed (server stop + service shutdown
//     return instead of hanging on a leak);
//   - wire error codes round-trip 1:1 with the service taxonomy:
//     a networked caller catches exactly the exception type a local
//     wait() would have thrown;
//   - a slow-loris connection (partial frame, no progress) times out and
//     is told why, without stalling the healthy connection next to it.

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "service/request_stream.hpp"
#include "util/fault_injection.hpp"

namespace dynasparse {
namespace {

using namespace std::chrono_literals;

/// Disarm the global injector on scope exit — chaos-style tests must not
/// leak armed sites into neighbors.
struct DisarmGuard {
  ~DisarmGuard() { FaultInjector::global().disarm(); }
};

StreamRequestSpec spec_of(const char* dataset, GnnModelKind model,
                          std::uint64_t seed) {
  StreamRequestSpec spec;
  spec.dataset = dataset;
  spec.model = model;
  spec.seed = seed;
  return spec;
}

/// The mixed workload both sides of the bit-identity test run.
std::vector<StreamRequestSpec> loopback_specs() {
  return {
      spec_of("CI", GnnModelKind::kGcn, 2023),
      spec_of("CO", GnnModelKind::kGcn, 2023),
      spec_of("PU", GnnModelKind::kGcn, 2023),
      spec_of("CI", GnnModelKind::kSage, 7),
      spec_of("CO", GnnModelKind::kSage, 7),
  };
}

/// Per-recv client timeout: generous, because sanitizer lanes slow
/// execution 10-20x and a client's first RESULT can sit behind a full
/// queue of real requests. Tests that want a *hang* to fail rely on the
/// ctest harness timeout, not this.
constexpr std::int64_t kClientTimeoutMs = 120000;

/// Poll `pred` for up to `budget`, returning whether it became true.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget = 30000ms) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// Raw TCP connect for tests that need to misbehave below NetClient.
int raw_connect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return fd;
}

/// Read frames off a raw socket until EOF/timeout; returns them decoded.
std::vector<WireFrame> raw_read_frames(int fd) {
  std::vector<std::uint8_t> buf;
  std::vector<WireFrame> frames;
  while (true) {
    std::uint8_t chunk[1024];
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // EOF, timeout, or reset — the caller asserts on
                        // what it already got
    buf.insert(buf.end(), chunk, chunk + n);
    WireFrame f;
    std::size_t consumed = 0;
    try {
      while (try_extract_frame(buf.data(), buf.size(), f, consumed)) {
        frames.push_back(f);
        buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(consumed));
      }
    } catch (const WireProtocolError&) {
      ADD_FAILURE() << "server sent malformed bytes";
      break;
    }
  }
  return frames;
}

TEST(NetService, ConcurrentClientsMatchDirectRunBatchBitForBit) {
  // Ground truth: the same specs through a local service, no network.
  const std::vector<StreamRequestSpec> specs = loopback_specs();
  std::vector<std::uint64_t> expected;
  {
    InferenceService local(ServiceOptions{});
    std::vector<ServiceRequest> reqs;
    for (const StreamRequestSpec& s : specs) reqs.push_back(materialize_request(s));
    for (const InferenceReport& rep : local.run_batch(std::move(reqs)))
      expected.push_back(rep.deterministic_fingerprint());
  }

  InferenceService service(ServiceOptions{});
  NetServer server(service);
  server.start();

  constexpr int kClients = 3;
  std::vector<std::vector<std::uint64_t>> got(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      NetClient client("127.0.0.1", server.port(), kClientTimeoutMs);
      // Pipelined: submit everything, then await by correlation id —
      // out-of-order completion on the server is invisible here.
      std::vector<std::uint64_t> corrs;
      for (const StreamRequestSpec& s : specs) corrs.push_back(client.submit(s));
      for (std::uint64_t corr : corrs) {
        NetClient::Outcome out = client.await(corr);
        ASSERT_TRUE(out.ok) << out.error.message;
        got[static_cast<std::size_t>(c)].push_back(out.result.fingerprint);
        EXPECT_GT(out.result.server_ms, 0.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(got[static_cast<std::size_t>(c)], expected) << "client " << c;

  NetServerStats ns = server.stats();
  EXPECT_EQ(ns.accepted, kClients);
  EXPECT_EQ(ns.submits, static_cast<std::int64_t>(specs.size()) * kClients);
  EXPECT_EQ(ns.results, ns.submits);
  EXPECT_EQ(ns.errors_sent, 0);
  EXPECT_EQ(ns.protocol_errors, 0);
  server.stop();
}

TEST(NetService, DisconnectMidRequestCancelsInFlightAndLeaksNoSlot) {
  // One worker serializes execution, so requests behind the head stay
  // queued — guaranteed in flight when the client vanishes.
  ServiceOptions opts;
  opts.workers = 1;
  InferenceService service(opts);
  NetServer server(service);
  server.start();

  const std::int64_t cancelled_before = service.robustness_stats().cancelled;
  {
    NetClient client("127.0.0.1", server.port(), kClientTimeoutMs);
    // Distinct seeds: no compilation-cache hit can make these instant.
    client.submit(spec_of("CI", GnnModelKind::kGcn, 101));
    client.submit(spec_of("CO", GnnModelKind::kGcn, 102));
    client.submit(spec_of("PU", GnnModelKind::kGcn, 103));
    // Destroying the client closes the socket with everything in flight.
  }
  EXPECT_TRUE(eventually([&] {
    return server.stats().disconnect_cancels >= 1 &&
           service.robustness_stats().cancelled > cancelled_before;
  })) << "disconnect did not drive cancel(id)";

  // No slot leak: the server consumed every orphaned slot via wait(), so
  // both teardowns return instead of hanging on an unconsumed slot (the
  // test harness timeout is the enforcement).
  server.stop();
  service.shutdown();
  EXPECT_EQ(server.stats().submits, 3);
  EXPECT_GT(service.robustness_stats().cancelled, cancelled_before);
}

TEST(NetService, CancelledErrorRoundTripsOverTheWire) {
  ServiceOptions opts;
  opts.workers = 1;
  InferenceService service(opts);
  NetServer server(service);
  server.start();
  NetClient client("127.0.0.1", server.port(), kClientTimeoutMs);

  // Head request occupies the only worker; the target stays queued, so
  // CANCEL always wins its race.
  const std::uint64_t head = client.submit(spec_of("CI", GnnModelKind::kGcn, 201));
  const std::uint64_t target = client.submit(spec_of("CO", GnnModelKind::kGcn, 202));
  EXPECT_TRUE(client.cancel(target));
  NetClient::Outcome out = client.await(target);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error.code, WireErrorCode::kCancelled);
  EXPECT_THROW(out.rethrow(), CancelledError);
  EXPECT_TRUE(client.await(head).ok);  // the neighbor is untouched
  server.stop();
}

TEST(NetService, DeadlineExceededRoundTripsOverTheWire) {
  ServiceOptions opts;
  opts.workers = 1;
  InferenceService service(opts);
  NetServer server(service);
  server.start();
  NetClient client("127.0.0.1", server.port(), kClientTimeoutMs);

  const std::uint64_t head = client.submit(spec_of("CI", GnnModelKind::kGcn, 301));
  StreamRequestSpec doomed = spec_of("CO", GnnModelKind::kGcn, 302);
  doomed.deadline_ms = 1;  // expires while queued behind the head
  const std::uint64_t target = client.submit(doomed);
  NetClient::Outcome out = client.await(target);
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error.code, WireErrorCode::kDeadlineExceeded);
  EXPECT_THROW(out.rethrow(), DeadlineExceededError);
  EXPECT_TRUE(client.await(head).ok);
  server.stop();
}

TEST(NetService, AdmissionRejectedRoundTripsOverTheWire) {
  ServiceOptions opts;
  opts.workers = 1;
  opts.max_queue_depth = 1;
  opts.admission = AdmissionPolicy::kReject;
  InferenceService service(opts);
  NetServer server(service);
  server.start();
  NetClient client("127.0.0.1", server.port(), kClientTimeoutMs);

  // Burst-submit one identical spec: after the first SUBMIT the server's
  // materialization memo makes the rest near-free for the loop thread,
  // while the single worker still pays a full execute per request — so
  // with a depth-1 queue at least one of 8 must be refused, and the
  // refusal is typed, end to end.
  std::vector<std::uint64_t> corrs;
  for (int s = 0; s < 8; ++s)
    corrs.push_back(client.submit(spec_of("CI", GnnModelKind::kGcn, 400)));
  int completed = 0, rejected = 0;
  for (std::uint64_t corr : corrs) {
    NetClient::Outcome out = client.await(corr);
    if (out.ok) {
      ++completed;
      continue;
    }
    ASSERT_EQ(out.error.code, WireErrorCode::kAdmissionRejected)
        << out.error.message;
    EXPECT_THROW(out.rethrow(), AdmissionRejectedError);
    ++rejected;
  }
  EXPECT_GT(completed, 0);
  EXPECT_GT(rejected, 0);
  server.stop();
}

TEST(NetService, ExecutionErrorRoundTripsOverTheWire) {
  DisarmGuard guard;
  ServiceOptions opts;
  opts.fault_spec = "runtime.kernel_fault:1,seed:9";  // every execute fails
  InferenceService service(opts);
  NetServer server(service);
  server.start();
  NetClient client("127.0.0.1", server.port(), kClientTimeoutMs);
  NetClient::Outcome out =
      client.await(client.submit(spec_of("CI", GnnModelKind::kGcn, 501)));
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error.code, WireErrorCode::kExecutionError);
  EXPECT_THROW(out.rethrow(), ExecutionError);
  server.stop();
}

TEST(NetService, UnknownAndInvalidRequestsAreTyped) {
  InferenceService service(ServiceOptions{});
  NetServer server(service);
  server.start();
  NetClient client("127.0.0.1", server.port(), kClientTimeoutMs);

  // POLL/CANCEL for a correlation id that never existed.
  EXPECT_THROW(client.poll_state(999), std::invalid_argument);
  EXPECT_THROW(client.cancel(999), std::invalid_argument);

  // Well-formed frame, unusable request: a dataset tag that passes the
  // charset check but names nothing.
  NetClient::Outcome out =
      client.await(client.submit(spec_of("no-such-dataset", GnnModelKind::kGcn, 1)));
  ASSERT_FALSE(out.ok);
  EXPECT_EQ(out.error.code, WireErrorCode::kInvalidRequest);
  EXPECT_THROW(out.rethrow(), std::invalid_argument);

  // And the conversation survives both: this connection still serves.
  EXPECT_TRUE(client.await(client.submit(spec_of("CI", GnnModelKind::kGcn, 1))).ok);
  std::string stats = client.stats();
  EXPECT_NE(stats.find("submits="), std::string::npos);
  // The memory-budget and tile-pool gauges ride the same STATS reply, so a
  // wire client can watch residency without a side channel. Numbers are
  // load-dependent; presence is the contract.
  for (const char* key :
       {"budget_limit=", "budget_bytes=", "budget_high_water=", "pool_entries=",
        "pool_bytes=", "pool_shared_refs="})
    EXPECT_NE(stats.find(key), std::string::npos) << key;
  server.stop();
}

TEST(NetService, StatsReplyRendersEveryMetric) {
  ServiceOptions opts;
  opts.result_cache_capacity = 4;
  opts.plan_store_capacity = 4;
  InferenceService service(opts);
  NetServer server(service);
  server.start();
  NetClient client("127.0.0.1", server.port(), kClientTimeoutMs);
  ASSERT_TRUE(
      client.await(client.submit(spec_of("CI", GnnModelKind::kGcn, 3))).ok);

  // The reply is exactly NetServer::metrics(): the same names in the same
  // order, each once, with equal counter values. A worker may still drop
  // its references (the *_shared_refs gauges) just after its RESULT went
  // out, so the snapshots are compared once the service has settled.
  std::vector<std::pair<std::string, std::string>> reply;
  Metrics expected;
  auto settled = [&] {
    reply.clear();
    std::istringstream tokens(client.stats());
    for (std::string tok; tokens >> tok;) {
      const std::size_t eq = tok.find('=');
      reply.emplace_back(tok.substr(0, eq),
                         eq == std::string::npos ? "" : tok.substr(eq + 1));
    }
    expected = server.metrics();
    if (reply.size() != expected.list().size()) return false;
    for (std::size_t i = 0; i < reply.size(); ++i) {
      const Metrics::Metric& m = expected.list()[i];
      const auto* count = std::get_if<std::int64_t>(&m.value);
      if (reply[i].first != m.name ||
          (count && reply[i].second != std::to_string(*count)))
        return false;
    }
    return true;
  };
  EXPECT_TRUE(eventually(settled));
  ASSERT_EQ(reply.size(), expected.list().size());
  std::set<std::string> seen;
  for (std::size_t i = 0; i < reply.size(); ++i) {
    const Metrics::Metric& m = expected.list()[i];
    EXPECT_EQ(reply[i].first, m.name) << i;
    EXPECT_TRUE(seen.insert(m.name).second) << m.name << " listed twice";
    if (const auto* count = std::get_if<std::int64_t>(&m.value))
      EXPECT_EQ(reply[i].second, std::to_string(*count)) << m.name;
  }
  // The memo and plan tiers reach the wire too.
  EXPECT_TRUE(seen.count("result_cache_misses"));
  EXPECT_TRUE(seen.count("plan_planned"));
  server.stop();
}

TEST(NetService, PollReportsLifecycleStates) {
  ServiceOptions opts;
  opts.workers = 1;
  InferenceService service(opts);
  NetServer server(service);
  server.start();
  NetClient client("127.0.0.1", server.port(), kClientTimeoutMs);
  client.submit(spec_of("CI", GnnModelKind::kGcn, 601));  // occupies the worker
  const std::uint64_t corr = client.submit(spec_of("CO", GnnModelKind::kGcn, 602));
  const std::uint8_t state = client.poll_state(corr);
  EXPECT_LE(state, 3);  // a valid lifecycle state, most likely 0 (queued)
  // Both requests resolve; their states were observable along the way.
  EXPECT_TRUE(client.await_any().ok);
  EXPECT_TRUE(client.await_any().ok);
  server.stop();
}

TEST(NetService, SlowLorisTimesOutWithoutStallingOthers) {
  InferenceService service(ServiceOptions{});
  NetServerOptions net;
  net.frame_timeout_ms = 200;
  NetServer server(service, net);
  server.start();

  // The attacker: half a SUBMIT frame, then silence.
  int loris = raw_connect(server.port());
  const std::vector<std::uint8_t> frame =
      encode_submit(1, spec_of("CI", GnnModelKind::kGcn, 1));
  ASSERT_EQ(::send(loris, frame.data(), 12, MSG_NOSIGNAL), 12);

  // The healthy neighbor completes while the loris stalls.
  NetClient client("127.0.0.1", server.port(), kClientTimeoutMs);
  EXPECT_TRUE(client.await(client.submit(spec_of("CI", GnnModelKind::kGcn, 701))).ok);

  EXPECT_TRUE(eventually([&] { return server.stats().timeouts >= 1; }))
      << "slow-loris connection was never timed out";
  // The loris is told why before the close: a kProtocol ERROR, then EOF.
  std::vector<WireFrame> frames = raw_read_frames(loris);
  ASSERT_EQ(frames.size(), 1u);
  WireError err = decode_error(frames[0]);
  EXPECT_EQ(err.code, WireErrorCode::kProtocol);
  EXPECT_NE(err.message.find("timeout"), std::string::npos);
  ::close(loris);
  server.stop();
}

TEST(NetService, HostileLengthPrefixGetsTypedAnswerThenClose) {
  InferenceService service(ServiceOptions{});
  NetServer server(service);
  server.start();

  int fd = raw_connect(server.port());
  std::uint8_t hostile[8];
  const std::uint64_t huge = std::uint64_t{1} << 63;
  for (int i = 0; i < 8; ++i)
    hostile[i] = static_cast<std::uint8_t>(huge >> (8 * i));
  ASSERT_EQ(::send(fd, hostile, sizeof hostile, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof hostile));

  std::vector<WireFrame> frames = raw_read_frames(fd);
  ASSERT_EQ(frames.size(), 1u);
  WireError err = decode_error(frames[0]);
  EXPECT_EQ(err.code, WireErrorCode::kProtocol);
  ::close(fd);
  EXPECT_TRUE(eventually([&] { return server.stats().protocol_errors >= 1; }));
  server.stop();
}

TEST(NetService, ServerStopWithLiveConnectionsDeliversShutdownErrors) {
  ServiceOptions opts;
  opts.workers = 1;
  InferenceService service(opts);
  NetServer server(service);
  server.start();
  NetClient client("127.0.0.1", server.port(), kClientTimeoutMs);
  // Several requests in flight when the server goes down: each resolves
  // to SOME terminal frame (kShuttingDown or kCancelled once the stop
  // cancels it, a RESULT if it won the race) — never silence.
  std::vector<std::uint64_t> corrs;
  for (std::uint64_t s = 0; s < 3; ++s)
    corrs.push_back(client.submit(spec_of("CI", GnnModelKind::kGcn, 800 + s)));
  std::thread stopper([&] { server.stop(); });
  int resolved = 0;
  try {
    for (std::size_t i = 0; i < corrs.size(); ++i) {
      NetClient::Outcome out = client.await_any();
      if (!out.ok)
        EXPECT_TRUE(out.error.code == WireErrorCode::kShuttingDown ||
                    out.error.code == WireErrorCode::kCancelled)
            << wire_error_name(out.error.code);
      ++resolved;
    }
  } catch (const NetError&) {
    // EOF once the server closes the socket — acceptable only after at
    // least the already-completed answers arrived; resolution is checked
    // below via server accounting instead.
  }
  stopper.join();
  NetServerStats ns = server.stats();
  EXPECT_EQ(ns.results + ns.errors_sent + ns.disconnect_cancels >= ns.submits,
            true);
  (void)resolved;
  service.shutdown();
}

}  // namespace
}  // namespace dynasparse
