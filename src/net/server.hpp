#pragma once
// NetServer — the concurrent TCP serving front-end over InferenceService.
//
// One event-loop thread (net/event_loop.hpp, poll-based) owns the
// listener and every Connection (net/connection.hpp); the
// InferenceService's worker threads execute requests exactly as they do
// for local submitters — the front-end is a protocol adapter, not a
// second execution engine. The loop thread:
//
//   1. accepts connections (bounded by max_connections; the chaos site
//      net.accept can refuse one, which a client observes as an
//      immediate close);
//   2. extracts frames and dispatches them: SUBMIT materializes the
//      StreamRequestSpec deterministically (request_stream.hpp, with a
//      small memo so repeat-heavy streams regenerate each unique content
//      once) and feeds InferenceService::submit — admission control,
//      deadlines, caches, and the fault injector all apply unchanged;
//   3. ticks: completed requests (InferenceService::done) resolve to
//      RESULT/ERROR frames carrying the deterministic fingerprint or the
//      taxonomy error code (net/wire.hpp), and stalled partial frames
//      time out (slow-loris defense) without affecting other
//      connections;
//   4. reaps dead connections, cancelling their in-flight requests via
//      InferenceService::cancel — a dropped client is a cancellation,
//      exactly as ROADMAP promised — and still consuming each slot via
//      wait() so nothing leaks.
//
// Deadline mapping: a SUBMIT's deadline_ms rides ServiceRequest::
// deadline_ms unchanged (ServiceOptions::default_deadline_ms still
// supplies the default), so the whole PR-6 expiry machinery serves the
// wire. Error mapping: every non-completed request resolves to exactly
// one WireErrorCode (the closed taxonomy); a shutdown-racing submit
// surfaces as kShuttingDown — never a silently dropped frame.
//
// Blocking caveat: with AdmissionPolicy::kBlock and a bounded full
// queue, submit() blocks the loop thread — backpressure propagates to
// every connection (TCP naturally stops reading). Prefer kReject or
// kShedOldest for networked services; the tests use those.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/errors.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "util/metrics.hpp"
#include "util/ordered_mutex.hpp"
#include "service/inference_service.hpp"
#include "service/request_stream.hpp"

namespace dynasparse {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks; port() reports the bound port.
  std::uint16_t port = 0;
  std::size_t max_connections = 256;
  /// A connection whose partial frame makes no progress for this long is
  /// closed (slow-loris defense). 0 disables the timeout.
  std::int64_t frame_timeout_ms = 2000;
};

/// Loop-thread counters, snapshot via NetServer::stats().
struct NetServerStats {
  std::int64_t accepted = 0;          // connections admitted
  std::int64_t refused = 0;           // over max_connections or net.accept fault
  std::int64_t frames = 0;            // well-formed frames dispatched
  std::int64_t submits = 0;           // SUBMIT frames fed to the service
  std::int64_t results = 0;           // RESULT frames sent
  std::int64_t errors_sent = 0;       // ERROR frames sent (any code)
  std::int64_t protocol_errors = 0;   // connections that violated the wire
  std::int64_t timeouts = 0;          // slow-loris closes
  std::int64_t disconnect_cancels = 0;  // in-flight cancels from teardown
};

class NetServer {
 public:
  /// The service must outlive the server. Options are validated here;
  /// throws std::invalid_argument on nonsense.
  NetServer(InferenceService& service, NetServerOptions options = {});
  ~NetServer();  // stop()
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Bind + listen + spawn the loop thread. Throws NetSetupError on
  /// bind/listen failure. port() is valid once this returns.
  void start();
  /// Stop the loop, cancel + consume every in-flight request, notify
  /// connections (kShuttingDown) and close them, join. Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  std::uint16_t port() const { return port_; }
  NetServerStats stats() const;
  /// Open connections and every NetServerStats field, then the service's
  /// InferenceService::metrics(): the list the wire STATS_REPLY renders.
  /// Safe from any thread.
  Metrics metrics() const;

 private:
  struct Pending {
    std::uint64_t conn_id = 0;  // owning connection (0 after it died)
    std::uint64_t corr = 0;
    RequestId request = 0;
    std::chrono::steady_clock::time_point submitted;
  };

  void loop_main();
  void handle_listener(std::uint32_t events);
  void handle_connection(std::uint64_t conn_id, std::uint32_t events);
  void dispatch_frame(Connection& conn, const WireFrame& frame);
  void handle_submit(Connection& conn, const WireFrame& frame);
  /// Send RESULT/ERROR for every in-flight request the service finished.
  void finalize_completions();
  /// Close connections whose partial frame stalled past frame_timeout_ms.
  void check_frame_timeouts();
  /// Unregister + destroy closed connections; cancel their in-flight.
  void reap_connections();
  void refresh_interest(Connection& conn);
  ServiceRequest materialize_cached(const StreamRequestSpec& spec);
  int poll_timeout_ms() const;
  void bump(std::int64_t NetServerStats::*field);

  InferenceService& service_;
  const NetServerOptions options_;
  EventLoop loop_;
  ScopedFd listener_;
  std::uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::thread thread_;
  OrderedMutex lifecycle_mu_{LockRank::kNetServerLifecycle};  // serializes start()/stop()

  // ---- loop-thread-confined state ----
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  /// conns_.size(), published by the loop thread for metrics().
  std::atomic<std::size_t> open_connections_{0};
  std::uint64_t next_conn_id_ = 1;
  /// In-flight requests, keyed by service RequestId. corr -> RequestId
  /// lives per connection in corr_index_ for POLL/CANCEL lookup.
  std::map<RequestId, Pending> pending_;
  std::unordered_map<std::uint64_t, std::unordered_map<std::uint64_t, RequestId>>
      corr_index_;
  /// Deterministic materialization memo (spec line minus deadline ->
  /// request): repeat-heavy streams regenerate each unique content once.
  std::unordered_map<std::string, ServiceRequest> materialized_;

  mutable OrderedMutex stats_mu_{LockRank::kNetServerStats};
  NetServerStats stats_;
};

}  // namespace dynasparse
