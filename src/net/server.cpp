#include "net/server.hpp"

#include <cerrno>
#include <cstring>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/fault_injection.hpp"
#include "net/errors.hpp"
#include "util/logging.hpp"

namespace dynasparse {

namespace {

constexpr int kListenBacklog = 64;
/// Poll tick while requests are in flight: bounds the added completion
/// -> RESULT latency.
constexpr int kCompletionPollMs = 1;

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetSetupError(what + ": " + std::strerror(errno));
}

std::uint8_t state_code(RequestState s) {
  switch (s) {
    case RequestState::kQueued: return 0;
    case RequestState::kRunning: return 1;
    case RequestState::kDone: return 2;
    case RequestState::kFailed: return 3;
  }
  return 3;
}

}  // namespace

NetServer::NetServer(InferenceService& service, NetServerOptions options)
    : service_(service), options_(std::move(options)) {
  if (options_.max_connections == 0)
    throw std::invalid_argument("NetServerOptions::max_connections must be > 0");
  if (options_.frame_timeout_ms < 0)
    throw std::invalid_argument("NetServerOptions::frame_timeout_ms must be >= 0");
}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  std::lock_guard<OrderedMutex> lk(lifecycle_mu_);
  if (thread_.joinable())
    // Programming error (double start), not an environment failure.
    throw std::logic_error("NetServer already started");

  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    throw std::invalid_argument("NetServer: bad listen host " + options_.host);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    throw_errno("bind " + options_.host + ":" + std::to_string(options_.port));
  if (::listen(fd.get(), kListenBacklog) != 0) throw_errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    throw_errno("getsockname");
  port_ = ntohs(bound.sin_port);

  set_nonblocking(fd.get());
  listener_ = std::move(fd);
  loop_.add(listener_.get(), EventLoop::kRead,
            [this](std::uint32_t ev) { handle_listener(ev); });

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop_main(); });
}

void NetServer::stop() {
  std::lock_guard<OrderedMutex> lk(lifecycle_mu_);
  if (!thread_.joinable()) return;
  running_.store(false, std::memory_order_release);
  loop_.wake();
  thread_.join();
}

NetServerStats NetServer::stats() const {
  std::lock_guard<OrderedMutex> lk(stats_mu_);
  return stats_;
}

Metrics NetServer::metrics() const {
  const NetServerStats ns = stats();
  Metrics m;
  m.counter("connections", static_cast<std::int64_t>(open_connections_.load()));
  m.counter("accepted", ns.accepted);
  m.counter("refused", ns.refused);
  m.counter("frames", ns.frames);
  m.counter("submits", ns.submits);
  m.counter("results", ns.results);
  m.counter("errors_sent", ns.errors_sent);
  m.counter("protocol_errors", ns.protocol_errors);
  m.counter("timeouts", ns.timeouts);
  m.counter("disconnect_cancels", ns.disconnect_cancels);
  m.append(service_.metrics());
  return m;
}

void NetServer::bump(std::int64_t NetServerStats::*field) {
  std::lock_guard<OrderedMutex> lk(stats_mu_);
  ++(stats_.*field);
}

int NetServer::poll_timeout_ms() const {
  if (!pending_.empty()) return kCompletionPollMs;
  for (const auto& [id, conn] : conns_) {
    (void)id;
    if (conn->has_partial_frame()) return 20;  // slow-loris watch
  }
  return 200;
}

void NetServer::loop_main() {
  while (running_.load(std::memory_order_acquire)) {
    loop_.poll_once(poll_timeout_ms());
    finalize_completions();
    check_frame_timeouts();
    reap_connections();
    for (auto& [id, conn] : conns_) {
      (void)id;
      refresh_interest(*conn);
    }
  }
  // Shutdown: cancel every in-flight request, consume every slot (no
  // leak), tell every surviving owner the server is going down, close.
  for (auto& [rid, p] : pending_) {
    (void)p;
    try {
      service_.cancel(rid);
    } catch (const std::exception&) {
      // already terminal or service gone — wait() below settles it
    }
  }
  for (auto& [rid, p] : pending_) {
    try {
      (void)service_.wait(rid);
    } catch (const std::exception&) {
      // outcome irrelevant: the slot is consumed, which is the contract
    }
    for (auto& [cid, conn] : conns_) {
      if (cid == p.conn_id && !conn->closed()) {
        conn->send(encode_error(p.corr, WireErrorCode::kShuttingDown,
                                "server shutting down"));
        bump(&NetServerStats::errors_sent);
      }
    }
  }
  pending_.clear();
  corr_index_.clear();
  for (auto& [id, conn] : conns_) {
    (void)id;
    if (loop_.contains(conn->fd())) loop_.remove(conn->fd());
  }
  conns_.clear();  // destructors close the sockets
  open_connections_ = 0;
  if (listener_.valid()) {
    loop_.remove(listener_.get());
    listener_.reset();
  }
  materialized_.clear();
}

void NetServer::handle_listener(std::uint32_t events) {
  if (!(events & EventLoop::kRead)) return;
  while (true) {
    int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      log_warn("NetServer accept failed: " + std::string(std::strerror(errno)));
      return;
    }
    // Chaos site net.accept / connection cap: refuse by closing — the
    // client observes an immediate EOF, the canonical "try again"
    // signal, and established connections are untouched.
    if (conns_.size() >= options_.max_connections || fault_point(kFaultNetAccept)) {
      ::close(fd);
      bump(&NetServerStats::refused);
      continue;
    }
    try {
      set_nonblocking(fd);
    } catch (const std::exception& e) {
      ::close(fd);
      log_warn(std::string("NetServer: ") + e.what());
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const std::uint64_t conn_id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(fd, conn_id);
    loop_.add(fd, conn->interest(),
              [this, conn_id](std::uint32_t ev) { handle_connection(conn_id, ev); });
    conns_.emplace(conn_id, std::move(conn));
    open_connections_ = conns_.size();
    bump(&NetServerStats::accepted);
  }
}

void NetServer::handle_connection(std::uint64_t conn_id, std::uint32_t events) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  if (events & EventLoop::kError) {
    conn.close();
    return;
  }
  if (events & EventLoop::kWrite) conn.on_writable();
  if (events & EventLoop::kRead) {
    std::vector<WireFrame> frames;
    conn.on_readable(frames);
    // Frames extracted before a violation — or before an EOF in the same
    // read burst (submit-then-disconnect is a legitimate client shape) —
    // are valid: serve them all. Responses to an already-dead connection
    // fall out in Connection::send (a no-op on kClosed), and the reap
    // pass then cancels whatever these frames put in flight.
    for (const WireFrame& f : frames) {
      bump(&NetServerStats::frames);
      dispatch_frame(conn, f);
    }
    if (conn.protocol_error() && conn.state() == Connection::State::kOpen) {
      bump(&NetServerStats::protocol_errors);
      bump(&NetServerStats::errors_sent);
      conn.send(encode_error(0, WireErrorCode::kProtocol,
                             *conn.protocol_error()));
      conn.begin_drain();
    }
  }
  refresh_interest(conn);
}

void NetServer::dispatch_frame(Connection& conn, const WireFrame& frame) {
  auto protocol_violation = [&](const std::string& msg) {
    bump(&NetServerStats::protocol_errors);
    bump(&NetServerStats::errors_sent);
    conn.send(encode_error(frame.corr, WireErrorCode::kProtocol, msg));
    conn.begin_drain();
  };
  switch (frame.type) {
    case FrameType::kSubmit:
      handle_submit(conn, frame);
      return;
    case FrameType::kPoll: {
      try {
        decode_empty(frame);
      } catch (const WireProtocolError& e) {
        protocol_violation(e.what());
        return;
      }
      auto& index = corr_index_[conn.id()];
      auto pit = index.find(frame.corr);
      if (pit == index.end()) {
        bump(&NetServerStats::errors_sent);
        conn.send(encode_error(frame.corr, WireErrorCode::kUnknownRequest,
                               "unknown correlation id (never submitted, or "
                               "already resolved)"));
        return;
      }
      conn.send(encode_state(frame.corr, state_code(service_.state(pit->second))));
      return;
    }
    case FrameType::kCancel: {
      try {
        decode_empty(frame);
      } catch (const WireProtocolError& e) {
        protocol_violation(e.what());
        return;
      }
      auto& index = corr_index_[conn.id()];
      auto pit = index.find(frame.corr);
      if (pit == index.end()) {
        bump(&NetServerStats::errors_sent);
        conn.send(encode_error(frame.corr, WireErrorCode::kUnknownRequest,
                               "unknown correlation id (never submitted, or "
                               "already resolved)"));
        return;
      }
      bool cancelled = false;
      try {
        cancelled = service_.cancel(pit->second);
      } catch (const std::invalid_argument&) {
        cancelled = false;  // slot raced to terminal; the RESULT/ERROR is coming
      }
      conn.send(encode_state(frame.corr, cancelled ? 1 : 0));
      return;
    }
    case FrameType::kStats: {
      try {
        decode_empty(frame);
      } catch (const WireProtocolError& e) {
        protocol_violation(e.what());
        return;
      }
      conn.send(encode_stats_reply(frame.corr, metrics().render_kv()));
      return;
    }
    case FrameType::kResult:
    case FrameType::kError:
    case FrameType::kState:
    case FrameType::kStatsReply:
      break;
  }
  protocol_violation(std::string("client sent a server-to-client frame type ") +
                     frame_type_name(frame.type));
}

ServiceRequest NetServer::materialize_cached(const StreamRequestSpec& spec) {
  StreamRequestSpec content = spec;
  content.deadline_ms = 0;  // deadline is per-submit, not part of the content
  const std::string key = content.to_line();
  auto it = materialized_.find(key);
  if (it == materialized_.end()) {
    if (materialized_.size() >= 256) materialized_.clear();  // crude bound
    it = materialized_.emplace(key, materialize_request(content)).first;
  }
  ServiceRequest req = it->second;  // shared_ptr copies: cheap
  req.deadline_ms = spec.deadline_ms;
  return req;
}

void NetServer::handle_submit(Connection& conn, const WireFrame& frame) {
  StreamRequestSpec spec;
  try {
    spec = decode_submit(frame);
  } catch (const WireProtocolError& e) {
    bump(&NetServerStats::protocol_errors);
    bump(&NetServerStats::errors_sent);
    conn.send(encode_error(frame.corr, WireErrorCode::kProtocol, e.what()));
    conn.begin_drain();
    return;
  }
  auto& index = corr_index_[conn.id()];
  if (index.count(frame.corr)) {
    // Reusing a live correlation id would make responses ambiguous: a
    // protocol-FSM violation, not a request failure.
    bump(&NetServerStats::protocol_errors);
    bump(&NetServerStats::errors_sent);
    conn.send(encode_error(frame.corr, WireErrorCode::kProtocol,
                           "correlation id already in flight on this "
                           "connection"));
    conn.begin_drain();
    return;
  }
  ServiceRequest req;
  try {
    req = materialize_cached(spec);
  } catch (const std::exception& e) {
    // Well-formed frame, unusable request (unknown dataset tag, ...).
    bump(&NetServerStats::errors_sent);
    conn.send(encode_error(frame.corr, WireErrorCode::kInvalidRequest, e.what()));
    return;
  }
  RequestId id = 0;
  try {
    id = service_.submit(std::move(req));
  } catch (const std::invalid_argument& e) {
    bump(&NetServerStats::errors_sent);
    conn.send(encode_error(frame.corr, WireErrorCode::kInvalidRequest, e.what()));
    return;
  } catch (const std::exception& e) {
    // The submit/shutdown race: the service refused cleanly, so the wire
    // answer is a typed kShuttingDown — never a silently dropped frame.
    bump(&NetServerStats::errors_sent);
    conn.send(encode_error(frame.corr, WireErrorCode::kShuttingDown, e.what()));
    return;
  }
  Pending p;
  p.conn_id = conn.id();
  p.corr = frame.corr;
  p.request = id;
  p.submitted = std::chrono::steady_clock::now();
  pending_.emplace(id, p);
  index.emplace(frame.corr, id);
  bump(&NetServerStats::submits);
}

void NetServer::finalize_completions() {
  if (pending_.empty()) return;
  std::vector<RequestId> done;
  for (const auto& [rid, p] : pending_) {
    (void)p;
    if (service_.done(rid)) done.push_back(rid);
  }
  for (RequestId rid : done) {
    auto pit = pending_.find(rid);
    Pending p = pit->second;
    pending_.erase(pit);
    auto cit = conns_.find(p.conn_id);
    Connection* conn =
        (cit != conns_.end() && !cit->second->closed()) ? cit->second.get()
                                                        : nullptr;
    if (p.conn_id != 0) {
      auto iit = corr_index_.find(p.conn_id);
      if (iit != corr_index_.end()) iit->second.erase(p.corr);
    }
    // wait() completes immediately (done(id) was true) and consumes the
    // slot — orphaned requests (owner disconnected) are consumed too, so
    // no slot ever leaks.
    std::vector<std::uint8_t> response;
    try {
      InferenceReport rep = service_.wait(rid);
      WireResult result;
      result.fingerprint = rep.deterministic_fingerprint();
      result.sim_latency_ms = rep.latency_ms;
      result.server_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - p.submitted)
                             .count();
      response = encode_result(p.corr, result);
      bump(&NetServerStats::results);
    } catch (const CancelledError& e) {
      response = encode_error(p.corr, WireErrorCode::kCancelled, e.what());
    } catch (const DeadlineExceededError& e) {
      response = encode_error(p.corr, WireErrorCode::kDeadlineExceeded, e.what());
    } catch (const AdmissionRejectedError& e) {
      response = encode_error(p.corr, WireErrorCode::kAdmissionRejected, e.what());
    } catch (const ExecutionError& e) {
      response = encode_error(p.corr, WireErrorCode::kExecutionError, e.what());
    } catch (const std::exception& e) {
      response = encode_error(p.corr, WireErrorCode::kShuttingDown, e.what());
    }
    if (conn) {
      if (response[kFrameLenBytes + 1] ==
          static_cast<std::uint8_t>(FrameType::kError))
        bump(&NetServerStats::errors_sent);
      conn->send(response);
      refresh_interest(*conn);
    }
  }
}

void NetServer::check_frame_timeouts() {
  if (options_.frame_timeout_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  for (auto& [id, conn] : conns_) {
    (void)id;
    if (!conn->has_partial_frame()) continue;
    const double stalled_ms =
        std::chrono::duration<double, std::milli>(now - conn->last_progress())
            .count();
    if (stalled_ms < static_cast<double>(options_.frame_timeout_ms)) continue;
    // Slow loris: a partial frame that stopped progressing. One typed
    // answer, then the connection is gone — other connections never
    // waited on it (the loop is non-blocking throughout).
    bump(&NetServerStats::timeouts);
    bump(&NetServerStats::errors_sent);
    conn->send(encode_error(0, WireErrorCode::kProtocol,
                            "frame timeout: partial frame stalled for " +
                                std::to_string(options_.frame_timeout_ms) +
                                " ms"));
    conn->begin_drain();
  }
}

void NetServer::reap_connections() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& conn = *it->second;
    if (!conn.closed()) {
      ++it;
      continue;
    }
    // A dropped connection maps onto cancel(id): its in-flight requests
    // abort cooperatively, and finalize_completions later consumes their
    // slots (conn_id = 0 marks them ownerless).
    auto iit = corr_index_.find(conn.id());
    if (iit != corr_index_.end()) {
      for (const auto& [corr, rid] : iit->second) {
        (void)corr;
        auto pit = pending_.find(rid);
        if (pit != pending_.end()) pit->second.conn_id = 0;
        try {
          if (service_.cancel(rid)) bump(&NetServerStats::disconnect_cancels);
        } catch (const std::exception&) {
          // already terminal — finalize will consume it regardless
        }
      }
      corr_index_.erase(iit);
    }
    if (loop_.contains(conn.fd())) loop_.remove(conn.fd());
    it = conns_.erase(it);
  }
  open_connections_ = conns_.size();
}

void NetServer::refresh_interest(Connection& conn) {
  if (conn.closed() || !loop_.contains(conn.fd())) return;
  loop_.set_interest(conn.fd(), conn.interest());
}

}  // namespace dynasparse
