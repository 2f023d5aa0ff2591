// dynasparse_serve — replay a request stream through the InferenceService
// and report serving metrics (throughput, latency percentiles, cache
// effectiveness).
//
//   dynasparse_serve --requests 16 --workers 4
//   dynasparse_serve --stream workload.txt --cache 32 --json serve.json
//   dynasparse_serve --listen 7411 --workers 4 --max-queue 64 --admission shed
//
// Flags:
//   --listen PORT     serve the wire protocol (src/net/wire.hpp) on this
//                     TCP port instead of replaying a file: accepts
//                     connections until SIGINT/SIGTERM, then prints (and
//                     with --json, writes) the serving counters. PORT 0
//                     binds an ephemeral port and prints the choice. All
//                     service knobs below (--workers, --max-queue,
//                     --admission, --deadline-ms, --fault, ...) apply to
//                     the networked service unchanged; --stream/--requests
//                     are ignored in this mode.
//   --host H          listen address (default 127.0.0.1)
//   --max-conns N     concurrent-connection cap (default 256); further
//                     accepts are refused with an immediate close
//   --frame-timeout D slow-loris bound: close a connection whose partial
//                     frame stalls this long (duration; default 2s, 0 off)
//   --stream PATH     request-stream file (see src/service/request_stream.hpp)
//   --requests N      synthetic mixed workload of N requests (default 16;
//                     ignored when --stream is given)
//   --workers W       service worker threads (0 = hardware, default 0)
//   --intra-op N      per-request intra-op thread cap: 0 = share the
//                     work-stealing pool freely (default), 1 = serial per
//                     worker, N = at most N pool threads per request
//   --cache N         compilation-cache capacity in programs (default 16)
//   --memoize N       result-cache capacity in reports (default 0 = off):
//                     repeat requests return the memoized report without
//                     executing — bit-identical deterministic fields
//   --mem-budget SIZE process-wide memory budget across every cache tier
//                     (compiled programs + tile pool + reports), the only
//                     byte bound on them. Accepts "512m" / "2g" style
//                     suffixes; bare numbers are bytes. Default 0 =
//                     1280 MiB
//   --tile-pool N     shared operand tile-pool capacity in entries
//                     (default 64; 0 = each program holds private tiles)
//   --max-queue N     bound the request queue to N queued requests
//                     (default 0 = unbounded)
//   --admission P     full-queue policy: block | reject | shed
//                     (default block; only meaningful with --max-queue)
//   --plan-store N    PlanStore capacity in plans (default 0 = off):
//                     compilation-cache misses reuse the partition plan of
//                     an earlier request with the same planner inputs
//                     instead of re-planning — bit-identical reports; the
//                     planner takes microseconds, so compiles cost the same
//   --deadline-ms D   default per-request deadline (a duration: "250",
//                     "250ms", "1.5s"; default 0 = none). A stream line's
//                     own deadline_ms= wins over this.
//   --batch-window U  continuous-batching collect window in MICROSECONDS
//                     (default 0): queued requests with equal plan and
//                     dataset gather this long and are released as one
//                     batch, whose members run one at a time
//   --batch-max K     release a collecting batch at K members (default 0:
//                     with a window, unlimited; K > 1 alone enables
//                     opportunistic batching of already-queued bursts)
//   --cancel-after D  cancel every still-outstanding request D after the
//                     submit burst (a duration; default off) — exercises
//                     the cooperative-cancellation path end to end
//   --fault SPEC      arm the fault injector (util/fault_injection.hpp
//                     grammar, e.g. "runtime.kernel_fault:0.3,seed:7")
//   --warm            pre-compile every unique request before timing
//   --seed S          seed for the synthetic workload     (default 2023)
//   --json PATH       write the metrics as JSON, one "name": value per line
//
// Output: one `stats:` line of name=value tokens — serve's own run
// numbers (requests, completed, wall time, throughput, p50/p99, mean
// simulated latency; `port` in listen mode)
// followed by InferenceService::metrics() (and NetServer::metrics() in
// listen mode). --json writes the same list.
//
// Requests are submitted asynchronously up front; per-request latency is
// submit->completion (includes queueing), the honest serving number.
// Under --admission reject/shed some requests resolve as admission
// rejections; under --deadline-ms / --cancel-after / --fault some resolve
// as deadline expiries, cancellations, or execution failures. The service
// counts each non-completed outcome by its type (the closed error
// taxonomy); they are excluded from the latency percentiles. Under block
// the submit loop itself is backpressured.
//
// Every bad flag value is a usage error (exit 2): a malformed token at
// parse time, an out-of-range one (--workers -1, --max-conns 0, ...) when
// the service or server constructor rejects it.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/server.hpp"
#include "service/request_stream.hpp"
#include "util/stopwatch.hpp"
#include "util/strict_parse.hpp"

using namespace dynasparse;

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;
void request_stop(int) { g_stop_requested = 1; }

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n(see header of tools/dynasparse_serve.cpp)\n",
               msg.c_str());
  std::exit(2);
}

/// Construct a T, turning a constructor's rejection of an option into a
/// usage error instead of an uncaught exception.
template <typename T, typename... Args>
T construct_or_usage(Args&&... args) {
  try {
    return T(std::forward<Args>(args)...);
  } catch (const std::exception& e) {
    usage(e.what());
  }
}

/// Linear-interpolated percentile; `sorted_ms` must be sorted ascending.
double percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  double rank = p / 100.0 * static_cast<double>(sorted_ms.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac;
}

/// Print `m` as the `stats:` line and, with --json, write it to `path`.
void report(const Metrics& m, const std::string& path) {
  std::printf("stats: %s\n", m.render_kv().c_str());
  if (path.empty()) return;
  std::ofstream f(path);
  if (!f) usage("cannot write --json file");
  f << m.render_json();
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string stream_path, json_path, fault_spec;
  int requests = 16, workers = 0, intra_op = 0;
  std::size_t cache_capacity = 16, memoize = 0, max_queue = 0;
  std::size_t plan_store = 0;
  std::size_t mem_budget = 0, tile_pool = 64;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  std::uint64_t seed = 2023;
  std::int64_t deadline_ms = 0, cancel_after_ms = -1;  // -1 = no cancellation
  int batch_window_us = 0;
  std::size_t batch_max = 0;
  bool warm = false;
  int listen_port = -1;  // -1 = replay mode; 0 = ephemeral
  std::string listen_host = "127.0.0.1";
  std::size_t max_conns = 256;
  std::int64_t frame_timeout_ms = 2000;

  // Strict whole-token parsing (util/strict_parse.hpp): "--requests 16abc"
  // must be a usage error, not a silent 16, and "--requests foo" a clean
  // message, not an unhandled std::invalid_argument.
  std::string current_key;
  auto size_value = [&](const std::string& v) {
    std::int64_t n = strict_stoll(v);
    if (n < 0) throw std::invalid_argument("negative value " + v);
    return static_cast<std::size_t>(n);
  };
  try {
    for (int i = 1; i < argc; ++i) {
      std::string key = argv[i];
      current_key = key;
      auto need_value = [&]() -> std::string {
        if (i + 1 >= argc) usage("missing value for " + key);
        return argv[++i];
      };
      if (key == "--stream") stream_path = need_value();
      else if (key == "--requests") requests = strict_stoi(need_value());
      else if (key == "--workers") workers = strict_stoi(need_value());
      else if (key == "--intra-op") intra_op = strict_stoi(need_value());
      else if (key == "--cache") cache_capacity = size_value(need_value());
      else if (key == "--memoize") memoize = size_value(need_value());
      else if (key == "--mem-budget") mem_budget = parse_size_bytes(need_value());
      else if (key == "--tile-pool") tile_pool = size_value(need_value());
      else if (key == "--max-queue") max_queue = size_value(need_value());
      else if (key == "--plan-store") plan_store = size_value(need_value());
      else if (key == "--admission") admission = parse_admission_policy(need_value());
      else if (key == "--deadline-ms") deadline_ms = parse_duration_ms(need_value());
      else if (key == "--cancel-after") cancel_after_ms = parse_duration_ms(need_value());
      else if (key == "--batch-window") batch_window_us = strict_stoi(need_value());
      else if (key == "--batch-max") batch_max = size_value(need_value());
      else if (key == "--fault") fault_spec = need_value();
      else if (key == "--seed") seed = strict_stoull(need_value());
      else if (key == "--json") json_path = need_value();
      else if (key == "--warm") warm = true;
      else if (key == "--listen") {
        listen_port = strict_stoi(need_value());
        if (listen_port < 0 || listen_port > 65535)
          usage("--listen port must be in [0, 65535]");
      }
      else if (key == "--host") listen_host = need_value();
      else if (key == "--max-conns") max_conns = size_value(need_value());
      else if (key == "--frame-timeout") frame_timeout_ms = parse_duration_ms(need_value());
      else usage("unknown flag: " + key);
    }
  } catch (const std::exception& e) {
    usage("bad value for " + current_key + ": " + e.what());
  }

  ServiceOptions opts;
  opts.workers = workers;
  opts.cache_capacity = cache_capacity;
  opts.intra_op_threads = intra_op;
  opts.result_cache_capacity = memoize;
  opts.max_queue_depth = max_queue;
  opts.admission = admission;
  opts.plan_store_capacity = plan_store;
  opts.memory_budget_bytes = mem_budget;
  opts.tile_pool_capacity = tile_pool;
  opts.default_deadline_ms = deadline_ms;
  opts.fault_spec = fault_spec;
  opts.batch_window_us = batch_window_us;
  opts.max_batch_size = batch_max;
  // Options are validated/resolved by the service — before any workload
  // is materialized, so a bad value fails fast; report the effective
  // worker count (no hidden cap).
  InferenceService service = construct_or_usage<InferenceService>(opts);
  std::printf("service: %d workers, intra-op cap %d (0 = shared pool)\n",
              service.options().workers, service.options().intra_op_threads);

  if (listen_port >= 0) {
    NetServerOptions net;
    net.host = listen_host;
    net.port = static_cast<std::uint16_t>(listen_port);
    net.max_connections = max_conns;
    net.frame_timeout_ms = frame_timeout_ms;
    NetServer server = construct_or_usage<NetServer>(service, net);
    try {
      server.start();
    } catch (const std::exception& e) {
      usage(e.what());
    }
    std::printf("listening on %s:%u (max %zu connections, frame timeout %lld ms)\n",
                listen_host.c_str(), server.port(), max_conns,
                static_cast<long long>(frame_timeout_ms));
    std::fflush(stdout);
    std::signal(SIGINT, request_stop);
    std::signal(SIGTERM, request_stop);
    while (!g_stop_requested)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::printf("stop requested, draining\n");
    server.stop();
    service.shutdown();

    Metrics m;
    m.counter("port", server.port());
    m.append(server.metrics());
    report(m, json_path);
    return 0;
  }

  // Parse and materialize outside the timed region: dataset/model
  // generation stands in for request decoding, which a real frontend does
  // off the hot path. Any workload error (bad stream line, unknown
  // dataset tag) reports through usage() instead of an uncaught throw.
  std::vector<ServiceRequest> pool;
  try {
    std::vector<StreamRequestSpec> specs =
        stream_path.empty()
            ? synthetic_stream(requests, seed)
            : expand_stream(read_request_stream_file(stream_path));
    if (specs.empty()) usage("empty request stream");
    std::printf("replaying %zu requests (%s)\n", specs.size(),
                stream_path.empty() ? "synthetic mix" : stream_path.c_str());
    pool.reserve(specs.size());
    for (const StreamRequestSpec& spec : specs)
      pool.push_back(materialize_request(spec));
  } catch (const std::exception& e) {
    usage(e.what());
  }

  if (warm) {
    for (const ServiceRequest& req : pool)
      service.cache().get_or_compile(
          make_compile_key(*req.model, *req.dataset, req.options.config),
          *req.model, *req.dataset, req.options.config);
    std::printf("warmed cache: %lld programs compiled\n",
                static_cast<long long>(service.cache_stats().entries));
  }

  Stopwatch wall;
  std::vector<RequestId> ids;
  ids.reserve(pool.size());
  for (const ServiceRequest& req : pool) ids.push_back(service.submit(req));

  // --cancel-after: a client-side canceller racing the workers, the way a
  // frontend cancels on client disconnect. cancel() on an already-terminal
  // request returns false, which is the common case for a late canceller.
  std::thread canceller;
  if (cancel_after_ms >= 0) {
    canceller = std::thread([&service, &ids, cancel_after_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(cancel_after_ms));
      for (RequestId id : ids) {
        try {
          service.cancel(id);
        } catch (const std::invalid_argument&) {
          // id unknown (e.g. slot consumed by a racing wait) — fine.
        }
      }
    });
  }

  std::vector<double> latencies_ms;
  latencies_ms.reserve(ids.size());
  double sim_latency_ms = 0.0;
  std::size_t completed = 0;
  for (RequestId id : ids) {
    RequestTiming timing;
    // Any other outcome is one of the service's closed error taxonomy,
    // which the service counts itself; an uncaught throw here is a bug.
    try {
      InferenceReport rep = service.wait(id, &timing);
      latencies_ms.push_back(timing.total_ms);
      sim_latency_ms += rep.latency_ms;
      ++completed;
    } catch (const AdmissionRejectedError&) {  // --max-queue reject/shed
    } catch (const RequestAbortedError&) {     // cancel or deadline
    } catch (const ExecutionError&) {          // incl. injected faults
    }
  }
  if (canceller.joinable()) canceller.join();
  const double service_wall_ms = wall.elapsed_ms();
  const Metrics service_metrics = service.metrics();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  Metrics m;
  m.counter("requests", static_cast<std::int64_t>(ids.size()));
  m.counter("completed", static_cast<std::int64_t>(completed));
  m.gauge("wall_ms", service_wall_ms);
  m.gauge("throughput_req_per_s",
          static_cast<double>(completed) / (service_wall_ms / 1e3));
  m.gauge("latency_p50_ms", percentile(latencies_ms, 50.0));
  m.gauge("latency_p99_ms", percentile(latencies_ms, 99.0));
  m.gauge("mean_sim_latency_ms",
          completed > 0 ? sim_latency_ms / static_cast<double>(completed)
                        : 0.0);
  m.append(service_metrics);
  report(m, json_path);
  return 0;
}
