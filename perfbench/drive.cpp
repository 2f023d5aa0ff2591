// perfbench_drive — end-to-end serving run of one workload over the wire.
//
//   perfbench_drive --serve PATH --workload NAME --seed N --seconds S
//
// Sequence:
//   1. reference fingerprints: every unique spec compiled and run in this
//      process, its output checked against model/reference.hpp;
//   2. set-up, kSetups times: spawn `dynasparse_serve --listen 0`, then
//      send each unique spec once, one at a time; every server but the
//      last is stopped again, the last serves the rest of the run;
//   3. an untimed ramp at the workload's rate and mix;
//   4. kRounds rounds, each a slice of the timed open-loop window (Poisson
//      arrivals) followed by a closed-loop slice with one arrival unit per
//      server worker in flight. Interleaving spreads every metric over the
//      whole run, so a burst of host CPU steal disturbs one round, which
//      the per-round medians in run.py then discount;
//   5. the server's peak RSS, then SIGTERM.
//
// Only the wire protocol (net/client, net/wire, service/request_stream)
// and the public engine API are used, so internal refactors cannot break
// the gated numbers. The output is one JSON document of raw samples on
// stdout; perfbench/run.py turns it into metrics. Progress goes to stderr.
//
// Load generator: two connections, at most three threads (one sender and
// one receiver per connection in the open loop, one thread per connection
// in the closed loop).

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "compiler/compiler.hpp"
#include "core/engine.hpp"
#include "model/reference.hpp"
#include "net/client.hpp"
#include "util/strict_parse.hpp"
#include "workloads.hpp"

using namespace dynasparse;
using perfbench::Phase;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kSetups = 3;
constexpr int kRounds = 5;
constexpr double kClosedSeconds = 5.0;  // over all rounds
// A round during which the host steals more CPU than this is run again,
// at most kMaxRetries times per run. Calm rounds on this kind of shared
// host read 0-1.5% steal; disturbed ones 3-17%, with p50 up to twice as
// high.
constexpr double kStealLimitPct = 2.0;
constexpr int kMaxRetries = 3;
constexpr std::int64_t kIoTimeoutMs = 60000;
constexpr int kServerNice = 10;

double ms_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - t0).count();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out + "\"";
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// One `Key:  value` line of /proc/<pid>/status, value text only.
std::string status_field(int pid, const std::string& key) {
  std::istringstream in(read_text("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key + ":", 0) == 0) {
      std::string v = line.substr(key.size() + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  return "";
}

/// A `dynasparse_serve --listen 0` child. The child dies with this
/// process (PR_SET_PDEATHSIG), and the destructor kills a server that
/// was not stopped cleanly.
class Server {
 public:
  Server(const std::string& path, const std::vector<std::string>& flags) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::vector<std::string> args = {path, "--listen", "0"};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      // The load generator shares the host with the server; running the
      // server below it keeps sends on schedule and receive timestamps
      // prompt, as a client on its own machine would see them.
      ::setpriority(PRIO_PROCESS, 0, kServerNice);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    // The server prints "listening on HOST:PORT ..." once bound.
    std::string line;
    while (read_line(line, 60000)) {
      const std::string tag = "listening on ";
      const auto at = line.find(tag);
      if (at == std::string::npos) continue;
      const auto colon = line.find(':', at + tag.size());
      const auto end = line.find(' ', colon);
      port_ = static_cast<std::uint16_t>(
          strict_stoi(line.substr(colon + 1, end - colon - 1)));
      return;
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    ::close(out_fd_);
    throw std::runtime_error("server did not start listening: " + path);
  }
  ~Server() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// SIGTERM, drain its output, reap it. Returns the exit status
  /// (-1 if it had to be killed).
  int stop() {
    ::kill(pid_, SIGTERM);
    std::string line;
    while (read_line(line, 30000)) {
    }
    int status = 0;
    for (int i = 0; i < 300; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return -1;  // the destructor kills it
  }

 private:
  /// Next line of the server's stdout; false on EOF or timeout.
  bool read_line(std::string& line, int timeout_ms) {
    line.clear();
    while (true) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string buf_;
};

std::vector<std::string> server_flags(const Workload& w) {
  std::vector<std::string> f = {"--workers", std::to_string(perfbench::kWorkers)};
  auto add = [&](const char* flag, std::size_t v) {
    if (v > 0) {
      f.push_back(flag);
      f.push_back(std::to_string(v));
    }
  };
  add("--memoize", w.memoize);
  add("--batch-window", static_cast<std::size_t>(w.batch_window_us));
  add("--batch-max", w.batch_max);
  add("--plan-store", w.plan_store);
  return f;
}

/// One request as the client saw it. Times are ms from the start of its
/// phase (or round); `error` is 0 for a RESULT, the wire error code for an
/// ERROR frame, and -1 for a request never answered.
struct Sample {
  std::size_t spec = 0;
  double sched_ms = 0.0, send_ms = 0.0, recv_ms = -1.0;
  int error = -1;
  std::uint64_t fp = 0;
  double server_ms = 0.0, sim_ms = 0.0;
  int round = 0;
};

void record_outcome(Sample& s, const NetClient::Outcome& out, double recv_ms) {
  s.recv_ms = recv_ms;
  if (out.ok) {
    s.error = 0;
    s.fp = out.result.fingerprint;
    s.server_ms = out.result.server_ms;
    s.sim_ms = out.result.sim_latency_ms;
  } else {
    s.error = static_cast<int>(out.error.code);
  }
}

std::string samples_json(const std::vector<Sample>& v) {
  std::ostringstream os;
  os.precision(10);
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    const Sample& s = v[i];
    os << (i ? ",\n  " : "") << "[" << s.spec << "," << s.sched_ms << ","
       << s.send_ms << "," << s.recv_ms << "," << s.error << ",\"" << hex64(s.fp)
       << "\"," << s.server_ms << "," << s.sim_ms << "," << s.round << "]";
  }
  return os.str() + "]";
}

struct Reference {
  std::string line;
  std::uint64_t fp = 0;
  double max_abs_diff = 0.0;
};

/// Compile and run each spec here, and check the output against the
/// naive host reference GNN.
std::vector<Reference> compute_references(const std::vector<StreamRequestSpec>& specs) {
  std::vector<Reference> refs;
  for (const StreamRequestSpec& spec : specs) {
    const ServiceRequest req = materialize_request(spec);
    const CompiledProgram prog = compile(*req.model, *req.dataset, req.options.config);
    InferenceReport rep = run_compiled(prog, req.options.runtime);
    rep.dataset_tag = req.dataset->spec.tag;
    const DenseMatrix expect =
        reference_output(*req.model, req.dataset->graph, req.dataset->features);
    Reference r;
    r.line = spec.to_line();
    r.fp = rep.deterministic_fingerprint();
    r.max_abs_diff = DenseMatrix::max_abs_diff(rep.execution.output.to_dense(), expect);
    refs.push_back(r);
  }
  return refs;
}

/// The first transport error seen by any load-generator thread. The
/// run cannot be measured past it: the caller rethrows after joining.
class TransportFailure {
 public:
  void note(const std::exception& e) {
    std::lock_guard<std::mutex> lk(mu_);
    if (what_.empty()) what_ = e.what();
  }
  void rethrow() const {
    if (!what_.empty()) throw std::runtime_error("transport failure: " + what_);
  }

 private:
  std::mutex mu_;
  std::string what_;
};

/// Send each unique spec once, one at a time.
std::vector<Sample> warm(NetClient& client, const std::vector<StreamRequestSpec>& specs,
                         Clock::time_point t0) {
  std::vector<Sample> out;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Sample s;
    s.spec = i;
    s.sched_ms = s.send_ms = ms_since(t0, Clock::now());
    const std::uint64_t corr = client.submit(specs[i]);
    record_outcome(s, client.await(corr), ms_since(t0, Clock::now()));
    out.push_back(s);
  }
  return out;
}

/// Open loop: the sender sends each arrival unit at its scheduled time,
/// alternating connections by unit; one receiver per connection collects
/// the answers. Latency counts from the scheduled send.
std::vector<Sample> open_loop(NetClient* clients[2], const Workload& w,
                              const perfbench::Schedule& sched) {
  struct Sent {
    std::uint64_t corr;
    std::size_t sample;
  };
  struct Got {
    std::uint64_t corr;
    double recv_ms;
    NetClient::Outcome out;
  };
  std::vector<Sample> samples;
  std::vector<std::size_t> expected(2, 0);
  for (std::size_t u = 0; u < sched.unit.size(); ++u) {
    for (std::size_t m = 0; m < w.roster[sched.unit[u]].size(); ++m) {
      Sample s;
      s.spec = perfbench::spec_index(w, sched.unit[u], m);
      s.sched_ms = sched.at_s[u] * 1000.0;
      samples.push_back(s);
      ++expected[u % 2];
    }
  }
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Got> got[2];
  TransportFailure failure;
  std::thread receivers[2];
  for (int c = 0; c < 2; ++c) {
    receivers[c] = std::thread([&, c] {
      try {
        for (std::size_t i = 0; i < expected[static_cast<std::size_t>(c)]; ++i) {
          NetClient::Outcome out = clients[c]->await_any();
          got[c].push_back(Got{out.corr, ms_since(t0, Clock::now()), std::move(out)});
        }
      } catch (const std::exception& e) {
        failure.note(e);
      }
    });
  }
  std::vector<Sent> sent[2];
  std::size_t next = 0;
  try {
    for (std::size_t u = 0; u < sched.unit.size(); ++u) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(sched.at_s[u])));
      const int c = static_cast<int>(u % 2);
      for (const StreamRequestSpec& spec : w.roster[sched.unit[u]]) {
        samples[next].send_ms = ms_since(t0, Clock::now());
        sent[c].push_back(Sent{clients[c]->submit(spec), next});
        ++next;
      }
    }
  } catch (const std::exception& e) {
    // Closing our side makes the server drop the connections, which ends
    // the receivers' waits.
    failure.note(e);
    for (int c = 0; c < 2; ++c) clients[c]->shutdown_send();
  }
  for (std::thread& t : receivers) t.join();
  failure.rethrow();
  for (int c = 0; c < 2; ++c) {
    std::unordered_map<std::uint64_t, std::size_t> sample_of;
    for (const Sent& s : sent[c]) sample_of[s.corr] = s.sample;
    for (const Got& g : got[c]) {
      auto it = sample_of.find(g.corr);
      if (it != sample_of.end()) record_outcome(samples[it->second], g.out, g.recv_ms);
    }
  }
  return samples;
}

/// Closed loop: each connection keeps workers/2 arrival units in flight
/// and sends the next unit as soon as one completes, for `seconds`.
std::vector<Sample> closed_loop(NetClient* clients[2], const Workload& w,
                                std::uint64_t seed, int round, double seconds) {
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const std::size_t per_conn = static_cast<std::size_t>(std::max(1, perfbench::kWorkers / 2));
  std::vector<Sample> out[2];
  TransportFailure failure;
  std::thread threads[2];
  for (int c = 0; c < 2; ++c) {
    threads[c] = std::thread([&, c] {
      NetClient& client = *clients[c];
      std::vector<Sample>& mine = out[c];
      perfbench::Picker picker(w, seed, Phase::kClosed,
                               static_cast<std::uint64_t>(2 * round + c));
      struct Flight {
        std::uint64_t corr;
        std::size_t sample;
        std::size_t unit_slot;
      };
      std::vector<Flight> flights;
      std::vector<std::size_t> remaining;  // per unit slot
      auto send_unit = [&](std::size_t slot) {
        const std::size_t u = picker.next();
        remaining[slot] = w.roster[u].size();
        for (std::size_t m = 0; m < w.roster[u].size(); ++m) {
          Sample s;
          s.spec = perfbench::spec_index(w, u, m);
          s.sched_ms = s.send_ms = ms_since(t0, Clock::now());
          s.round = round;
          mine.push_back(s);
          flights.push_back(Flight{client.submit(w.roster[u][m]), mine.size() - 1, slot});
        }
      };
      try {
        remaining.assign(per_conn, 0);
        for (std::size_t slot = 0; slot < per_conn; ++slot) send_unit(slot);
        while (!flights.empty()) {
          NetClient::Outcome o = client.await_any();
          const double recv_ms = ms_since(t0, Clock::now());
          auto it = std::find_if(flights.begin(), flights.end(),
                                 [&](const Flight& f) { return f.corr == o.corr; });
          if (it == flights.end()) continue;
          const Flight f = *it;
          flights.erase(it);
          record_outcome(mine[f.sample], o, recv_ms);
          if (--remaining[f.unit_slot] == 0 && Clock::now() < stop) send_unit(f.unit_slot);
        }
      } catch (const std::exception& e) {
        failure.note(e);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  failure.rethrow();
  std::vector<Sample> all = out[0];
  all.insert(all.end(), out[1].begin(), out[1].end());
  return all;
}

/// Round `r` of `rounds` contiguous slices of the window's schedule,
/// re-based to start at once.
perfbench::Schedule slice(const perfbench::Schedule& full, int r, int rounds) {
  const std::size_t n = full.unit.size();
  const std::size_t lo = n * static_cast<std::size_t>(r) / static_cast<std::size_t>(rounds);
  const std::size_t hi = n * static_cast<std::size_t>(r + 1) / static_cast<std::size_t>(rounds);
  perfbench::Schedule part;
  for (std::size_t i = lo; i < hi; ++i) {
    part.unit.push_back(full.unit[i]);
    part.at_s.push_back(full.at_s[i] - full.at_s[lo]);
  }
  return part;
}

/// Host CPU stolen between two /proc/stat aggregate "cpu" lines, in
/// percent of all CPU time (fields: user nice system idle iowait irq
/// softirq steal ...).
double steal_pct(const std::string& before, const std::string& after) {
  auto ticks = [](const std::string& line, std::uint64_t& steal, std::uint64_t& total) {
    std::istringstream in(line);
    std::string tag;
    in >> tag;
    steal = total = 0;
    for (int i = 0; i < 8; ++i) {
      std::uint64_t v = 0;
      in >> v;
      total += v;
      if (i == 7) steal = v;
    }
  };
  std::uint64_t s0 = 0, t0 = 0, s1 = 0, t1 = 0;
  ticks(before, s0, t0);
  ticks(after, s1, t1);
  return t1 > t0 ? 100.0 * static_cast<double>(s1 - s0) / static_cast<double>(t1 - t0) : 0.0;
}

/// One attempt at a round: which window slice it replayed, the host
/// steal during it, and whether its samples count.
struct Attempt {
  int slice = 0;
  double steal_pct = 0.0;
  bool kept = false;
};

/// A pair of /proc readings around one stretch of the run.
struct Readings {
  std::string before, after;
};

std::string readings_json(const std::vector<Readings>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", [" : "[") + quoted(v[i].before) + ", " + quoted(v[i].after) + "]";
  return out + "]";
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench_drive: %s\nusage: perfbench_drive --serve PATH "
               "--workload NAME --seed N --seconds S\n",
               msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string serve_path, workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (i + 1 >= argc) usage("missing value for " + key);
      const std::string value = argv[++i];
      if (key == "--serve") serve_path = value;
      else if (key == "--workload") workload_name = value;
      else if (key == "--seed") seed = strict_stoull(value);
      else if (key == "--seconds") seconds = strict_stod(value);
      else usage("unknown flag " + key);
    }
  } catch (const std::exception& e) {
    usage(e.what());
  }
  const std::vector<Workload> workloads = perfbench::all_workloads();
  const Workload* wp = perfbench::find_workload(workloads, workload_name);
  if (!wp) usage("unknown workload '" + workload_name + "'");
  if (serve_path.empty()) usage("--serve is required");
  if (!(seconds > 0.0)) usage("--seconds must be positive");
  const Workload& w = *wp;
  const std::vector<StreamRequestSpec> specs = perfbench::unique_specs(w);

  std::fprintf(stderr, "perfbench_drive: %s seed %" PRIu64 ": references\n",
               w.name.c_str(), seed);
  const std::vector<Reference> refs = compute_references(specs);

  std::ostringstream doc;
  doc.precision(10);
  std::vector<double> setup_s;
  // /proc/stat "cpu" lines around each phase, for host steal.
  std::vector<Readings> steal_warm(1), steal_ramp(1), steal_window, steal_closed;
  std::vector<Readings> server_cpu;  // /proc/<pid>/stat around each window slice
  std::vector<Attempt> attempts;      // one per round attempt, in run order
  int retries = 0;
  std::vector<Sample> warm_samples, ramp, window, closed;
  std::string stats_before, stats_after, vm_hwm, threads;
  int exit_status = 0;
  long clk_tck = ::sysconf(_SC_CLK_TCK);
  try {
    steal_warm[0].before = first_line("/proc/stat");
    std::unique_ptr<Server> server;
    std::unique_ptr<NetClient> conn[2];
    for (int k = 0; k < kSetups; ++k) {
      if (server) {
        conn[0].reset();
        conn[1].reset();
        server->stop();
      }
      const Clock::time_point t0 = Clock::now();
      server = std::make_unique<Server>(serve_path, server_flags(w));
      for (auto& c : conn) c = std::make_unique<NetClient>("127.0.0.1", server->port(), kIoTimeoutMs);
      std::vector<Sample> s = warm(*conn[0], specs, t0);
      setup_s.push_back(ms_since(t0, Clock::now()) / 1000.0);
      warm_samples.insert(warm_samples.end(), s.begin(), s.end());
      std::fprintf(stderr, "perfbench_drive: setup %d: %.3f s\n", k + 1, setup_s.back());
    }
    NetClient* clients[2] = {conn[0].get(), conn[1].get()};
    steal_warm[0].after = steal_ramp[0].before = first_line("/proc/stat");
    ramp = open_loop(clients, w, perfbench::make_schedule(w, seed, Phase::kRamp, 0.0,
                                                          perfbench::kRampRequests));
    steal_ramp[0].after = first_line("/proc/stat");

    const std::string pid_stat = "/proc/" + std::to_string(server->pid()) + "/stat";
    const perfbench::Schedule full = perfbench::make_schedule(
        w, seed, Phase::kWindow, seconds, perfbench::kWindowMinRequests);
    stats_before = conn[0]->stats();
    for (int r = 0; r < kRounds; ++r) {
      // Re-run the round while the host steals more than kStealLimitPct
      // of its CPU, within a retry budget; the calmest attempt is kept.
      int kept = -1;
      double kept_steal = 0.0;
      while (true) {
        const int attempt = static_cast<int>(attempts.size());
        Readings host, proc;
        host.before = first_line("/proc/stat");
        proc.before = first_line(pid_stat);
        std::vector<Sample> part = open_loop(clients, w, slice(full, r, kRounds));
        proc.after = first_line(pid_stat);
        host.after = first_line("/proc/stat");
        for (Sample& s : part) s.round = attempt;
        window.insert(window.end(), part.begin(), part.end());
        steal_window.push_back(host);
        server_cpu.push_back(proc);
        const std::string round_start = host.before;

        host.before = host.after;
        part = closed_loop(clients, w, seed, attempt, kClosedSeconds / kRounds);
        host.after = first_line("/proc/stat");
        for (Sample& s : part) s.round = attempt;
        closed.insert(closed.end(), part.begin(), part.end());
        steal_closed.push_back(host);

        const double steal = steal_pct(round_start, host.after);
        attempts.push_back(Attempt{r, steal, false});
        if (kept < 0 || steal < kept_steal) {
          kept = attempt;
          kept_steal = steal;
        }
        if (steal <= kStealLimitPct || retries >= kMaxRetries) break;
        ++retries;
        std::fprintf(stderr, "perfbench_drive: round %d: %.1f%% steal, again\n", r + 1, steal);
      }
      attempts[static_cast<std::size_t>(kept)].kept = true;
    }
    stats_after = conn[0]->stats();
    vm_hwm = status_field(server->pid(), "VmHWM");
    threads = status_field(server->pid(), "Threads");
    conn[0].reset();
    conn[1].reset();
    exit_status = server->stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_drive: %s\n", e.what());
    return 1;
  }

  doc << "{\"workload\": " << quoted(w.name) << ", \"seed\": " << seed
      << ", \"seconds\": " << seconds << ", \"rate\": " << w.rate
      << ", \"unit_size\": " << w.roster.front().size()
      << ", \"workers\": " << perfbench::kWorkers << ", \"closed_seconds\": " << kClosedSeconds
      << ", \"setups\": " << kSetups;
  doc << ",\n\"record\": {\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
      << ", \"flags\": " << quoted(PERFBENCH_FLAGS)
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"lock_check\": " << (PERFBENCH_LOCK_CHECK ? "true" : "false")
      << ", \"server_flags\": " << quoted([&] {
           std::string s;
           for (const std::string& f : server_flags(w)) s += (s.empty() ? "" : " ") + f;
           return s;
         }())
      << ", \"server_threads\": " << quoted(threads)
      << ", \"server_exit\": " << exit_status << "}";
  doc << ",\n\"refs\": [";
  for (std::size_t i = 0; i < refs.size(); ++i)
    doc << (i ? ",\n  " : "") << "{\"spec\": " << quoted(refs[i].line) << ", \"fp\": \""
        << hex64(refs[i].fp) << "\", \"max_abs_diff\": " << refs[i].max_abs_diff << "}";
  doc << "],\n\"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) doc << (i ? ", " : "") << setup_s[i];
  doc << "],\n\"steal\": {\"warm\": " << readings_json(steal_warm)
      << ", \"ramp\": " << readings_json(steal_ramp)
      << ",\n  \"window\": " << readings_json(steal_window)
      << ",\n  \"closed\": " << readings_json(steal_closed) << "}"
      << ",\n\"clk_tck\": " << clk_tck << ", \"server_cpu\": " << readings_json(server_cpu)
      << ",\n\"attempts\": [" << [&] {
           std::ostringstream os;
           for (std::size_t i = 0; i < attempts.size(); ++i)
             os << (i ? ", " : "") << "[" << attempts[i].slice << ", " << attempts[i].steal_pct
                << ", " << (attempts[i].kept ? "true" : "false") << "]";
           return os.str();
         }() << "], \"steal_limit_pct\": " << kStealLimitPct
      << ", \"vm_hwm\": " << quoted(vm_hwm)
      << ",\n\"stats_before\": " << quoted(stats_before)
      << ",\n\"stats_after\": " << quoted(stats_after)
      << ",\n\"warm\": " << samples_json(warm_samples)
      << ",\n\"ramp\": " << samples_json(ramp)
      << ",\n\"window\": " << samples_json(window)
      << ",\n\"closed\": " << samples_json(closed) << "}\n";
  std::fputs(doc.str().c_str(), stdout);
  return 0;
}
