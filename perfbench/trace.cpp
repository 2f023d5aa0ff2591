// perfbench_trace — in-process replay of one workload's timed window, one
// request at a time, with a span around every call the server makes.
//
//   perfbench_trace --workload NAME --seed N --seconds S --spans PATH
//
// The replay builds an InferenceService with the workload's options and
// uses its caches, plan store and tile pool, so they are wired as in
// dynasparse_serve. Per request, in the server's order:
//
//   net.decode        decode_submit(encode_submit(spec))
//   net.materialize   materialize_request, on a spec's first appearance
//   compiler.compile_key  make_compile_key
//   service.result_cache  ResultCache::get_or_run (memoizing workloads)
//   service.compile_cache CompilationCache::get_or_compile
//   runtime.execute   run_compiled; on sweeps runtime.execute_batch once
//                     plus runtime.assemble per member
//   net.report_copy   a copy of the report
//   net.fingerprint   deterministic_fingerprint
//   net.encode        encode_result
//
// A warm pass sends each unique spec once first, as the end-to-end run
// does; then the timed window is replayed traced, and once more with
// spans off to measure the tracing overhead. Spans stay in memory and are
// written to PATH at the end as [name, start_ms, end_ms, parent, request,
// pass]; a summary JSON document goes to stdout.
//
// This program calls into the service's layers directly. It is kept apart
// from perfbench_drive so that an internal API change breaks only the
// trace, never the gated end-to-end numbers.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/signature.hpp"
#include "core/engine.hpp"
#include "net/wire.hpp"
#include "service/inference_service.hpp"
#include "util/strict_parse.hpp"
#include "workloads.hpp"

using namespace dynasparse;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

namespace {

struct Span {
  const char* name;
  double start_ms, end_ms;
  long parent;  // index into the span list, -1 for a root
  long request;
  int pass;  // 0 warm, 1 timed
};

/// Records nested spans on one thread; off = no recording at all.
class Tracer {
 public:
  explicit Tracer(Clock::time_point t0) : t0_(t0) {}
  bool on = true;
  int pass = 0;
  std::vector<Span> spans;

  long open(const char* name, long request) {
    if (!on) return -1;
    spans.push_back(Span{name, now_ms(), 0.0, current_, request, pass});
    current_ = static_cast<long>(spans.size()) - 1;
    return current_;
  }
  void close(long id) {
    if (id < 0) return;
    spans[static_cast<std::size_t>(id)].end_ms = now_ms();
    current_ = spans[static_cast<std::size_t>(id)].parent;
  }

 private:
  double now_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0_).count();
  }
  Clock::time_point t0_;
  long current_ = -1;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, long request) : t_(t), id_(t.open(name, request)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  long id_;
};

double ms_of(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// What the first appearance of a spec cost, outside the timed window.
struct Content {
  std::string line;
  double materialize_ms = 0.0, model_sig_ms = 0.0, dataset_sig_ms = 0.0;
  CompileStats compile;
  std::uint64_t fp = 0;
};

/// Totals over the timed pass, from the reports.
struct Counts {
  double requests = 0, tasks = 0, gemm = 0, spdmm = 0, spmm = 0, skipped = 0, cycles = 0;
  void add(const InferenceReport& r) {
    const AcceleratorStats& s = r.execution.stats;
    requests += 1;
    tasks += static_cast<double>(s.tasks);
    gemm += static_cast<double>(s.pairs_gemm);
    spdmm += static_cast<double>(s.pairs_spdmm);
    spmm += static_cast<double>(s.pairs_spmm);
    skipped += static_cast<double>(s.pairs_skipped);
    cycles += r.execution.exec_cycles;
  }
};

class Replay {
 public:
  Replay(const Workload& w, Tracer& tr) : w_(w), tr_(tr), svc_(options(w)) {}

  /// One arrival unit, as the server handles it: a lone request on the
  /// solo path, a sweep through execute_batch.
  void serve(const perfbench::Unit& unit, bool count) {
    if (unit.size() == 1) {
      serve_one(unit.front(), count);
      return;
    }
    Scope sweep(tr_, "sweep", next_id_);
    std::vector<Prepared> members;
    for (const StreamRequestSpec& spec : unit) {
      Scope req(tr_, "request", next_id_);
      members.push_back(prepare(spec));
    }
    std::vector<BatchMember> batch;
    for (const Prepared& p : members)
      batch.push_back(BatchMember{p.prog.get(), p.req.options.runtime, {}});
    BatchExecution bx;
    {
      Scope s(tr_, "runtime.execute_batch", members.front().id);
      bx = execute_batch(batch);
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (bx.members[i].error) std::rethrow_exception(bx.members[i].error);
      Scope req(tr_, "request", members[i].id);
      InferenceReport rep;
      {
        Scope s(tr_, "runtime.assemble", members[i].id);
        rep = assemble_compiled_report(*members[i].prog, members[i].req.options.runtime,
                                       std::move(bx.members[i].result));
        rep.dataset_tag = members[i].req.dataset->spec.tag;
      }
      reply(members[i], rep, count);
    }
  }

  const std::vector<Content>& contents() const { return contents_; }
  InferenceService& service() { return svc_; }
  const Counts& counts() const { return counts_; }
  long fp_mismatches() const { return fp_mismatches_; }

 private:
  struct Prepared {
    long id = 0;
    std::size_t content = 0;
    ServiceRequest req;
    CompileKey ckey;
    std::shared_ptr<const CompiledProgram> prog;  // unset on memo paths
  };

  static ServiceOptions options(const Workload& w) {
    ServiceOptions o;
    o.workers = perfbench::kWorkers;
    o.result_cache_capacity = w.memoize;
    o.batch_window_us = w.batch_window_us;
    o.max_batch_size = w.batch_max;
    o.plan_store_capacity = w.plan_store;
    return o;
  }

  /// Decode, materialize on first sight, hash, and (unless memoizing)
  /// fetch the compiled program.
  Prepared prepare(const StreamRequestSpec& spec) {
    Prepared p;
    p.id = next_id_++;
    StreamRequestSpec decoded;
    {
      Scope s(tr_, "net.decode", p.id);
      const std::vector<std::uint8_t> bytes = encode_submit(static_cast<std::uint64_t>(p.id), spec);
      WireFrame frame;
      std::size_t used = 0;
      try_extract_frame(bytes.data(), bytes.size(), frame, used);
      decoded = decode_submit(frame);
    }
    const std::string line = decoded.to_line();
    auto it = index_.find(line);
    if (it == index_.end()) {
      Content c;
      c.line = line;
      const Clock::time_point t0 = Clock::now();
      {
        Scope s(tr_, "net.materialize", p.id);
        materialized_.push_back(materialize_request(decoded));
      }
      c.materialize_ms = ms_of(t0);
      it = index_.emplace(line, contents_.size()).first;
      contents_.push_back(c);
    }
    p.content = it->second;
    p.req = materialized_[p.content];
    {
      Scope s(tr_, "compiler.compile_key", p.id);
      p.ckey = make_compile_key(*p.req.model, *p.req.dataset, p.req.options.config);
    }
    if (w_.memoize == 0) p.prog = fetch_program(p);
    return p;
  }

  std::shared_ptr<const CompiledProgram> fetch_program(const Prepared& p) {
    Scope s(tr_, "service.compile_cache", p.id);
    auto prog = svc_.cache().get_or_compile(p.ckey, *p.req.model, *p.req.dataset,
                                            p.req.options.config);
    Content& c = contents_[p.content];
    if (c.compile.total_ms() == 0.0) c.compile = prog->stats;
    return prog;
  }

  InferenceReport execute(const Prepared& p) {
    const std::shared_ptr<const CompiledProgram> prog = p.prog ? p.prog : fetch_program(p);
    Scope s(tr_, "runtime.execute", p.id);
    InferenceReport rep = run_compiled(*prog, p.req.options.runtime);
    rep.dataset_tag = p.req.dataset->spec.tag;
    return rep;
  }

  void serve_one(const StreamRequestSpec& spec, bool count) {
    Scope req(tr_, "request", next_id_);
    Prepared p = prepare(spec);
    InferenceReport rep;
    if (w_.memoize > 0) {
      Scope s(tr_, "service.result_cache", p.id);
      rep = svc_.result_cache().get_or_run(make_result_key(p.ckey, p.req.options.runtime),
                                           [&] { return execute(p); });
    } else {
      rep = execute(p);
    }
    reply(p, rep, count);
  }

  /// The event loop's share: copy the report, fingerprint it, encode the
  /// RESULT frame.
  void reply(const Prepared& p, const InferenceReport& rep, bool count) {
    InferenceReport copy;
    {
      Scope s(tr_, "net.report_copy", p.id);
      copy = rep;
    }
    std::uint64_t fp = 0;
    {
      Scope s(tr_, "net.fingerprint", p.id);
      fp = copy.deterministic_fingerprint();
    }
    {
      Scope s(tr_, "net.encode", p.id);
      WireResult r;
      r.fingerprint = fp;
      r.sim_latency_ms = copy.latency_ms;
      (void)encode_result(static_cast<std::uint64_t>(p.id), r);
    }
    Content& c = contents_[p.content];
    if (c.fp == 0) {
      c.fp = fp;
      const Clock::time_point t0 = Clock::now();
      (void)model_signature(*p.req.model);
      c.model_sig_ms = ms_of(t0);
      const Clock::time_point t1 = Clock::now();
      (void)dataset_signature(*p.req.dataset);
      c.dataset_sig_ms = ms_of(t1);
    } else if (c.fp != fp) {
      ++fp_mismatches_;
    }
    if (count) counts_.add(copy);
  }

  const Workload& w_;
  Tracer& tr_;
  InferenceService svc_;
  std::map<std::string, std::size_t> index_;
  std::vector<ServiceRequest> materialized_;
  std::vector<Content> contents_;
  Counts counts_;
  long next_id_ = 1;
  long fp_mismatches_ = 0;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench_trace: %s\nusage: perfbench_trace --workload NAME --seed N "
               "--seconds S --spans PATH\n",
               msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, spans_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (i + 1 >= argc) usage("missing value for " + key);
      const std::string value = argv[++i];
      if (key == "--workload") workload_name = value;
      else if (key == "--seed") seed = strict_stoull(value);
      else if (key == "--seconds") seconds = strict_stod(value);
      else if (key == "--spans") spans_path = value;
      else usage("unknown flag " + key);
    }
  } catch (const std::exception& e) {
    usage(e.what());
  }
  const std::vector<Workload> workloads = perfbench::all_workloads();
  const Workload* wp = perfbench::find_workload(workloads, workload_name);
  if (!wp) usage("unknown workload '" + workload_name + "'");
  if (spans_path.empty()) usage("--spans is required");
  const Workload& w = *wp;
  const perfbench::Schedule sched = perfbench::make_schedule(
      w, seed, perfbench::Phase::kWindow, seconds, perfbench::kWindowMinRequests);

  Tracer tracer(Clock::now());
  Replay replay(w, tracer);
  double traced_ms = 0.0, untraced_ms = 0.0;
  PlanStoreStats plans_warm{};
  ResultCacheStats memo_before{}, memo_after{};
  try {
    for (const perfbench::Unit& unit : w.roster)
      for (const StreamRequestSpec& spec : unit) replay.serve({spec}, false);
    plans_warm = replay.service().plan_store_stats();
    // Sweeps warm as whole units too, so the first timed sweep does not
    // pay the fused path's first-use costs.
    if (w.roster.front().size() > 1)
      for (const perfbench::Unit& unit : w.roster) replay.serve(unit, false);

    tracer.pass = 1;
    memo_before = replay.service().result_cache_stats();
    Clock::time_point t0 = Clock::now();
    for (std::size_t u : sched.unit) replay.serve(w.roster[u], true);
    traced_ms = ms_of(t0);
    memo_after = replay.service().result_cache_stats();

    tracer.on = false;
    t0 = Clock::now();
    for (std::size_t u : sched.unit) replay.serve(w.roster[u], false);
    untraced_ms = ms_of(t0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }

  {
    std::ofstream out(spans_path);
    out.precision(10);
    out << "[";
    for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
      const Span& s = tracer.spans[i];
      out << (i ? ",\n" : "") << "[\"" << s.name << "\"," << s.start_ms << "," << s.end_ms
          << "," << s.parent << "," << s.request << "," << s.pass << "]";
    }
    out << "]\n";
    if (!out) {
      std::fprintf(stderr, "perfbench_trace: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }

  const Counts& n = replay.counts();
  std::ostringstream doc;
  doc.precision(10);
  doc << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
      << ", \"requests\": " << n.requests << ", \"spans\": " << tracer.spans.size()
      << ", \"traced_ms\": " << traced_ms << ", \"untraced_ms\": " << untraced_ms
      << ", \"plan_seeded\": " << plans_warm.seeded
      << ", \"memo_hits\": " << memo_after.hits - memo_before.hits
      << ", \"memo_misses\": " << memo_after.misses - memo_before.misses
      << ", \"fp_mismatches\": " << replay.fp_mismatches()
      << ",\n\"per_request\": {\"tasks\": " << n.tasks / n.requests
      << ", \"pairs_gemm\": " << n.gemm / n.requests
      << ", \"pairs_spdmm\": " << n.spdmm / n.requests
      << ", \"pairs_spmm\": " << n.spmm / n.requests
      << ", \"pairs_skipped\": " << n.skipped / n.requests
      << ", \"exec_cycles\": " << n.cycles / n.requests << "},\n\"contents\": [";
  for (std::size_t i = 0; i < replay.contents().size(); ++i) {
    const Content& c = replay.contents()[i];
    doc << (i ? ",\n  " : "") << "{\"spec\": \"" << c.line << "\", \"fp\": \"" << hex64(c.fp)
        << "\", \"materialize_ms\": " << c.materialize_ms
        << ", \"model_sig_ms\": " << c.model_sig_ms
        << ", \"dataset_sig_ms\": " << c.dataset_sig_ms
        << ", \"ir_ms\": " << c.compile.ir_ms << ", \"partition_ms\": " << c.compile.partition_ms
        << ", \"sparsity_ms\": " << c.compile.sparsity_ms << "}";
  }
  doc << "]}\n";
  std::fputs(doc.str().c_str(), stdout);
  return 0;
}
