#include "service/plan_store.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "service/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/strict_parse.hpp"
#include "util/stopwatch.hpp"

namespace dynasparse {

namespace {

/// Fixed-width hex rendering shared by file names and the irsig trailer.
std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Approximate host bytes of a memory-tier snapshot: the kernel IRs and
/// the plan are small fixed-size structs; this feeds the budget tier, so
/// coarse is fine as long as it is monotone in entry count.
std::size_t stored_plan_bytes(const StoredPlan& p) {
  return sizeof(StoredPlan) + p.snap.kernels.size() * sizeof(KernelIR);
}

}  // namespace

bool plan_snapshot_compatible(const IrSnapshot& snap, const GnnModel& model,
                              std::int64_t num_vertices) {
  if (snap.kernels.size() != model.kernels.size()) return false;
  for (std::size_t i = 0; i < snap.kernels.size(); ++i) {
    const KernelIR& k = snap.kernels[i];
    const KernelSpec& live = model.kernels[i];
    if (k.spec.kind != live.kind || k.spec.out_dim != live.out_dim) return false;
    if (k.num_vertices != num_vertices) return false;
  }
  return true;
}

PlanStore::PlanStore(PlanStoreOptions options)
    : options_(std::move(options)),
      impl_(options_.capacity, stored_plan_bytes, options_.tier,
            LockRank::kPlanStore) {
  if (!options_.dir.empty() && enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    disk_ok_ = !ec && std::filesystem::is_directory(options_.dir, ec) && !ec;
    if (!disk_ok_) {
      log_warn("PlanStore: cannot use disk tier at \"", options_.dir,
               "\"; continuing memory-only");
      std::lock_guard<OrderedMutex> lk(side_mu_);
      ++disk_errors_;
    }
  }
}

std::string PlanStore::disk_path(std::uint64_t key) const {
  return (std::filesystem::path(options_.dir) / ("plan-" + hex16(key) + ".ir"))
      .string();
}

std::shared_ptr<const StoredPlan> PlanStore::load_disk(std::uint64_t key) {
  const std::string path = disk_path(key);
  if (fault_point(kFaultPlanStoreDiskRead)) {
    // Chaos site: an unreadable snapshot degrades exactly like a corrupt
    // one — count it, re-plan, never fail the request.
    log_warn("PlanStore: injected disk-read fault for ", path, "; re-planning");
    std::lock_guard<OrderedMutex> lk(side_mu_);
    ++disk_errors_;
    return nullptr;
  }
  std::ifstream in(path);
  if (!in) return nullptr;  // no snapshot for this signature yet
  try {
    auto plan = std::make_shared<StoredPlan>();
    plan->snap = read_ir(in);
    // Integrity trailer: the recorded ir_signature must match the
    // re-hashed content, so a truncated-but-parseable or hand-edited
    // snapshot is detected instead of silently seeding compilations.
    std::string line, word, hex;
    if (!std::getline(in, line)) throw PlanSnapshotError("missing irsig trailer");
    std::istringstream is(line);
    is >> word >> hex;
    if (word != "irsig" || hex.size() != 16)
      throw PlanSnapshotError("bad irsig trailer");
    const std::uint64_t recorded = strict_hex_u64(hex);
    plan->ir_sig = ir_signature(plan->snap.kernels, plan->snap.plan);
    if (plan->ir_sig != recorded)
      throw PlanSnapshotError("irsig mismatch (corrupt snapshot)");
    return plan;
  } catch (const std::exception& e) {
    log_warn("PlanStore: ignoring disk snapshot ", path, ": ", e.what());
    std::lock_guard<OrderedMutex> lk(side_mu_);
    ++disk_errors_;
    return nullptr;
  }
}

void PlanStore::store_disk(std::uint64_t key, const StoredPlan& plan) {
  // Write-then-rename so a concurrent reader (another serving process
  // sharing the directory) never observes a torn file. The tmp name is
  // unique per process AND per write: two processes (or two stores in
  // one process) racing on the same key must not interleave into one tmp
  // file and rename garbage into place.
  static std::atomic<std::uint64_t> write_seq{0};
  const std::string path = disk_path(key);
  if (fault_point(kFaultPlanStoreDiskWrite)) {
    // Chaos site: a failed persist costs only re-planning after the next
    // restart — count it and move on, same as a real write error below.
    log_warn("PlanStore: injected disk-write fault for ", path);
    std::lock_guard<OrderedMutex> lk(side_mu_);
    ++disk_errors_;
    return;
  }
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(write_seq.fetch_add(1));
  bool ok = false;
  {
    std::ofstream out(tmp);
    if (out) {
      write_ir(plan.snap, out);
      out << "irsig " << hex16(plan.ir_sig) << '\n';
      ok = static_cast<bool>(out);
    }
  }
  std::error_code ec;
  if (ok) {
    std::filesystem::rename(tmp, path, ec);
    ok = !ec;
  }
  std::lock_guard<OrderedMutex> lk(side_mu_);
  if (ok) {
    ++disk_writes_;
  } else {
    ++disk_errors_;
    std::filesystem::remove(tmp, ec);
  }
}

std::shared_ptr<const StoredPlan> PlanStore::get_or_plan(
    std::uint64_t key, const GnnModel& model, const Dataset& ds,
    const SimConfig& cfg, bool* planned_here, const CancellationToken& token) {
  bool here = false;
  auto plan = impl_.get_or_make(key, [&]() -> std::shared_ptr<const StoredPlan> {
    if (disk_ok_) {
      if (auto loaded = load_disk(key)) {
        // Validate against the live inputs BEFORE the snapshot becomes
        // the resident entry for this key: an intact-but-incompatible
        // file (stale signature definition, misnamed snapshot) must be
        // replanned and overwritten here — caching it would pin the
        // rejection for the process lifetime and leave the bad file to
        // poison every restart.
        if (plan_snapshot_compatible(loaded->snap, model, ds.graph.num_vertices())) {
          std::lock_guard<OrderedMutex> lk(side_mu_);
          ++disk_hits_;
          return loaded;
        }
        log_warn("PlanStore: disk snapshot ", disk_path(key),
                 " does not match the live planner inputs; re-planning");
        std::lock_guard<OrderedMutex> lk(side_mu_);
        ++rejected_;
      }
    }
    // Plan from scratch: the one place the seeded pipeline runs the
    // partition planner — through the same build_computation_graph /
    // planner_workloads / plan_partitions / attach_scheme functions as
    // compile_impl, so the stored plan is exactly what a cold compile of
    // these inputs computes.
    here = true;
    auto made = std::make_shared<StoredPlan>();
    made->snap.kernels = build_computation_graph(model, ds.graph);
    std::vector<KernelWorkload> workloads = planner_workloads(made->snap.kernels);
    Stopwatch sw;
    made->snap.plan = plan_partitions(workloads, cfg, token);
    const double plan_ms = sw.elapsed_ms();
    for (KernelIR& k : made->snap.kernels)
      attach_scheme(k, made->snap.plan.n1, made->snap.plan.n2);
    made->ir_sig = ir_signature(made->snap.kernels, made->snap.plan);
    {
      std::lock_guard<OrderedMutex> lk(side_mu_);
      ++planned_;
      planning_ms_ += plan_ms;
    }
    if (disk_ok_) store_disk(key, *made);
    return made;
  });
  if (planned_here) *planned_here = here;
  return plan;
}

CompiledProgram PlanStore::compile_seeded(const GnnModel& model, const Dataset& ds,
                                          const SimConfig& cfg,
                                          const CancellationToken& token,
                                          const OperandSource& operands) {
  if (!enabled()) return compile(model, ds, cfg, token, operands);
  // compile_impl validates the config BEFORE planning; this path must
  // too. An invalid config (psys = 0, dense_elem_bytes = 0) would SIGFPE
  // inside the planner's divisions — a signal no catch turns back into
  // the std::invalid_argument the cold path throws, killing the whole
  // service instead of failing one request in isolation.
  if (!cfg.valid()) return compile(model, ds, cfg, token, operands);
  std::shared_ptr<const StoredPlan> plan;
  bool planned_here = false;
  try {
    plan = get_or_plan(plan_signature(model, ds.graph.num_vertices(), cfg), model,
                       ds, cfg, &planned_here, token);
  } catch (const RequestAbortedError&) {
    // The request's own cancellation/deadline fired mid-planning: not a
    // store failure — nobody will consume a cold compile, so propagate.
    throw;
  } catch (...) {
    // Invalid inputs (or an allocation failure mid-planning): let the
    // cold path produce its canonical diagnostics.
    return compile(model, ds, cfg, token, operands);
  }
  if (!plan_snapshot_compatible(plan->snap, model, ds.graph.num_vertices())) {
    // Signature collision or a stale/foreign snapshot that still carried a
    // valid irsig: never seed from it. Cold-compile instead; correctness
    // costs only the skipped amortization.
    {
      std::lock_guard<OrderedMutex> lk(side_mu_);
      ++rejected_;
    }
    return compile(model, ds, cfg, token, operands);
  }
  CompiledProgram prog =
      compile_with_plan(model, ds, cfg, plan->snap.plan, token, operands);
  if (!planned_here) {
    // This compile skipped the planner: it was seeded by a plan some
    // earlier request (or a previous process, via the disk tier) paid for.
    std::lock_guard<OrderedMutex> lk(side_mu_);
    ++seeded_;
    // Exact vs similar reuse, observable per store: a restarted service
    // replaying the same content reproduces the stored IR bit-for-bit
    // (ir_signature equal); a merely plan-compatible request differs in
    // the fields outside the plan (e.g. num_edges).
    if (ir_signature(prog.kernels, prog.plan) == plan->ir_sig) ++seeded_exact_;
  }
  return prog;
}

PlanStoreStats PlanStore::stats() const {
  const KeyedCacheStats s = impl_.stats();
  PlanStoreStats out;
  out.hits = s.hits;
  out.misses = s.misses;
  out.inflight_joins = s.inflight_joins;
  out.aborted_retries = s.aborted_retries;
  out.entries = s.entries;
  out.evictions = s.evictions;
  out.bytes = s.bytes;
  std::lock_guard<OrderedMutex> lk(side_mu_);
  out.planned = planned_;
  out.seeded = seeded_;
  out.seeded_exact = seeded_exact_;
  out.rejected = rejected_;
  out.disk_hits = disk_hits_;
  out.disk_writes = disk_writes_;
  out.disk_errors = disk_errors_;
  out.planning_ms = planning_ms_;
  return out;
}

}  // namespace dynasparse
