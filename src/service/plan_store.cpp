#include "service/plan_store.hpp"

#include <chrono>

namespace dynasparse {

PlanStore::PlanStore(std::size_t capacity)
    : impl_(capacity, {}, nullptr, LockRank::kPlanStore) {}

CompiledProgram PlanStore::compile_seeded(const GnnModel& model, const Dataset& ds,
                                          const SimConfig& cfg,
                                          const CancellationToken& token,
                                          const OperandSource& operands) {
  // compile_impl validates the config BEFORE planning; this path must
  // too. An invalid config (psys = 0, dense_elem_bytes = 0) would SIGFPE
  // inside the planner's divisions — a signal no catch turns back into
  // the std::invalid_argument the cold path throws, killing the whole
  // service instead of failing one request in isolation.
  if (!enabled() || !cfg.valid()) return compile(model, ds, cfg, token, operands);
  bool planned_here = false;
  std::shared_ptr<const PartitionPlan> plan;
  try {
    plan = impl_.get_or_make(plan_key(model, ds.graph.num_vertices(), cfg), [&] {
      // The same build_computation_graph / planner_workloads /
      // plan_partitions calls as compile_impl, so the stored plan is
      // exactly what a cold compile of these inputs computes.
      planned_here = true;
      const std::vector<KernelWorkload> workloads =
          planner_workloads(build_computation_graph(model, ds.graph));
      const auto start = std::chrono::steady_clock::now();
      auto made = std::make_shared<const PartitionPlan>(
          plan_partitions(workloads, cfg, token));
      planning_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      ++planned_;
      return made;
    });
  } catch (const RequestAbortedError&) {
    // The request's own cancellation/deadline fired mid-planning: not a
    // store failure — nobody will consume a cold compile, so propagate.
    throw;
  } catch (...) {
    // Invalid inputs (or an allocation failure mid-planning): let the
    // cold path produce its canonical diagnostics.
    return compile(model, ds, cfg, token, operands);
  }
  CompiledProgram prog = compile_with_plan(model, ds, cfg, *plan, token, operands);
  // This compile skipped the planner: an earlier request paid for the plan.
  if (!planned_here) ++seeded_;
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
  out.planned = planned_;
  out.seeded = seeded_;
  out.planning_ms = static_cast<double>(planning_ns_) / 1e6;
  return out;
}

}  // namespace dynasparse
