#include "core/engine.hpp"

#include <utility>

#include "service/inference_service.hpp"

namespace dynasparse {

InferenceReport run_compiled(const CompiledProgram& prog, const RuntimeOptions& runtime,
                             const CancellationToken& token) {
  return assemble_compiled_report(prog, runtime, execute(prog, runtime, token));
}

InferenceReport assemble_compiled_report(const CompiledProgram& prog,
                                         const RuntimeOptions& runtime,
                                         ExecutionResult execution) {
  InferenceReport rep;
  rep.model_name = prog.model.name;
  rep.strategy = runtime.strategy;
  rep.compile = prog.stats;
  rep.execution = std::move(execution);
  rep.latency_ms = rep.execution.latency_ms;

  // End-to-end latency (paper Section VIII-D): preprocessing + PCIe data
  // movement of the partitioned operands + accelerator execution.
  std::size_t moved_bytes = prog.h0->ddr_bytes(prog.config);
  for (const auto& [key, adj] : prog.adjacency) moved_bytes += adj->ddr_bytes(prog.config);
  for (const PartitionedMatrix& w : prog.weights) moved_bytes += w.ddr_bytes(prog.config);
  rep.data_movement_ms =
      static_cast<double>(moved_bytes) / kPcieBytesPerSecond * 1e3;
  rep.end_to_end_ms = rep.compile.total_ms() + rep.data_movement_ms + rep.latency_ms;
  return rep;
}

InferenceReport run_inference(const GnnModel& model, const Dataset& ds,
                              const EngineOptions& options) {
  // Routed through the process-default InferenceService: same compile +
  // execute path as batched serving, plus a small content-keyed
  // compilation cache so back-to-back calls over identical inputs skip
  // preprocessing.
  // Runs synchronously on the calling thread; deterministic report fields
  // are unchanged from the pre-service behavior.
  return InferenceService::process_default().run_one(model, ds, options);
}

}  // namespace dynasparse
