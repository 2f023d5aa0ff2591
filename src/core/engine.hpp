#pragma once
// Dynasparse engine — the library's top-level public API.
//
// One call runs the paper's full pipeline: host compilation (IR, data
// partitioning, compile-time sparsity profiling) followed by the runtime
// system driving the simulated Alveo-U250-class accelerator. Example:
//
//   auto ds    = dynasparse::generate_dataset(dynasparse::dataset_by_tag("CO"), 1, 7);
//   dynasparse::Rng rng(13);
//   auto model = dynasparse::build_model(dynasparse::GnnModelKind::kGcn,
//                                        ds.spec.feature_dim, ds.spec.hidden_dim,
//                                        ds.spec.num_classes, rng);
//   auto report = dynasparse::run_inference(model, ds, {});
//   std::cout << report.latency_ms << " ms\n";

#include "compiler/compiler.hpp"
#include "core/report.hpp"
#include "graph/dataset.hpp"
#include "model/model.hpp"
#include "runtime/runtime_system.hpp"

namespace dynasparse {

struct EngineOptions {
  SimConfig config = u250_config();
  /// runtime.host_threads doubles as the per-request intra-op parallelism
  /// knob: it bounds how many work-stealing pool threads this request's
  /// execution may fan out on (the service additionally clamps it by
  /// ServiceOptions::intra_op_threads). 0 = share the pool freely.
  RuntimeOptions runtime;
};

/// Compile `model` over `ds` and execute it under the configured mapping
/// strategy. Deterministic for fixed inputs.
///
/// Routed through the process-default InferenceService
/// (service/inference_service.hpp): repeated calls over content-identical
/// inputs reuse the CompiledProgram from a small LRU cache (4 programs)
/// instead of recompiling. For many
/// requests, prefer InferenceService::run_batch / submit, which add
/// concurrent execution on service workers.
InferenceReport run_inference(const GnnModel& model, const Dataset& ds,
                              const EngineOptions& options);

/// Run the same compiled program under a different strategy (reuses the
/// compilation — how the strategy-comparison benches iterate cheaply).
/// `token` (optional) makes the execution cooperatively cancellable at
/// kernel boundaries; see runtime/runtime_system.hpp.
InferenceReport run_compiled(const CompiledProgram& prog, const RuntimeOptions& runtime,
                             const CancellationToken& token = {});

/// Wrap an already-obtained ExecutionResult in the full InferenceReport
/// run_compiled would build (compile stats, PCIe data-movement model,
/// end-to-end latency). Shared by run_compiled and callers that execute
/// programs themselves (RuntimeSystem::execute_batch) and assemble reports
/// afterwards.
InferenceReport assemble_compiled_report(const CompiledProgram& prog,
                                         const RuntimeOptions& runtime,
                                         ExecutionResult execution);

}  // namespace dynasparse
