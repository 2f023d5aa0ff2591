#include "compiler/signature.hpp"

#include <cstdio>

namespace dynasparse {

// ---- keep-in-sync tripwires ------------------------------------------------
// Every struct hashed below is pinned to its current size: adding a field
// changes sizeof and fails this build until the matching hasher (and this
// assert) is updated — the signature silently missing a new field is
// exactly the bug that would alias cache keys across different inputs.
// Sizes are ABI-specific, so the pins only arm on the toolchain CI runs
// (libstdc++ on x86-64); other ABIs still get the hashers, just not the
// tripwire. dynasparse_lint rule [signature-tripwire] enforces that every
// hashed type has an assert here.
#if defined(__GLIBCXX__) && defined(__x86_64__)
static_assert(sizeof(KernelSpec) == 56, "KernelSpec changed: update hash_spec");
static_assert(sizeof(DenseMatrix) == 48, "DenseMatrix changed: update hash_dense");
static_assert(sizeof(GnnModel) == 120, "GnnModel changed: update model_signature");
static_assert(sizeof(Dataset) == 280, "Dataset changed: update dataset_signature");
static_assert(sizeof(CsrMatrix) == 88, "CsrMatrix changed: update dataset_signature");
static_assert(sizeof(CooEntry) == 24, "CooEntry changed: update dataset_signature");
static_assert(sizeof(SimConfig) == 80, "SimConfig changed: update config_signature");
static_assert(sizeof(RuntimeOptions) == 16,
              "RuntimeOptions changed: update runtime_options_signature");
static_assert(sizeof(CompileKey) == 24, "CompileKey changed: update make_result_key");
#endif

namespace {

void hash_spec(HashStream& h, const KernelSpec& s) {
  h.i64(static_cast<std::int64_t>(s.kind))
      .i64(s.layer_id)
      .i64(s.in_dim)
      .i64(s.out_dim)
      .i64(s.weight_index)
      .i64(static_cast<std::int64_t>(s.adj))
      .f64(s.epsilon)
      .i64(static_cast<std::int64_t>(s.op))
      .i64(s.input)
      .i64(s.add_input)
      .i64(static_cast<std::int64_t>(s.act));
}

void hash_dense(HashStream& h, const DenseMatrix& m) {
  h.i64(m.rows()).i64(m.cols()).i64(static_cast<std::int64_t>(m.layout()));
  h.f32s(m.data());
}

}  // namespace

std::uint64_t model_signature(const GnnModel& model) {
  HashStream h;
  h.i64(static_cast<std::int64_t>(model.kind))
      .str(model.name)
      .i64(model.num_layers)
      .i64(model.in_dim)
      .i64(model.hidden_dim)
      .i64(model.out_dim);
  h.u64(model.kernels.size());
  for (const KernelSpec& s : model.kernels) hash_spec(h, s);
  h.u64(model.weights.size());
  for (const DenseMatrix& w : model.weights) hash_dense(h, w);
  return h.digest();
}

std::uint64_t dataset_signature(const Dataset& ds) {
  HashStream h;
  h.str(ds.spec.name)
      .str(ds.spec.tag)
      .i64(ds.spec.vertices)
      .i64(ds.spec.edges)
      .i64(ds.spec.feature_dim)
      .i64(ds.spec.num_classes)
      .f64(ds.spec.h0_density)
      .i64(ds.spec.hidden_dim)
      .f64(ds.spec.degree_skew)
      .i64(ds.spec.bench_scale);
  const CsrMatrix& a = ds.graph.adjacency();
  h.i64(ds.graph.num_vertices()).i64(ds.graph.num_edges());
  h.i64(a.rows()).i64(a.cols());
  h.i64s(a.row_ptr()).i64s(a.col_idx()).f32s(a.values());
  h.i64(ds.features.rows())
      .i64(ds.features.cols())
      .i64(static_cast<std::int64_t>(ds.features.layout()));
  h.u64(ds.features.entries().size());
  for (const CooEntry& e : ds.features.entries()) h.i64(e.row).i64(e.col).f32(e.value);
  return h.digest();
}

std::uint64_t config_signature(const SimConfig& cfg) {
  HashStream h;
  h.i64(cfg.psys)
      .i64(cfg.num_cores)
      .f64(cfg.core_clock_hz)
      .f64(cfg.soft_clock_hz)
      .f64(cfg.ddr_bandwidth_bytes_per_s)
      .i64(cfg.dense_elem_bytes)
      .i64(cfg.coo_elem_bytes)
      .u64(cfg.onchip_tile_bytes)
      .i64(cfg.load_balance_eta)
      .i64(cfg.min_partition)
      .i64(cfg.k2p_cycles_per_pair)
      .i64(cfg.k2p_skip_cycles)
      .i64(cfg.dispatch_cycles_per_task)
      .i64(cfg.mode_switch_cycles)
      .f64(cfg.sparse_storage_threshold);
  return h.digest();
}

PlanKey plan_key(const GnnModel& model, std::int64_t num_vertices,
                 const SimConfig& cfg) {
  PlanKey key{num_vertices, static_cast<std::int64_t>(model.kernels.size())};
  for (const KernelSpec& s : model.kernels) {
    key.push_back(static_cast<std::int64_t>(s.kind));
    key.push_back(s.out_dim);
  }
  key.insert(key.end(), {cfg.psys, cfg.num_cores, cfg.load_balance_eta,
                         cfg.min_partition,
                         static_cast<std::int64_t>(cfg.onchip_tile_bytes),
                         cfg.dense_elem_bytes});
  return key;
}

std::uint64_t plan_signature(const GnnModel& model, std::int64_t num_vertices,
                             const SimConfig& cfg) {
  HashStream h;
  for (std::int64_t v : plan_key(model, num_vertices, cfg)) h.i64(v);
  return h.digest();
}

std::string CompileKey::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx-%016llx-%016llx",
                static_cast<unsigned long long>(model),
                static_cast<unsigned long long>(dataset),
                static_cast<unsigned long long>(config));
  return buf;
}

CompileKey make_compile_key(const GnnModel& model, const Dataset& ds,
                            const SimConfig& cfg) {
  return CompileKey{model_signature(model), dataset_signature(ds),
                    config_signature(cfg)};
}

std::uint64_t runtime_options_signature(const RuntimeOptions& rt) {
  // One name per field: a field added to RuntimeOptions — even a bool
  // that fits in its padding, which the sizeof pin cannot see — fails
  // this binding until it is named and hashed here.
  const auto& [strategy, hide_ahm, hide_runtime, host_threads, detailed_timing,
               collect_timeline] = rt;
  HashStream h;
  h.i64(static_cast<std::int64_t>(strategy))
      .i64(hide_ahm ? 1 : 0)
      .i64(hide_runtime ? 1 : 0)
      .i64(host_threads)
      .i64(detailed_timing ? 1 : 0)
      .i64(collect_timeline ? 1 : 0);
  return h.digest();
}

std::string ResultKey::to_string() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%s-%016llx", compile.to_string().c_str(),
                static_cast<unsigned long long>(runtime));
  return buf;
}

ResultKey make_result_key(const CompileKey& compile, const RuntimeOptions& rt) {
  return ResultKey{compile, runtime_options_signature(rt)};
}

}  // namespace dynasparse
