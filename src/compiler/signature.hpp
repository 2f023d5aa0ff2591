#pragma once
// Content-hash signatures of compilation inputs and artifacts.
//
// The inference service caches CompiledPrograms keyed by *what was
// compiled*, not by object identity: two independently generated but
// bit-identical (model, dataset, config) triples must collide, and any
// change to weight values, graph topology, feature nonzeros, or a single
// SimConfig field must produce a different key. Signatures therefore hash
// the full content — every float as its bit pattern, every index array,
// every config field — with a 64-bit FNV-1a-style word hash. Wall-clock
// fields (CompileStats) are never part of a signature.

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/dataset.hpp"
#include "model/model.hpp"
#include "runtime/runtime_system.hpp"
#include "util/config.hpp"

namespace dynasparse {

/// Incremental 64-bit content hash. Word-granular FNV-1a variant with an
/// extra diffusion shift per step; collision-resistant enough for cache
/// keying (keys additionally carry three independent component hashes).
class HashStream {
 public:
  HashStream& u64(std::uint64_t v) {
    h_ ^= v;
    h_ *= kPrime;
    h_ ^= h_ >> 32;
    return *this;
  }
  HashStream& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  HashStream& f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }
  HashStream& f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }
  HashStream& str(const std::string& s) {
    u64(s.size());
    for (char c : s) u64(static_cast<unsigned char>(c));
    return *this;
  }
  HashStream& i64s(const std::vector<std::int64_t>& v) {
    u64(v.size());
    for (std::int64_t x : v) i64(x);
    return *this;
  }
  HashStream& f32s(const std::vector<float>& v) {
    u64(v.size());
    for (float x : v) f32(x);
    return *this;
  }
  std::uint64_t digest() const { return h_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

/// Hash of everything that makes a model what it is: kind, name, layer
/// structure, every KernelSpec field, weight shapes and weight value bits.
std::uint64_t model_signature(const GnnModel& model);

/// Hash of the dataset content: the spec (including name/tag, which flow
/// into reports), the adjacency CSR arrays, and the feature nonzeros.
std::uint64_t dataset_signature(const Dataset& ds);

/// An immutable T (GnnModel or Dataset) behind a shared_ptr, signed once:
/// every copy of a handle shares the value and its content signature
/// (model_signature / dataset_signature). The full-content hash costs
/// milliseconds on the larger inputs, so it runs once per input object —
/// on the first signature() call, under std::call_once — instead of once
/// per request that reads it. `*`, `->` and `explicit operator bool` read
/// like the shared_ptr they wrap; a default handle is null, and calling
/// signature() on it is undefined.
template <typename T>
class Signed {
 public:
  Signed() = default;
  explicit Signed(T value) : state_(std::make_shared<State>(std::move(value))) {}

  const T& operator*() const { return state_->value; }
  const T* operator->() const { return &state_->value; }
  explicit operator bool() const { return state_ != nullptr; }

  std::uint64_t signature() const {
    State& s = *state_;
    std::call_once(s.once, [&s] { s.sig = sign(s.value); });
    return s.sig;
  }

 private:
  struct State {
    explicit State(T v) : value(std::move(v)) {}
    const T value;
    std::once_flag once;
    std::uint64_t sig = 0;
  };
  static std::uint64_t sign(const GnnModel& m) { return model_signature(m); }
  static std::uint64_t sign(const Dataset& ds) { return dataset_signature(ds); }

  std::shared_ptr<State> state_;
};

/// Hash of every SimConfig field. Keep in sync with the struct — a new
/// field MUST be added here, or programs compiled under different configs
/// would collide in the cache.
std::uint64_t config_signature(const SimConfig& cfg);

/// The partition planner's inputs, spelled out once as a flat list: the
/// vertex count (every kernel spans the whole graph), the kernel count,
/// each kernel's (kind, out_dim), and the SimConfig fields
/// plan_partitions reads (psys, num_cores, load_balance_eta,
/// min_partition, and the onchip_tile_bytes / dense_elem_bytes behind
/// max_partition_size). A strict subset of the CompileKey content: weight
/// values, feature nonzeros, graph topology beyond |V|, and the
/// non-planning config fields stay out, so *similar* requests — same
/// model/plan shape but a different dataset instance, pruning level, or
/// weight draw — have equal keys even though their CompileKeys differ.
/// Equal keys are equal planner inputs, so plan_partitions returns the
/// identical PartitionPlan for both — which is what licenses the
/// PlanStore (service/plan_store.hpp), keyed on this list, to seed
/// compile_with_plan and still produce a bit-identical program. Keep in
/// sync with plan_partitions the same way config_signature tracks
/// SimConfig: a new planner input MUST be added here or incompatible
/// requests would share plans.
using PlanKey = std::vector<std::int64_t>;
PlanKey plan_key(const GnnModel& model, std::int64_t num_vertices,
                 const SimConfig& cfg);

/// Hash of plan_key(model, num_vertices, cfg): equal for every request
/// that would plan identically. The batch scheduler groups on it.
std::uint64_t plan_signature(const GnnModel& model, std::int64_t num_vertices,
                             const SimConfig& cfg);

/// Compilation-cache key: independent content hashes of the three compile
/// inputs. Equality of all three components is what "same compilation"
/// means to the service.
struct CompileKey {
  std::uint64_t model = 0;
  std::uint64_t dataset = 0;
  std::uint64_t config = 0;

  bool operator==(const CompileKey& o) const {
    return model == o.model && dataset == o.dataset && config == o.config;
  }
  bool operator!=(const CompileKey& o) const { return !(*this == o); }
  bool operator<(const CompileKey& o) const {
    if (model != o.model) return model < o.model;
    if (dataset != o.dataset) return dataset < o.dataset;
    return config < o.config;
  }
  /// "mmmmmmmm-dddddddd-cccccccc" hex rendering for logs and tools.
  std::string to_string() const;
};

/// Hashes all three inputs in full on every call. A queued request's key
/// comes from its signed handles instead (ServiceRequest::compile_key).
CompileKey make_compile_key(const GnnModel& model, const Dataset& ds,
                            const SimConfig& cfg);

/// Hash of every RuntimeOptions field. Keep in sync with the struct — a
/// new field MUST be added here, or results executed under different
/// runtime options would collide in the result cache (same discipline as
/// config_signature).
///
/// Every field is hashed, including host_threads, even though results are
/// thread-count-invariant by construction: "flip any field, change the
/// key" is a simpler invariant to keep true than a per-field judgement
/// call of what affects results, and the cost of the conservative key is
/// only a cache miss that re-executes — never a wrong report.
std::uint64_t runtime_options_signature(const RuntimeOptions& rt);

/// Result-memoization key: the compilation identity plus the runtime
/// options the program was executed under. The simulator is fully
/// deterministic (see InferenceReport::deterministic_fingerprint), so two
/// requests with equal ResultKeys must produce bit-identical deterministic
/// report fields — which is what licenses the service's ResultCache to
/// return a stored report without executing.
struct ResultKey {
  CompileKey compile;
  std::uint64_t runtime = 0;

  bool operator==(const ResultKey& o) const {
    return compile == o.compile && runtime == o.runtime;
  }
  bool operator!=(const ResultKey& o) const { return !(*this == o); }
  bool operator<(const ResultKey& o) const {
    if (compile != o.compile) return compile < o.compile;
    return runtime < o.runtime;
  }
  /// "mmmmmmmm-dddddddd-cccccccc-rrrrrrrr" hex rendering for logs/tools.
  std::string to_string() const;
};

ResultKey make_result_key(const CompileKey& compile, const RuntimeOptions& rt);

}  // namespace dynasparse
