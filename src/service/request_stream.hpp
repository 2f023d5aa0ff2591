#pragma once
// Request-stream format: a line-oriented description of a serving
// workload, replayed by tools/dynasparse_serve.cpp.
//
//   # comment lines ignored; blank lines ignored
//   dataset=CO model=gcn scale=4 hidden=16 prune=0.5 seed=7 repeat=2
//
// Every field is optional except dataset; `repeat=N` expands to N
// identical requests (how a stream expresses the repeated-traffic pattern
// the compilation cache amortizes), and `deadline_ms=N` bounds each
// expanded request's end-to-end time (0 = the service default). Unknown
// keys and malformed values throw std::runtime_error with a line number,
// matching the io/ readers.
//
// materialize() regenerates the dataset and model deterministically from
// the spec, so two streams containing the same line produce content-equal
// requests that share one cache entry.

#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/k2p.hpp"
#include "service/inference_service.hpp"

namespace dynasparse {

struct StreamRequestSpec {
  std::string dataset = "CO";   // registry tag (CI/CO/PU/FL/NE/RE)
  int scale = 0;                // 0 = dataset default bench scale
  GnnModelKind model = GnnModelKind::kGcn;
  std::int64_t hidden = 0;      // 0 = dataset default hidden dim
  double prune = 0.0;           // weight sparsity in [0, 1)
  MappingStrategy strategy = MappingStrategy::kDynamic;
  std::uint64_t seed = 2023;
  int repeat = 1;
  std::int64_t deadline_ms = 0;  // 0 = service default; see ServiceRequest

  /// Render back as one stream line (write->parse round-trips).
  std::string to_line() const;
};

/// Parse helpers shared with the CLIs; throw std::runtime_error on
/// unknown names.
GnnModelKind parse_model_kind(const std::string& s);
MappingStrategy parse_strategy_name(const std::string& s);

/// Parse a stream; `repeat` is kept folded (one spec per line).
std::vector<StreamRequestSpec> parse_request_stream(std::istream& in);
std::vector<StreamRequestSpec> read_request_stream_file(const std::string& path);

/// Expand repeat counts into a flat request list, in stream order.
std::vector<StreamRequestSpec> expand_stream(
    const std::vector<StreamRequestSpec>& specs);

/// Deterministically generate the dataset + model for a spec and wrap
/// them as an owning ServiceRequest.
ServiceRequest materialize_request(const StreamRequestSpec& spec);

/// A synthetic mixed workload: `n` requests cycling through a fixed
/// roster of (dataset, model) pairs, seeded by `seed`. Used by the serve
/// tool's --requests mode, dynasparse_loadgen, bench/unarmed_overhead
/// and the service tests.
std::vector<StreamRequestSpec> synthetic_stream(int n, std::uint64_t seed);

}  // namespace dynasparse
