// dynasparse_cli — run the full pipeline from the command line.
//
//   dynasparse_cli --dataset CO --model gcn --strategy dynamic
//   dynasparse_cli --graph g.txt --features f.txt --model sage --json out.json
//
// Flags:
//   --dataset TAG     registry dataset (CI/CO/PU/FL/NE/RE)
//   --scale N         registry downscale (0 = dataset default, 1 = paper)
//   --graph PATH      edge-list file (overrides --dataset; needs --features)
//   --features PATH   feature file for --graph
//   --model NAME      gcn | sage | gin | sgc          (default gcn)
//   --hidden N        hidden dimension                 (default 16)
//   --classes N       output dimension for --graph     (default 8)
//   --strategy NAME   dynamic | static1 | static2      (default dynamic)
//   --prune P         weight sparsity in [0,1]         (default 0)
//   --seed S          RNG seed                         (default 2023)
//   --csv PATH        write per-kernel CSV
//   --json PATH       write report JSON
//   --trace PATH      write a chrome://tracing timeline of the schedule

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "core/engine.hpp"
#include "io/graph_io.hpp"
#include "io/report_io.hpp"
#include "io/trace_io.hpp"
#include "service/request_stream.hpp"
#include "util/strict_parse.hpp"

using namespace dynasparse;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\n(see header of tools/dynasparse_cli.cpp)\n", msg);
  std::exit(2);
}

GnnModelKind parse_model(const std::string& s) {
  try {
    return parse_model_kind(s);
  } catch (const std::runtime_error&) {
    usage("unknown --model");
  }
}

DatasetSpec parse_dataset(const std::string& tag) {
  try {
    return dataset_by_tag(tag);
  } catch (const std::invalid_argument&) {
    usage("unknown --dataset");
  }
}

MappingStrategy parse_strategy(const std::string& s) {
  try {
    return parse_strategy_name(s);
  } catch (const std::runtime_error&) {
    usage("unknown --strategy");
  }
}

/// Strict whole-token numeric flags (util/strict_parse.hpp): "--scale 4x2"
/// and "--seed foo" both die with a clean usage error naming the flag,
/// instead of a silent misparse or an unhandled std::invalid_argument.
template <typename Parse>
auto parse_flag(const char* flag, const std::string& value, Parse parse)
    -> decltype(parse(value)) {
  try {
    return parse(value);
  } catch (const std::exception&) {
    usage(("bad value for --" + std::string(flag) + ": " + value).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> opt;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("flags start with --");
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    opt[key.substr(2)] = argv[++i];
  }
  auto get = [&](const char* k, const std::string& def) {
    auto it = opt.find(k);
    return it == opt.end() ? def : it->second;
  };

  std::uint64_t seed = parse_flag("seed", get("seed", "2023"), strict_stoull);
  GnnModelKind kind = parse_model(get("model", "gcn"));
  MappingStrategy strategy = parse_strategy(get("strategy", "dynamic"));
  double prune = parse_flag("prune", get("prune", "0"), strict_stod);

  Dataset ds;
  if (opt.count("graph")) {
    if (!opt.count("features")) usage("--graph needs --features");
    ds.graph = read_edge_list_file(opt["graph"]);
    ds.features = read_features_file(opt["features"]);
    if (ds.features.rows() != ds.graph.num_vertices())
      usage("feature rows != graph vertices");
    ds.spec.name = opt["graph"];
    ds.spec.tag = "FILE";
    ds.spec.vertices = ds.graph.num_vertices();
    ds.spec.edges = ds.graph.num_edges();
    ds.spec.feature_dim = ds.features.cols();
    ds.spec.num_classes = parse_flag("classes", get("classes", "8"), strict_stoll);
    ds.spec.hidden_dim = parse_flag("hidden", get("hidden", "16"), strict_stoll);
  } else {
    ds = generate_dataset(parse_dataset(get("dataset", "CO")),
                          parse_flag("scale", get("scale", "0"), strict_stoi), seed);
    if (opt.count("hidden"))
      ds.spec.hidden_dim = parse_flag("hidden", opt["hidden"], strict_stoll);
  }

  Rng rng(seed + 1);
  GnnModel model = build_model(kind, ds.spec.feature_dim, ds.spec.hidden_dim,
                               ds.spec.num_classes, rng);
  if (prune > 0.0) prune_model(model, prune);

  EngineOptions options;
  options.runtime.strategy = strategy;
  options.runtime.collect_timeline = opt.count("trace") > 0;
  InferenceReport report = run_inference(model, ds, options);
  std::cout << report.summary() << "\n\n" << report.kernel_table();

  if (opt.count("csv")) {
    std::ofstream f(opt["csv"]);
    if (!f) usage("cannot write --csv file");
    f << report_to_csv(report);
    std::cout << "wrote " << opt["csv"] << "\n";
  }
  if (opt.count("json")) {
    std::ofstream f(opt["json"]);
    if (!f) usage("cannot write --json file");
    f << report_to_json(report);
    std::cout << "wrote " << opt["json"] << "\n";
  }
  if (opt.count("trace")) {
    std::ofstream f(opt["trace"]);
    if (!f) usage("cannot write --trace file");
    f << execution_to_chrome_trace(report.execution, options.config);
    std::cout << "wrote " << opt["trace"] << " (open in chrome://tracing)\n";
  }
  return 0;
}
