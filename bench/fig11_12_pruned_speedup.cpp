// Reproduces paper Figs. 11 & 12 and Table VIII: speedup of Dynamic over
// Static-1 (Fig. 11) and Static-2 (Fig. 12) as the weight matrices are
// pruned to increasing sparsity, for all four models and six datasets;
// Table VIII's geometric means per sparsity band close the summary. The
// last line counts the sparsity steps at which a row's speedup falls
// (from the unrounded ratios) and names the largest fall.

#include <cstdio>
#include <map>
#include <string>

#include "bench_common.hpp"
#include "util/math_util.hpp"

using namespace dynasparse;
using namespace dynasparse::bench;

int main(int argc, char** argv) {
  BenchArgs args = parse_args(argc, argv);
  const std::vector<double> sparsities = {0.0, 0.2, 0.4, 0.6, 0.8, 0.95, 0.99};
  // Sparsity-band buckets of Table VIII.
  std::map<std::string, std::vector<double>> band_s1, band_s2;
  auto band_of = [](double s) -> std::string {
    if (s < 0.5) return "<50%";
    if (s < 0.7) return "50-70%";
    if (s < 0.9) return "70-90%";
    return ">90%";
  };
  // Steps between adjacent sparsities, and those where the speedup fell.
  int steps = 0, falls = 0;
  double worst_fall = 0.0;
  std::string worst_row;
  std::size_t worst_step = 0;  // the fall from sparsities[worst_step - 1]
  auto count_falls = [&](const std::vector<double>& row,
                         const std::string& label) {
    for (std::size_t i = 1; i < row.size(); ++i) {
      ++steps;
      const double fall = row[i - 1] - row[i];
      if (fall <= 0.0) continue;
      ++falls;
      if (fall > worst_fall) {
        worst_fall = fall;
        worst_row = label;
        worst_step = i;
      }
    }
  };

  for (GnnModelKind kind : paper_models()) {
    std::printf("=== Figs. 11/12: %s — speedup of Dynamic vs weight sparsity ===\n",
                model_kind_name(kind));
    std::printf("%-4s %-6s", "tag", "vs");
    for (double s : sparsities) std::printf("%9.0f%%", s * 100.0);
    std::printf("\n");
    for (const std::string& tag : dataset_tags()) {
      Dataset ds = load_dataset(tag, args);
      std::vector<double> so1, so2;
      for (double s : sparsities) {
        GnnModel m = make_model(kind, ds, args.seed, s);
        CompiledProgram prog = compile(m, ds, u250_config());
        double dyn = strategy_latency_ms(prog, MappingStrategy::kDynamic);
        double s1 = strategy_latency_ms(prog, MappingStrategy::kStatic1);
        double s2 = strategy_latency_ms(prog, MappingStrategy::kStatic2);
        so1.push_back(s1 / dyn);
        so2.push_back(s2 / dyn);
        band_s1[band_of(s)].push_back(s1 / dyn);
        band_s2[band_of(s)].push_back(s2 / dyn);
      }
      std::printf("%-4s %-6s", tag.c_str(), "S1");
      for (double v : so1) std::printf("%9.2fx", v);
      std::printf("\n%-4s %-6s", tag.c_str(), "S2");
      for (double v : so2) std::printf("%9.2fx", v);
      std::printf("\n");
      const std::string row = std::string(model_kind_name(kind)) + " " + tag;
      count_falls(so1, row + " S1");
      count_falls(so2, row + " S2");
    }
    std::printf("\n");
  }

  std::printf("=== Table VIII: geo-mean speedup per weight-sparsity band ===\n");
  std::printf("%-10s %10s %10s\n", "band", "SO-S1", "SO-S2");
  for (const char* band : {"<50%", "50-70%", "70-90%", ">90%"}) {
    std::printf("%-10s %9.2fx %9.2fx\n", band, geometric_mean(band_s1[band]),
                geometric_mean(band_s2[band]));
  }
  std::printf("# paper Table VIII: SO-S1 2.16x / 4.36x / 10.77x / 15.96x,\n"
              "#                   SO-S2 1.38x / 1.64x /  2.11x /  5.03x\n");
  std::printf("# Monotonicity: the speedup falls at %d of %d sparsity steps",
              falls, steps);
  if (falls > 0)
    std::printf("; largest fall %.3fx (%s, %.0f%% -> %.0f%%)", worst_fall,
                worst_row.c_str(), sparsities[worst_step - 1] * 100.0,
                sparsities[worst_step] * 100.0);
  std::printf(".\n");
  return 0;
}
