// Ablation — multi-label design choices (§III-B, §IV-A; substrate
// defaults in README "Benchmarks and examples"):
//  * adjacency soft labels on/off,
//  * hierarchical coarse head r on/off,
//  * joint building/floor heads on/off.
#include <cstdio>

#include "support/bench_util.h"

namespace {

void run_variant(const char* name, noble::core::NobleWifiConfig cfg,
                 noble::core::WifiExperiment& exp) {
  using namespace noble::core;
  NobleWifiModel model(cfg);
  model.fit(exp.split.train, &exp.split.val);
  const auto report = evaluate_wifi(model.predict(exp.split.test), exp.split.test,
                                    model.quantizer(), &exp.world.plan);
  std::printf("%-36s mean=%6.2f m median=%6.2f m class=%6.2f%% floor=%6.2f%%\n", name,
              report.errors.mean, report.errors.median, 100.0 * report.class_accuracy,
              100.0 * report.floor_accuracy);
}

}  // namespace

int main() {
  using namespace noble;
  using namespace noble::core;

  bench::print_banner("ablation_labels",
                      "design-choice ablation: multi-label target blocks");
  auto ecfg = bench::uji_config();
  ecfg.total_samples = 5000;
  WifiExperiment exp = make_uji_experiment(ecfg);

  auto base = bench::noble_wifi_config();
  base.epochs = 20;

  run_variant("FULL (adjacency + coarse + b/f)", base, exp);

  {
    auto cfg = base;
    cfg.quantize.adjacency_labels = false;
    run_variant("- adjacency soft labels", cfg, exp);
  }
  {
    auto cfg = base;
    cfg.quantize.use_coarse = false;
    run_variant("- coarse head r", cfg, exp);
  }
  {
    auto cfg = base;
    cfg.predict_building = false;
    cfg.predict_floor = false;
    run_variant("- building/floor heads", cfg, exp);
  }
  {
    auto cfg = base;
    cfg.quantize.adjacency_labels = false;
    cfg.quantize.use_coarse = false;
    cfg.predict_building = false;
    cfg.predict_floor = false;
    run_variant("BARE (fine classes only)", cfg, exp);
  }
  {
    auto cfg = base;
    cfg.hierarchical_decode = true;
    run_variant("+ hierarchical coarse decode", cfg, exp);
  }
  std::printf("\npaper rationale (§III-B, §IV-A): adjacency fights class sparsity; "
              "the coarse head and the building/floor heads inject geodesic "
              "neighborhood information into the shared embedding.\n");
  return 0;
}
