// Ablation — quantization granularity tau (§III-B; the default tau is
// scaled for the synthetic substrate, see README "Benchmarks and examples").
//
// Sweeps the fine cell side: smaller tau gives more classes (lower class
// accuracy, smaller in-cell decode error); larger tau the reverse. The paper
// fixes tau < 0.2 m on real UJI; this bench shows the trade-off curve on the
// synthetic substrate.
#include <cstdio>

#include "support/bench_util.h"

int main() {
  using namespace noble;
  using namespace noble::core;

  bench::print_banner("ablation_tau", "design-choice ablation: grid side tau");
  auto cfg = bench::uji_config();
  cfg.total_samples = 5000;  // sweep budget
  WifiExperiment exp = make_uji_experiment(cfg);

  std::printf("%8s %10s %12s %12s %12s %12s\n", "tau (m)", "classes", "class acc(%)",
              "mean (m)", "median (m)", "p90 (m)");
  for (const double tau : {1.0, 2.0, 3.0, 5.0, 8.0, 12.0}) {
    auto ncfg = bench::noble_wifi_config();
    ncfg.quantize.tau = tau;
    ncfg.quantize.coarse_l = tau * 5.0;
    ncfg.epochs = 20;
    NobleWifiModel model(ncfg);
    model.fit(exp.split.train, &exp.split.val);
    const auto report = evaluate_wifi(model.predict(exp.split.test), exp.split.test,
                                      model.quantizer(), &exp.world.plan);
    std::printf("%8.1f %10zu %12.2f %12.2f %12.2f %12.2f\n", tau,
                model.quantizer().num_fine_classes(), 100.0 * report.class_accuracy,
                report.errors.mean, report.errors.median, report.errors.p90);
  }
  std::printf("\nexpected shape: class accuracy rises with tau while the decode "
              "floor (median) grows ~ tau/2; the error minimum sits between.\n");
  return 0;
}
