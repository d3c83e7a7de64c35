// Table II — comparative distance errors on UJIIndoorLoc (synthetic
// substitute): Deep Regression, Deep Regression Projection, Isomap Deep
// Regression, LLE Deep Regression — against NObLe (Table I model).
//
// Paper values (mean/median m): Deep Regression 10.17/7.84, Regression
// Projection 9.76/7.16, Isomap 11.01/7.56, LLE 10.05/7.43; NObLe 4.45/0.23.
#include <cstdio>

#include "common/config.h"
#include "support/bench_util.h"

int main() {
  using namespace noble;
  using namespace noble::core;

  bench::print_banner("table2_comparative",
                      "Table II: comparative distance errors on UJIIndoorLoc");
  WifiExperiment exp = make_uji_experiment(bench::uji_config());
  std::printf("train/val/test = %zu/%zu/%zu\n\n", exp.split.train.size(),
              exp.split.val.size(), exp.split.test.size());

  print_table_header("TABLE II: comparative distance errors (m)");

  {
    DeepRegressionWifi reg(bench::regression_config());
    reg.fit(exp.split.train, &exp.split.val);
    const auto report =
        evaluate_positions(reg.predict(exp.split.test), exp.split.test, &exp.world.plan);
    bench::print_position_row("DEEP REGRESSION", report, "10.17", "7.84");
  }
  {
    RegressionProjectionWifi proj(bench::regression_config(), exp.world.plan);
    proj.fit(exp.split.train, &exp.split.val);
    const auto report = evaluate_positions(proj.predict(exp.split.test), exp.split.test,
                                           &exp.world.plan);
    bench::print_position_row("REGRESSION PROJECTION", report, "9.76", "7.16");
  }
  const auto manifold_dim =
      static_cast<std::size_t>(env_int("NOBLE_MANIFOLD_DIM", 64));
  {
    ManifoldRegressionConfig mcfg;
    mcfg.method = ManifoldMethod::kIsomap;
    // Paper: 400; scaled down (see README "Benchmarks and examples").
    mcfg.embedding_dim = manifold_dim;
    mcfg.regression = bench::regression_config();
    ManifoldRegressionWifi isomap(mcfg);
    isomap.fit(exp.split.train, &exp.split.val);
    const auto report = evaluate_positions(isomap.predict(exp.split.test),
                                           exp.split.test, &exp.world.plan);
    bench::print_position_row("ISOMAP DEEP REGRESSION", report, "11.01", "7.56");
  }
  {
    ManifoldRegressionConfig mcfg;
    mcfg.method = ManifoldMethod::kLle;
    mcfg.embedding_dim = manifold_dim;
    mcfg.regression = bench::regression_config();
    ManifoldRegressionWifi lle(mcfg);
    lle.fit(exp.split.train, &exp.split.val);
    const auto report = evaluate_positions(lle.predict(exp.split.test), exp.split.test,
                                           &exp.world.plan);
    bench::print_position_row("LLE DEEP REGRESSION", report, "10.05", "7.43");
  }
  {
    NobleWifiModel noble(bench::noble_wifi_config());
    noble.fit(exp.split.train, &exp.split.val);
    const auto wreport = evaluate_wifi(noble.predict(exp.split.test), exp.split.test,
                                       noble.quantizer(), &exp.world.plan);
    PositionReport report{wreport.errors, wreport.structure_score};
    bench::print_position_row("NOBLE (Table I model)", report, "4.45", "0.23");
  }
  {
    // Extra context (§II): the classical fingerprint matcher.
    KnnFingerprintWifi knn(5);
    knn.fit(exp.split.train);
    const auto report = evaluate_positions(knn.predict(exp.split.test), exp.split.test,
                                           &exp.world.plan);
    bench::print_position_row("WEIGHTED kNN (RADAR-style)", report, "-", "-");
  }
  std::printf("\nmanifold embedding dim = %zu (paper used 400; override with "
              "NOBLE_MANIFOLD_DIM)\n", manifold_dim);
  return 0;
}
