// Comparison models from the paper's evaluation.
//
// Wi-Fi (Table II): Deep Regression, Deep Regression Projection ([8]-style
// map projection), Manifold Embedding regression (Isomap / LLE features into
// a two-hidden-layer DNN), plus a RADAR-style weighted-kNN fingerprint
// matcher (§II background).
// IMU (Table III): Deep Regression on raw path features, and a map-assisted
// dead-reckoning baseline reproducing [8]'s mechanism (coarse-grained ML
// displacement per segment + turn-triggered map snapping).
#ifndef NOBLE_CORE_BASELINES_H_
#define NOBLE_CORE_BASELINES_H_

#include <cstdint>
#include <memory>

#include "data/dataset.h"
#include "data/preprocess.h"
#include "geo/floorplan.h"
#include "geo/pathgraph.h"
#include "manifold/embedding.h"
#include "nn/network.h"
#include "nn/trainer.h"

namespace noble::core {

/// Shared hyperparameters of the regression baselines (same capacity as
/// NObLe per §IV-B: identical input and network size).
struct RegressionConfig {
  std::size_t hidden_units = 128;
  double learning_rate = 2e-3;
  double lr_decay = 0.97;
  std::size_t epochs = 25;
  std::size_t batch_size = 64;
  std::size_t patience = 6;
  data::RssiRepresentation representation = data::RssiRepresentation::kPowed;
  std::uint64_t seed = 43;
};

/// DNN trained with mean squared error to map signals directly to
/// coordinates (the paper's "Deep Regression").
class DeepRegressionWifi {
 public:
  explicit DeepRegressionWifi(RegressionConfig config = {});

  nn::TrainResult fit(const data::WifiDataset& train,
                      const data::WifiDataset* val = nullptr);
  std::vector<geo::Point2> predict(const data::WifiDataset& test);
  bool fitted() const { return fitted_; }
  nn::Sequential& network() { return net_; }
  std::size_t macs_per_inference() const { return net_.macs_per_inference(input_dim_); }

 private:
  RegressionConfig config_;
  nn::Sequential net_;
  data::Standardizer target_scaler_;
  std::size_t input_dim_ = 0;
  bool fitted_ = false;
};

/// Deep Regression followed by projection of off-map predictions to the
/// nearest accessible position (the paper's "Deep Regression Projection").
class RegressionProjectionWifi {
 public:
  RegressionProjectionWifi(RegressionConfig config, const geo::FloorPlan& plan);

  nn::TrainResult fit(const data::WifiDataset& train,
                      const data::WifiDataset* val = nullptr);
  std::vector<geo::Point2> predict(const data::WifiDataset& test);

 private:
  DeepRegressionWifi inner_;
  const geo::FloorPlan* plan_;
};

/// Manifold embedding choice for ManifoldRegressionWifi.
enum class ManifoldMethod { kIsomap, kLle };

/// Hyperparameters of the manifold baselines.
struct ManifoldRegressionConfig {
  RegressionConfig regression;
  ManifoldMethod method = ManifoldMethod::kIsomap;
  /// Embedding dimension (paper: 400; default smaller for the single-core
  /// substrate, see README "Benchmarks and examples" — override with
  /// NOBLE_MANIFOLD_DIM).
  std::size_t embedding_dim = 64;
  /// kNN graph size.
  std::size_t k = 12;
  /// Training samples used to fit the embedder (subsampled for tractability;
  /// all samples are then transformed through the fitted embedding).
  std::size_t fit_subsample = 1500;
  std::uint64_t seed = 45;
};

/// Isomap/LLE embedding of the signal space followed by a two-hidden-layer
/// DNN regressor from embedding to coordinates (§IV-B "Manifold Embedding").
class ManifoldRegressionWifi {
 public:
  explicit ManifoldRegressionWifi(ManifoldRegressionConfig config = {});

  nn::TrainResult fit(const data::WifiDataset& train,
                      const data::WifiDataset* val = nullptr);
  std::vector<geo::Point2> predict(const data::WifiDataset& test);

 private:
  linalg::Mat embed(const linalg::Mat& features) const;

  ManifoldRegressionConfig config_;
  std::unique_ptr<manifold::Embedder> embedder_;
  nn::Sequential net_;
  data::Standardizer embed_scaler_;
  data::Standardizer target_scaler_;
  bool fitted_ = false;
};

/// RADAR-style weighted k-nearest-neighbor fingerprint matcher: position is
/// the inverse-distance-weighted average of the k closest radio-map entries;
/// building/floor by neighbor majority.
class KnnFingerprintWifi {
 public:
  explicit KnnFingerprintWifi(std::size_t k = 5,
                              data::RssiRepresentation rep =
                                  data::RssiRepresentation::kPowed);

  void fit(const data::WifiDataset& train);
  /// Returns positions; `buildings`/`floors` receive majority votes when
  /// non-null.
  std::vector<geo::Point2> predict(const data::WifiDataset& test,
                                   std::vector<int>* buildings = nullptr,
                                   std::vector<int>* floors = nullptr) const;

 private:
  std::size_t k_;
  data::RssiRepresentation rep_;
  linalg::Mat train_features_;
  std::vector<geo::Point2> train_positions_;
  std::vector<int> train_buildings_, train_floors_;
};

/// DNN trained with MSE from raw IMU path features (plus start position) to
/// the ending coordinates — Table III's "Deep Regression Model".
class DeepRegressionImu {
 public:
  explicit DeepRegressionImu(RegressionConfig config = {});

  nn::TrainResult fit(const data::ImuDataset& train,
                      const data::ImuDataset* val = nullptr);
  std::vector<geo::Point2> predict(const data::ImuDataset& test);

 private:
  linalg::Mat build_inputs(const data::ImuDataset& ds) const;

  RegressionConfig config_;
  nn::Sequential net_;
  data::Standardizer input_scaler_;
  data::Standardizer target_scaler_;
  bool fitted_ = false;
};

/// Map-assisted pedestrian dead reckoning reproducing [8]'s mechanism:
///  * per-segment travel DISTANCE predicted by coarse-grained ML
///    (uniform-weight kNN over per-channel RMS energy features — [8] used
///    nearest neighbors / random forest on handcrafted features);
///  * HEADING maintained by integrating the yaw gyroscope from the path's
///    initial orientation (dead reckoning proper — this is where drift
///    accumulates);
///  * MAP CORRECTION: when a segment contains a detected turn, the estimate
///    is snapped to the walkway network ("turns can only be made on
///    specific points on the map"), and again at the path end.
/// Energy-only features and gyro-integrated heading keep the baseline
/// honest: direction-bearing features would let a segment bank memorize the
/// duplicate windows shared between randomly split paths (§V-A artifact).
class MapAssistedDeadReckoning {
 public:
  struct Config {
    std::size_t k = 15;
    /// Absolute integrated yaw (rad) over a segment that flags a turn.
    double turn_threshold_rad = 0.6;
    /// Maximum labeled segments kept in the bank (memory bound).
    std::size_t max_bank = 20000;
  };

  MapAssistedDeadReckoning(Config config, const geo::PathGraph& walkways);

  /// Builds the labeled segment bank from training paths (per-segment
  /// displacements come from the reference coordinates, §V-A).
  void fit(const data::ImuDataset& train);
  std::vector<geo::Point2> predict(const data::ImuDataset& test) const;

 private:
  /// 6-dim energy descriptor (per-channel RMS) of one raw segment window.
  std::vector<float> coarse_features(const float* segment) const;

  Config config_;
  const geo::PathGraph* walkways_;
  std::size_t segment_dim_ = 0;
  linalg::Mat bank_features_;
  std::vector<double> bank_distances_;  // per-segment travel distance labels
};

}  // namespace noble::core

#endif  // NOBLE_CORE_BASELINES_H_
