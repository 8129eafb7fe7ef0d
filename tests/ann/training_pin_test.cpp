// Pins the per-sample trainers bit for bit (ctest -L simd).
//
// The controller is trained one sample at a time: CD-1 RBM pretraining,
// then back-propagation through the whole stack. Each case trains on a
// fixed seeded set and folds every weight and bias it ends with (plus the
// returned loss) into one FNV-1a digest. A change that moves any bit of a
// layer fails here by layer name, which the offline digests alone cannot
// do. The suite runs in the SIMD and the SOLSCHED_SIMD=OFF builds and
// under ASan/UBSan; the digests are the same in every build.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "ann/dbn.hpp"
#include "ann/mlp.hpp"
#include "ann/rbm.hpp"
#include "util/rng.hpp"

namespace solsched::ann {
namespace {

class Digest {
 public:
  void mix(double x) {
    const auto word = std::bit_cast<std::uint64_t>(x);
    for (int b = 0; b < 8; ++b) {
      h_ ^= (word >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void mix(const std::vector<double>& xs) {
    for (double x : xs) mix(x);
  }
  void mix(const Mlp& net) {
    for (std::size_t l = 0; l < net.n_layers(); ++l) {
      mix(net.layer_weights(l).data());
      mix(net.layer_bias(l));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// 40 samples, 6 inputs and 3 targets in [0, 1], from a fixed seed.
std::vector<Sample> pin_samples() {
  util::Rng rng(41);
  std::vector<Sample> samples(40);
  for (Sample& s : samples) {
    s.x.resize(6);
    s.y.resize(3);
    for (double& v : s.x) v = rng.uniform(0.0, 1.0);
    for (double& v : s.y) v = rng.uniform(0.0, 1.0);
  }
  return samples;
}

TEST(TrainingPin, RbmPerSampleCd1) {
  std::vector<Vector> data;
  for (const Sample& s : pin_samples()) data.push_back(s.x);
  RbmTrainConfig cfg;
  cfg.epochs = 3;
  Rbm rbm(6, 5, 7);
  const double err = rbm.train(data, cfg);
  Digest d;
  d.mix(rbm.weights().data());
  d.mix(rbm.hidden_bias());
  d.mix(rbm.visible_bias());
  d.mix(err);
  EXPECT_EQ(d.value(), 0x889fac7b89e4446bull) << "rbm layer moved";
}

TEST(TrainingPin, MlpPerSampleBackprop) {
  MlpTrainConfig cfg;
  cfg.epochs = 5;
  Mlp net({6, 8, 3}, 99);
  const double loss = net.train(pin_samples(), cfg);
  Digest d;
  d.mix(net);
  d.mix(loss);
  EXPECT_EQ(d.value(), 0x61f3477c265649e2ull) << "mlp layer moved";
}

TEST(TrainingPin, DbnPretrainAndFinetune) {
  DbnConfig cfg;
  cfg.hidden_sizes = {5, 4};
  cfg.pretrain.epochs = 2;
  cfg.finetune.epochs = 4;
  Dbn dbn(6, 3, cfg);
  const DbnTrainReport report = dbn.train(pin_samples());
  Digest d;
  d.mix(dbn.network());
  d.mix(report.rbm_reconstruction_mse);
  d.mix(report.finetune_loss);
  EXPECT_EQ(d.value(), 0x0d9ff675d6cb105cull) << "dbn stack moved";
}

}  // namespace
}  // namespace solsched::ann
