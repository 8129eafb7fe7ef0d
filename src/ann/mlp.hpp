// Multi-layer perceptron with back-propagation (the DBN's "BP network").
//
// All units are logistic sigmoid — including the outputs, since every
// target (capacitor choice one-hot, α index, te bits) is normalized into
// [0, 1]. Training is per-sample SGD with momentum, deterministic for a
// given seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ann/kernels/kernels.hpp"
#include "ann/matrix.hpp"
#include "util/rng.hpp"

namespace solsched::ann {

/// One labelled training sample.
struct Sample {
  Vector x;
  Vector y;
};

/// Back-propagation hyper-parameters.
struct MlpTrainConfig {
  std::size_t epochs = 200;
  double learning_rate = 0.2;
  double momentum = 0.7;
  double weight_decay = 1e-5;
  /// Samples per weight update. 1 (default) reproduces the per-sample SGD
  /// sequence bit-for-bit. >1 switches to minibatch SGD: forward/backward
  /// run as batch GEMM passes and the averaged gradient is applied once per
  /// batch — a *different training algorithm* (deterministic and identical
  /// across scalar/SIMD builds, but its loss is only tolerance-comparable
  /// to batch_size=1; runs stamp the batch size into their manifests).
  std::size_t batch_size = 1;
};

/// Fully connected feed-forward network.
class Mlp {
 public:
  /// layer_sizes = {inputs, hidden..., outputs}; at least 2 entries.
  Mlp(std::vector<std::size_t> layer_sizes, std::uint64_t seed);

  std::size_t n_inputs() const noexcept { return sizes_.front(); }
  std::size_t n_outputs() const noexcept { return sizes_.back(); }
  std::size_t n_layers() const noexcept { return weights_.size(); }

  /// Forward pass.
  Vector forward(const Vector& x) const;

  /// Batched forward pass over a padded sample panel (one sample per row).
  /// Bit-exact with calling forward() on each row: the batched GEMM keeps
  /// every sample's per-output accumulation order.
  kernels::BatchMatrix forward_batch(const kernels::BatchMatrix& x) const;

  /// One SGD epoch over the samples (shuffled); returns mean MSE loss.
  double train_epoch(const std::vector<Sample>& samples,
                     const MlpTrainConfig& config);

  /// Runs config.epochs epochs; returns the final epoch's loss.
  double train(const std::vector<Sample>& samples,
               const MlpTrainConfig& config);

  /// Mean MSE over a sample set.
  double evaluate(const std::vector<Sample>& samples) const;

  /// Injects pretrained weights into layer `layer` (0-based from input).
  /// Shapes must match the construction sizes.
  void set_layer(std::size_t layer, const Matrix& weights, const Vector& bias);

  const Matrix& layer_weights(std::size_t layer) const {
    return weights_.at(layer);
  }
  const Vector& layer_bias(std::size_t layer) const { return biases_.at(layer); }

  /// Text round-trip (weights + shape); parse errors throw.
  std::string serialize() const;
  static Mlp deserialize(const std::string& text);

 private:
  double train_epoch_minibatch(const std::vector<Sample>& samples,
                               const MlpTrainConfig& config,
                               const std::vector<std::size_t>& order);

  std::vector<std::size_t> sizes_;
  std::vector<Matrix> weights_;  ///< weights_[l]: sizes_[l+1] x sizes_[l].
  std::vector<Vector> biases_;
  std::vector<Matrix> vel_w_;
  std::vector<Vector> vel_b_;
  util::Rng rng_;
};

}  // namespace solsched::ann
