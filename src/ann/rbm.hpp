// Restricted Boltzmann machine with contrastive divergence (CD-1).
//
// The paper's DBN (Fig. 6) pretrains its hidden layers as RBMs by
// unsupervised learning before supervised fine-tuning. Inputs are
// continuous in [0, 1] (normalized solar powers, voltages, DMR) and are
// treated as Bernoulli probabilities, the standard practice for
// unit-interval data.
#pragma once

#include <cstdint>
#include <vector>

#include "ann/matrix.hpp"
#include "util/rng.hpp"

namespace solsched::ann {

/// Training hyper-parameters for CD-1 (hidden states sampled in the
/// positive phase, one weight update per sample).
struct RbmTrainConfig {
  std::size_t epochs = 30;
  double learning_rate = 0.1;
  double momentum = 0.5;
  double weight_decay = 1e-4;
};

/// Bernoulli-Bernoulli RBM.
class Rbm {
 public:
  Rbm(std::size_t n_visible, std::size_t n_hidden, std::uint64_t seed);

  std::size_t n_visible() const noexcept { return weights_.cols(); }
  std::size_t n_hidden() const noexcept { return weights_.rows(); }

  /// P(h = 1 | v).
  Vector hidden_probs(const Vector& visible) const;
  /// P(v = 1 | h).
  Vector visible_probs(const Vector& hidden) const;

  /// One CD-1 epoch over the data set; returns mean reconstruction MSE.
  double train_epoch(const std::vector<Vector>& data,
                     const RbmTrainConfig& config);

  /// Runs config.epochs epochs; returns the final reconstruction MSE.
  double train(const std::vector<Vector>& data, const RbmTrainConfig& config);

  /// Mean reconstruction error of the data under the current weights.
  double reconstruction_mse(const std::vector<Vector>& data) const;

  /// Weight matrix (hidden x visible) — consumed by DBN stacking.
  const Matrix& weights() const noexcept { return weights_; }
  const Vector& hidden_bias() const noexcept { return hidden_bias_; }
  const Vector& visible_bias() const noexcept { return visible_bias_; }

 private:
  Matrix weights_;  ///< hidden x visible.
  Vector hidden_bias_;
  Vector visible_bias_;
  Matrix momentum_w_;
  Vector momentum_h_;
  Vector momentum_v_;
  util::Rng rng_;
};

}  // namespace solsched::ann
