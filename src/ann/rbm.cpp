#include "ann/rbm.hpp"

#include <stdexcept>

#include "ann/kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace solsched::ann {

Rbm::Rbm(std::size_t n_visible, std::size_t n_hidden, std::uint64_t seed)
    : rng_(seed) {
  if (n_visible == 0 || n_hidden == 0)
    throw std::invalid_argument("Rbm: layer sizes must be positive");
  weights_ = Matrix::randn(n_hidden, n_visible, rng_, 0.1);
  hidden_bias_.assign(n_hidden, 0.0);
  visible_bias_.assign(n_visible, 0.0);
  momentum_w_ = Matrix(n_hidden, n_visible);
  momentum_h_.assign(n_hidden, 0.0);
  momentum_v_.assign(n_visible, 0.0);
}

Vector Rbm::hidden_probs(const Vector& visible) const {
  Vector h = weights_.multiply(visible);
  add_inplace(h, hidden_bias_);
  sigmoid_inplace(h);
  return h;
}

Vector Rbm::visible_probs(const Vector& hidden) const {
  Vector v = weights_.multiply_transposed(hidden);
  add_inplace(v, visible_bias_);
  sigmoid_inplace(v);
  return v;
}

double Rbm::train_epoch(const std::vector<Vector>& data,
                        const RbmTrainConfig& config) {
  if (data.empty()) return 0.0;
  const auto order = rng_.permutation(data.size());

  // Phase buffers live across the epoch; the CD-1 weight step is one fused
  // pass (momentum_update2) instead of building an explicit gradient matrix
  // per sample. RNG consumption: one permutation per epoch, one Bernoulli
  // draw per hidden unit per sample.
  double err_acc = 0.0;
  Vector h0_probs;
  Vector h0;
  Vector v1;
  Vector h1_probs;
  for (std::size_t idx : order) {
    const Vector& v0 = data[idx];
    if (v0.size() != n_visible())
      throw std::invalid_argument("Rbm::train_epoch: sample size mismatch");

    // Positive phase.
    weights_.multiply_into(v0, h0_probs);
    add_inplace(h0_probs, hidden_bias_);
    sigmoid_inplace(h0_probs);
    h0.assign(h0_probs.size(), 0.0);
    for (std::size_t i = 0; i < h0_probs.size(); ++i)
      h0[i] = rng_.bernoulli(h0_probs[i]) ? 1.0 : 0.0;

    // Negative phase (one Gibbs step, probabilities for the statistics).
    weights_.multiply_transposed_into(h0, v1);
    add_inplace(v1, visible_bias_);
    sigmoid_inplace(v1);
    weights_.multiply_into(v1, h1_probs);
    add_inplace(h1_probs, hidden_bias_);
    sigmoid_inplace(h1_probs);

    momentum_update2(weights_, momentum_w_, h0_probs, v0, h1_probs, v1,
                     config.momentum, config.learning_rate,
                     -config.weight_decay);

    kernels::bias_momentum2_n(hidden_bias_.data(), momentum_h_.data(),
                              h0_probs.data(), h1_probs.data(),
                              config.momentum, config.learning_rate,
                              n_hidden());
    kernels::bias_momentum2_n(visible_bias_.data(), momentum_v_.data(),
                              v0.data(), v1.data(), config.momentum,
                              config.learning_rate, n_visible());

    err_acc += mse(v0, v1);
  }
  OBS_COUNTER_ADD("ann.kernel.gemv", data.size() * 2);
  OBS_COUNTER_ADD("ann.kernel.gemv_t", data.size());
  OBS_COUNTER_ADD("ann.kernel.sigmoid", data.size() * 3);
  OBS_COUNTER_ADD("ann.kernel.momentum", data.size());
  return err_acc / static_cast<double>(data.size());
}

double Rbm::train(const std::vector<Vector>& data,
                  const RbmTrainConfig& config) {
  double err = 0.0;
  for (std::size_t e = 0; e < config.epochs; ++e)
    err = train_epoch(data, config);
  return err;
}

double Rbm::reconstruction_mse(const std::vector<Vector>& data) const {
  if (data.empty()) return 0.0;
  // Independent reconstructions: per-index slots in parallel, serial sum
  // in data order (deterministic at any thread count).
  std::vector<double> errs(data.size());
  util::parallel_for(data.size(), [&](std::size_t i) {
    errs[i] = mse(data[i], visible_probs(hidden_probs(data[i])));
  });
  double acc = 0.0;
  for (double e : errs) acc += e;
  return acc / static_cast<double>(data.size());
}

}  // namespace solsched::ann
