#include "ann/mlp.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ann/kernels/kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace solsched::ann {

Mlp::Mlp(std::vector<std::size_t> layer_sizes, std::uint64_t seed)
    : sizes_(std::move(layer_sizes)), rng_(seed) {
  if (sizes_.size() < 2)
    throw std::invalid_argument("Mlp: need at least input and output layers");
  for (std::size_t s : sizes_)
    if (s == 0) throw std::invalid_argument("Mlp: zero-size layer");
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    // Xavier-ish scale keeps sigmoid activations in their linear region.
    const double stddev = 1.0 / std::sqrt(static_cast<double>(sizes_[l]));
    weights_.push_back(Matrix::randn(sizes_[l + 1], sizes_[l], rng_, stddev));
    biases_.emplace_back(sizes_[l + 1], 0.0);
    vel_w_.emplace_back(sizes_[l + 1], sizes_[l]);
    vel_b_.emplace_back(sizes_[l + 1], 0.0);
  }
}

Vector Mlp::forward(const Vector& x) const {
  if (x.size() != n_inputs())
    throw std::invalid_argument("Mlp::forward: input size mismatch");
  Vector a = x;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    a = weights_[l].multiply(a);
    add_inplace(a, biases_[l]);
    sigmoid_inplace(a);
  }
  return a;
}

kernels::BatchMatrix Mlp::forward_batch(const kernels::BatchMatrix& x) const {
  if (x.cols() != n_inputs())
    throw std::invalid_argument("Mlp::forward_batch: input size mismatch");
  OBS_SPAN("ann.gemm");
  const std::size_t n = x.rows();
  kernels::BatchMatrix cur = x;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const Matrix& w = weights_[l];
    kernels::BatchMatrix next(n, w.rows());
    kernels::gemm_batch(w.data().data(), w.rows(), w.cols(), cur.data(), n,
                        cur.ld(), next.data(), next.ld());
    for (std::size_t s = 0; s < n; ++s) {
      double* row = next.row(s);
      kernels::add_n(row, biases_[l].data(), w.rows());
      kernels::sigmoid_n(row, w.rows());
    }
    cur = std::move(next);
  }
  OBS_COUNTER_ADD("ann.kernel.gemm_batch", weights_.size());
  return cur;
}

double Mlp::train_epoch(const std::vector<Sample>& samples,
                        const MlpTrainConfig& config) {
  if (samples.empty()) return 0.0;
  const auto order = rng_.permutation(samples.size());
  const std::size_t depth = weights_.size();

  // Activation/delta buffers live across the whole epoch; the weight step is
  // one fused pass (momentum_update) instead of building an explicit
  // gradient matrix per sample.
  double loss_acc = 0.0;
  std::vector<Vector> acts(depth + 1);
  Vector delta;
  Vector next_delta;
  for (std::size_t idx : order) {
    const Sample& sample = samples[idx];
    if (sample.x.size() != n_inputs() || sample.y.size() != n_outputs())
      throw std::invalid_argument("Mlp::train_epoch: sample size mismatch");

    acts[0] = sample.x;
    for (std::size_t l = 0; l < depth; ++l) {
      weights_[l].multiply_into(acts[l], acts[l + 1]);
      add_inplace(acts[l + 1], biases_[l]);
      sigmoid_inplace(acts[l + 1]);
    }
    loss_acc += mse(acts[depth], sample.y);

    // Backward pass: delta = dLoss/dz per layer (MSE + sigmoid).
    delta.assign(n_outputs(), 0.0);
    for (std::size_t i = 0; i < delta.size(); ++i) {
      const double out = acts[depth][i];
      delta[i] = (out - sample.y[i]) * sigmoid_deriv_from_output(out);
    }

    for (std::size_t l = depth; l-- > 0;) {
      // Propagate before updating so we use the pre-update weights.
      if (l > 0) {
        weights_[l].multiply_transposed_into(delta, next_delta);
        kernels::sigmoid_deriv_mul_n(next_delta.data(), acts[l].data(),
                                     next_delta.size());
      }

      momentum_update(weights_[l], vel_w_[l], delta, acts[l], config.momentum,
                      -config.learning_rate, config.weight_decay);

      kernels::bias_momentum_n(biases_[l].data(), vel_b_[l].data(),
                               delta.data(), config.momentum,
                               config.learning_rate, biases_[l].size());

      if (l > 0) std::swap(delta, next_delta);
    }
  }
  // Epoch-level kernel accounting (per-call counters would cost more atomics
  // than the kernels themselves on these layer sizes).
  OBS_COUNTER_ADD("ann.kernel.gemv", samples.size() * depth);
  OBS_COUNTER_ADD("ann.kernel.gemv_t",
                  samples.size() * (depth > 0 ? depth - 1 : 0));
  OBS_COUNTER_ADD("ann.kernel.sigmoid", samples.size() * depth);
  OBS_COUNTER_ADD("ann.kernel.momentum", samples.size() * depth);
  return loss_acc / static_cast<double>(samples.size());
}

double Mlp::train(const std::vector<Sample>& samples,
                  const MlpTrainConfig& config) {
  double loss = 0.0;
  for (std::size_t e = 0; e < config.epochs; ++e)
    loss = train_epoch(samples, config);
  return loss;
}

double Mlp::evaluate(const std::vector<Sample>& samples) const {
  if (samples.empty()) return 0.0;
  // Samples are independent under a const net: per-index error slots in
  // parallel, then a serial sum in sample order (deterministic at any
  // thread count).
  std::vector<double> errs(samples.size());
  util::parallel_for(samples.size(), [&](std::size_t i) {
    errs[i] = mse(forward(samples[i].x), samples[i].y);
  });
  double acc = 0.0;
  for (double e : errs) acc += e;
  return acc / static_cast<double>(samples.size());
}

void Mlp::set_layer(std::size_t layer, const Matrix& weights,
                    const Vector& bias) {
  if (layer >= weights_.size())
    throw std::out_of_range("Mlp::set_layer: layer out of range");
  if (weights.rows() != weights_[layer].rows() ||
      weights.cols() != weights_[layer].cols() ||
      bias.size() != biases_[layer].size())
    throw std::invalid_argument("Mlp::set_layer: shape mismatch");
  weights_[layer] = weights;
  biases_[layer] = bias;
}

std::string Mlp::serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "mlp " << sizes_.size() << '\n';
  for (std::size_t s : sizes_) out << s << ' ';
  out << '\n';
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    for (double w : weights_[l].data()) out << w << ' ';
    out << '\n';
    for (double b : biases_[l]) out << b << ' ';
    out << '\n';
  }
  return out.str();
}

Mlp Mlp::deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  std::size_t n_sizes = 0;
  if (!(in >> magic >> n_sizes) || magic != "mlp" || n_sizes < 2)
    throw std::invalid_argument("Mlp::deserialize: bad header");
  std::vector<std::size_t> sizes(n_sizes);
  for (auto& s : sizes)
    if (!(in >> s) || s == 0)
      throw std::invalid_argument("Mlp::deserialize: bad layer size");
  Mlp net(sizes, /*seed=*/0);
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    Matrix w(sizes[l + 1], sizes[l]);
    for (double& x : w.data())
      if (!(in >> x))
        throw std::invalid_argument("Mlp::deserialize: truncated weights");
    Vector b(sizes[l + 1]);
    for (double& x : b)
      if (!(in >> x))
        throw std::invalid_argument("Mlp::deserialize: truncated biases");
    net.set_layer(l, w, b);
  }
  return net;
}

}  // namespace solsched::ann
