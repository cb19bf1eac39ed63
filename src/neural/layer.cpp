#include "neural/layer.h"

#include <cmath>

#include "neural/kernels.h"
#include "util/check.h"

namespace jarvis::neural {

DenseLayer::DenseLayer(std::size_t in_features, std::size_t out_features,
                       Activation activation, jarvis::util::Rng& rng)
    : activation_(activation),
      weights_(in_features, out_features),
      biases_(1, out_features),
      grad_weights_(in_features, out_features),
      grad_biases_(1, out_features) {
  JARVIS_CHECK(in_features > 0 && out_features > 0,
               "DenseLayer: zero-sized layer (", in_features, "x",
               out_features, ")");
  const double fan_in = static_cast<double>(in_features);
  const double limit = activation == Activation::kRelu
                           ? std::sqrt(6.0 / fan_in)  // He-uniform
                           : std::sqrt(6.0 / (fan_in + static_cast<double>(
                                                           out_features)));
  for (double& w : weights_.mutable_data()) {
    w = rng.NextUniform(-limit, limit);
  }
}

const Tensor& DenseLayer::Forward(const Tensor& input) {
  cached_input_ = input;  // copy-assign reuses capacity: no steady-state alloc
  InferInto(input, cached_output_);
  has_cache_ = true;
  return cached_output_;
}

void DenseLayer::InferInto(const Tensor& input, Tensor& out) const {
  JARVIS_CHECK_EQ(input.cols(), weights_.rows(), "DenseLayer: input ",
                  input.ShapeString(), " for weights ",
                  weights_.ShapeString());
  JARVIS_DCHECK(&out != &input, "DenseLayer::InferInto: out aliases input");
  const std::size_t units = weights_.cols();
  out.Resize(input.rows(), units);
  // One kernel pass: products from +0.0, the bias, and ReLU or identity in
  // the store. Sigmoid and tanh keep their pass over the stored sums.
  const bool relu = activation_ == Activation::kRelu;
  kernels::GemmBias(
      kernels::BestWidth(),
      relu ? kernels::Epilogue::kRelu : kernels::Epilogue::kIdentity,
      input.rows(), units, input.cols(), {input.data().data(), input.cols(), 1},
      weights_.data().data(), units, biases_.data().data(),
      out.mutable_data().data(), units);
  if (!relu) ApplyInPlace(activation_, out);
}

const Tensor& DenseLayer::Backward(const Tensor& grad_output) {
  AccumulateGradients(grad_output);
  grad_pre_.MatMulTransposedInto(weights_, grad_input_, weights_transposed_);
  return grad_input_;
}

void DenseLayer::AccumulateGradients(const Tensor& grad_output) {
  JARVIS_CHECK(has_cache_, "DenseLayer::Backward without Forward");
  // dL/dz = dL/dy * act'(z), expressed via the cached activated output.
  // (deriv * grad and grad * deriv round identically, so computing the
  // derivative in place and scaling by grad_output matches the historical
  // Hadamard order bit-for-bit.)
  DerivativeFromOutputInto(activation_, cached_output_, grad_pre_);
  grad_pre_.HadamardInPlace(grad_output);
  // Gradients are zero on entry (the optimizer zeroes them each step), so
  // accumulating products directly is bit-identical to materializing the
  // transposed products and adding.
  cached_input_.TransposedMatMulAccumulate(grad_pre_, grad_weights_);
  grad_pre_.SumRowsAccumulate(grad_biases_);
}

void DenseLayer::ZeroGradients() {
  grad_weights_.Fill(0.0);
  grad_biases_.Fill(0.0);
}

}  // namespace jarvis::neural
