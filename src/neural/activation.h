// Activation functions and their derivatives for the ANN filter and DQN.
#pragma once

#include <string>

#include "neural/tensor.h"

namespace jarvis::neural {

enum class Activation {
  kIdentity,  // linear output head (Q-values are unbounded)
  kRelu,      // hidden layers of the DQN
  kSigmoid,   // binary output of the anomaly-filter ANN
  kTanh,
};

std::string ActivationName(Activation act);
Activation ActivationFromName(const std::string& name);

// Applies the activation elementwise.
Tensor Apply(Activation act, const Tensor& pre_activation);

// In-place, statically dispatched activation kernel: one switch per tensor,
// then a tight loop with the scalar function inlined — no std::function
// indirection per element. DenseLayer's forward runs it for sigmoid and
// tanh; ReLU and identity are applied inside kernels::GemmBias.
void ApplyInPlace(Activation act, Tensor& tensor);

// Derivative with respect to the pre-activation, expressed in terms of the
// *activated* output (all four supported activations admit this form, which
// avoids recomputing the forward pass during backprop).
Tensor DerivativeFromOutput(Activation act, const Tensor& activated);

// Statically dispatched derivative kernel writing into a caller-owned
// scratch tensor (resized; no allocation once `out` has seen the shape).
// `out` must not alias `activated`.
void DerivativeFromOutputInto(Activation act, const Tensor& activated,
                              Tensor& out);

// Row-wise softmax (used by tests and by policy summaries; not part of the
// Q-value head itself).
Tensor Softmax(const Tensor& logits);

}  // namespace jarvis::neural
