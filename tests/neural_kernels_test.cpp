// Bit-parity pins for the optimized kernels: the restructured-loop,
// scratch-reusing production path (Tensor::MatMulInto and friends, the
// DenseLayer/Network scratch forward/backward, the in-place Sgd step) must
// produce bit-for-bit the doubles the naive reference implementations
// produce — forward, TrainBatch, and TrainBatchMasked alike. No #ifdef
// selects between the paths: both are always compiled, and every
// comparison below is exact (memcmp on the raw doubles, not a tolerance).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "neural/kernels.h"
#include "neural/network.h"
#include "neural/testing/reference_kernels.h"
#include "util/rng.h"

namespace jarvis::neural {
namespace {

using testing::ReferenceAdam;
using testing::ReferenceMatMul;
using testing::ReferenceModel;

void ExpectBitEqual(const Tensor& actual, const Tensor& expected,
                    const std::string& what) {
  ASSERT_TRUE(actual.SameShape(expected))
      << what << ": " << actual.ShapeString() << " vs "
      << expected.ShapeString();
  const auto& a = actual.data();
  const auto& e = expected.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &e[i], sizeof(double)), 0)
        << what << " element " << i << ": " << a[i] << " vs " << e[i];
  }
}

Tensor RandomTensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  return Tensor::Generate(rows, cols,
                          [&] { return rng.NextUniform(-2.0, 2.0); });
}

TEST(KernelParity, MatMulIntoMatchesNaiveReference) {
  util::Rng rng(41);
  const std::size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 2}, {8, 24, 13}, {32, 64, 64}};
  for (const auto& shape : shapes) {
    const Tensor a = RandomTensor(shape[0], shape[1], rng);
    const Tensor b = RandomTensor(shape[1], shape[2], rng);
    ExpectBitEqual(a.MatMul(b), ReferenceMatMul(a, b), "MatMul");
  }
}

TEST(KernelParity, TransposedKernelsMatchTransposeThenMultiply) {
  util::Rng rng(43);
  const Tensor grad_pre = RandomTensor(16, 9, rng);   // batch x out
  const Tensor weights = RandomTensor(24, 9, rng);    // in x out
  const Tensor inputs = RandomTensor(16, 24, rng);    // batch x in

  // out = grad_pre * weights^T (MatMulTransposedInto).
  Tensor grad_input;
  Tensor weights_transposed;
  grad_pre.MatMulTransposedInto(weights, grad_input, weights_transposed);
  ExpectBitEqual(grad_input, ReferenceMatMul(grad_pre, weights.Transposed()),
                 "MatMulTransposedInto");

  // out += inputs^T * grad_pre from zero (TransposedMatMulAccumulate).
  Tensor grad_weights(24, 9, 0.0);
  inputs.TransposedMatMulAccumulate(grad_pre, grad_weights);
  ExpectBitEqual(grad_weights,
                 ReferenceMatMul(inputs.Transposed(), grad_pre),
                 "TransposedMatMulAccumulate");
}

double BiasCorrection(double beta, long step) {
  return 1.0 - std::pow(beta, static_cast<double>(step));
}

// ---------------------------------------------------------------------------
// The tiled micro-kernel at each vector width, called explicitly, so every
// width is pinned on every machine that can run it. A CPU without AVX2 or
// AVX-512F skips only the instantiations it cannot run.

class KernelWidth : public ::testing::TestWithParam<kernels::Width> {
 protected:
  void SetUp() override {
    if (!kernels::WidthSupported(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the "
                   << kernels::WidthName(GetParam()) << " kernels";
    }
  }

  // out (resized) = a * b through the kernel under test, from +0.0.
  void Multiply(const Tensor& a, const Tensor& b, Tensor& out) const {
    out.Resize(a.rows(), b.cols());
    out.Fill(0.0);
    Accumulate(a, 0, a.cols(), b, out);
  }

  // out += a[:, k0:k1] * b[k0:k1, :] through the kernel under test.
  void Accumulate(const Tensor& a, std::size_t k0, std::size_t k1,
                  const Tensor& b, Tensor& out) const {
    kernels::GemmAccumulate(GetParam(), a.rows(), b.cols(), k1 - k0,
                            {a.data().data() + k0, a.cols(), 1},
                            b.data().data() + k0 * b.cols(), b.cols(),
                            out.mutable_data().data(), out.cols());
  }

  // out (resized) = epilogue(a * b + bias) through GemmBias.
  void MultiplyAddBias(const Tensor& a, const Tensor& b, const Tensor& bias,
                       kernels::Epilogue epilogue, Tensor& out) const {
    out.Resize(a.rows(), b.cols());
    kernels::GemmBias(GetParam(), epilogue, a.rows(), b.cols(), a.cols(),
                      {a.data().data(), a.cols(), 1}, b.data().data(),
                      b.cols(), bias.data().data(),
                      out.mutable_data().data(), out.cols());
  }
};

// The separate passes GemmBias fuses: the textbook product, the bias
// broadcast and the activation kernel.
Tensor SeparatePasses(const Tensor& a, const Tensor& b, const Tensor& bias,
                      Activation activation) {
  Tensor expected = ReferenceMatMul(a, b).AddRowBroadcast(bias);
  ApplyInPlace(activation, expected);
  return expected;
}

struct EpilogueCase {
  kernels::Epilogue epilogue;
  Activation activation;
  const char* name;
};
constexpr EpilogueCase kEpilogues[] = {
    {kernels::Epilogue::kIdentity, Activation::kIdentity, "identity"},
    {kernels::Epilogue::kRelu, Activation::kRelu, "relu"}};

// Column widths that reach every column tail of every width: panels of
// 16, 8 or 4 columns, then one 8-, 4- and 2-lane vector and a scalar
// column as each width has them (n mod 16 of 8, 4, 2, 1 and 15 included;
// 49 is the DQN's output width).
constexpr std::size_t kTailWidths[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,
                                       10, 11, 12, 13, 14, 15, 16, 17, 18,
                                       20, 23, 24, 28, 31, 33, 49, 64};

// Every M mod 4 row tail and every column tail, with K = 1 and the empty
// K = 0 product included.
TEST_P(KernelWidth, EveryTailShapeMatchesReference) {
  util::Rng rng(101);
  for (std::size_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 13}) {
    for (std::size_t n : kTailWidths) {
      for (std::size_t k : {0, 1, 2, 5, 44}) {
        const Tensor a = RandomTensor(m, k, rng);
        const Tensor b = RandomTensor(k, n, rng);
        Tensor out;
        Multiply(a, b, out);
        ExpectBitEqual(out, ReferenceMatMul(a, b),
                       "m=" + std::to_string(m) + " n=" + std::to_string(n) +
                           " k=" + std::to_string(k));
      }
    }
  }
}

// A^T * B read through the (1, m) stride pair, with no transpose copy.
TEST_P(KernelWidth, StridedTransposeOperandMatchesReference) {
  util::Rng rng(103);
  for (std::size_t m : {1, 3, 4, 7, 44}) {
    for (std::size_t n : {1, 5, 9, 15, 49, 64}) {
      const std::size_t k = 32;
      const Tensor a_t = RandomTensor(k, m, rng);  // A^T, row-major
      const Tensor b = RandomTensor(k, n, rng);
      Tensor out(m, n, 0.0);
      kernels::GemmAccumulate(GetParam(), m, n, k, {a_t.data().data(), 1, m},
                              b.data().data(), n, out.mutable_data().data(),
                              n);
      ExpectBitEqual(out, ReferenceMatMul(a_t.Transposed(), b),
                     "A^T m=" + std::to_string(m) + " n=" + std::to_string(n));
    }
  }
}

// Accumulating onto a nonzero out continues each element's ascending-k
// chain: two calls over k-halves equal one call over all of k.
TEST_P(KernelWidth, AccumulateOntoNonzeroOutContinuesTheChain) {
  util::Rng rng(107);
  for (std::size_t split : {1, 7, 20}) {
    const Tensor a = RandomTensor(11, 21, rng);
    const Tensor b = RandomTensor(21, 19, rng);
    Tensor out(11, 19, 0.0);
    Accumulate(a, 0, split, b, out);
    Accumulate(a, split, 21, b, out);
    ExpectBitEqual(out, ReferenceMatMul(a, b),
                   "split at k=" + std::to_string(split));
  }
}

// 0 x Inf is NaN and must reach the output: the poisoned-replay detector
// reads divergence from it.
TEST_P(KernelWidth, ZeroTimesInfinityPropagatesNan) {
  util::Rng rng(109);
  Tensor a = RandomTensor(6, 5, rng);
  Tensor b = RandomTensor(5, 11, rng);
  a.At(2, 3) = 0.0;
  b.At(3, 4) = std::numeric_limits<double>::infinity();
  b.At(1, 9) = std::numeric_limits<double>::quiet_NaN();
  Tensor out;
  Multiply(a, b, out);
  EXPECT_TRUE(std::isnan(out.At(2, 4)));
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_TRUE(std::isnan(out.At(i, 9))) << "row " << i;
  }
  ExpectBitEqual(out, ReferenceMatMul(a, b), "0 x Inf");
}

// Adam's lane-wise update equals the textbook scalar loop over >= 100
// steps, gradients of every magnitude (and exact zeros) included.
TEST_P(KernelWidth, AdamUpdateMatchesScalarLoop) {
  util::Rng rng(113);
  const std::size_t n = 4 * 13 + 3;  // every lane tail
  Tensor params = RandomTensor(1, n, rng);
  Tensor reference_params = params;
  Tensor m(1, n), v(1, n);
  ReferenceAdam reference;
  for (long step = 1; step <= 120; ++step) {
    Tensor grads = RandomTensor(1, n, rng);
    grads.At(0, static_cast<std::size_t>(step) % n) = 0.0;
    grads.At(0, (static_cast<std::size_t>(step) * 7) % n) *= 1e6;
    reference.Step({&reference_params}, {&grads});
    const kernels::AdamCoefficients co{
        reference.learning_rate, reference.beta1, reference.beta2,
        reference.epsilon, BiasCorrection(reference.beta1, step),
        BiasCorrection(reference.beta2, step)};
    kernels::AdamUpdate(GetParam(), n, params.mutable_data().data(),
                        grads.data().data(), m.mutable_data().data(),
                        v.mutable_data().data(), co);
    ExpectBitEqual(params, reference_params,
                   "Adam step " + std::to_string(step));
  }
}

// GemmBias gives the doubles of the separate passes it replaces, for every
// row and column tail, with a random and an all-zero bias row.
TEST_P(KernelWidth, BiasEpilogueMatchesSeparatePasses) {
  util::Rng rng(131);
  for (const EpilogueCase& epilogue : kEpilogues) {
    for (std::size_t m : {1, 2, 3, 4, 5, 7, 9}) {
      for (std::size_t n : kTailWidths) {
        for (std::size_t k : {1, 2, 5, 44}) {
          const Tensor a = RandomTensor(m, k, rng);
          const Tensor b = RandomTensor(k, n, rng);
          for (const Tensor& bias : {RandomTensor(1, n, rng), Tensor(1, n)}) {
            Tensor out;
            MultiplyAddBias(a, b, bias, epilogue.epilogue, out);
            ExpectBitEqual(out, SeparatePasses(a, b, bias, epilogue.activation),
                           std::string(epilogue.name) +
                               " m=" + std::to_string(m) +
                               " n=" + std::to_string(n) +
                               " k=" + std::to_string(k));
          }
        }
      }
    }
  }
}

// NaN, +Inf and -Inf pre-activations pass the epilogue as the activation
// pass treats them (ReLU: NaN and -Inf give +0.0), and products that are
// all -0.0 plus a -0.0 or zero bias give +0.0: the accumulators start at
// +0.0, not at the first product.
TEST_P(KernelWidth, BiasEpilogueKeepsSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  util::Rng rng(137);
  const std::size_t n = 31;  // a 16-column panel and every tail after it
  Tensor a = RandomTensor(5, 3, rng);
  Tensor b = RandomTensor(3, n, rng);
  for (double& x : b.mutable_data()) x = std::fabs(x);
  b.At(0, 6) = kInf;
  a.At(0, 0) = 0.0;  // row 0: 0 x Inf in column 6
  a.At(1, 0) = kInf;  // row 1: +Inf
  for (std::size_t p = 0; p < 3; ++p) a.At(2, p) = -0.0;  // row 2: -0.0s
  a.At(3, 2) = kNan;  // row 3: NaN
  a.At(4, 0) = -kInf;  // row 4: -Inf
  Tensor bias = RandomTensor(1, n, rng);
  for (std::size_t j = 0; j < n; j += 2) bias.At(0, j) = -0.0;
  for (const EpilogueCase& epilogue : kEpilogues) {
    const bool relu = epilogue.activation == Activation::kRelu;
    for (const Tensor& row : {bias, Tensor(1, n)}) {
      Tensor out;
      MultiplyAddBias(a, b, row, epilogue.epilogue, out);
      ExpectBitEqual(out, SeparatePasses(a, b, row, epilogue.activation),
                     epilogue.name);
      EXPECT_EQ(std::isnan(out.At(0, 6)), !relu) << epilogue.name;
      for (std::size_t j = 0; j < n; ++j) {
        const std::string where =
            std::string(epilogue.name) + " column " + std::to_string(j);
        EXPECT_EQ(out.At(1, j), kInf) << where;
        EXPECT_EQ(std::isnan(out.At(3, j)), !relu) << where;
        EXPECT_EQ(out.At(4, j), relu ? 0.0 : -kInf) << where;
        if (relu) {
          EXPECT_FALSE(std::signbit(out.At(4, j))) << where;
        }
        if (j != 6 && row.At(0, j) == 0.0) {
          EXPECT_EQ(out.At(2, j), 0.0) << where;
          EXPECT_FALSE(std::signbit(out.At(2, j))) << where;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, KernelWidth,
                         ::testing::Values(kernels::Width::kBaseline,
                                           kernels::Width::kAvx2,
                                           kernels::Width::kAvx512),
                         [](const auto& info) {
                           return std::string(kernels::WidthName(info.param));
                         });

// Adam::Step (at whatever width this CPU dispatches to) drives a layer
// stack's parameters exactly as the scalar loop does, over 100 steps.
TEST(KernelParity, AdamStepTrajectoryMatchesScalarLoop) {
  util::Rng init(127);
  std::vector<DenseLayer> layers;
  layers.emplace_back(12, 16, Activation::kRelu, init);
  layers.emplace_back(16, 7, Activation::kIdentity, init);
  std::vector<Tensor> reference_params;
  for (const auto& layer : layers) {
    reference_params.push_back(layer.weights());
    reference_params.push_back(layer.biases());
  }
  Adam adam(0.001);
  ReferenceAdam reference;
  util::Rng rng(128);
  for (int step = 0; step < 100; ++step) {
    std::vector<Tensor> grads;
    for (auto& layer : layers) {
      Tensor& gw = layer.mutable_weight_gradients();
      Tensor& gb = layer.mutable_bias_gradients();
      gw = RandomTensor(gw.rows(), gw.cols(), rng);
      gb = RandomTensor(gb.rows(), gb.cols(), rng);
      grads.push_back(gw);
      grads.push_back(gb);
    }
    std::vector<Tensor*> params;
    std::vector<const Tensor*> grad_ptrs;
    for (std::size_t t = 0; t < reference_params.size(); ++t) {
      params.push_back(&reference_params[t]);
      grad_ptrs.push_back(&grads[t]);
    }
    adam.Step(layers);
    reference.Step(params, grad_ptrs);
    for (std::size_t li = 0; li < layers.size(); ++li) {
      ExpectBitEqual(layers[li].weights(), reference_params[2 * li],
                     "Adam step " + std::to_string(step) + " weights");
      ExpectBitEqual(layers[li].biases(), reference_params[2 * li + 1],
                     "Adam step " + std::to_string(step) + " biases");
    }
  }
}

// The DQN shape: ReLU hidden stack, identity (linear) output head, MSE.
Network MakeDqnShapedNetwork(double lr, double momentum, std::uint64_t seed) {
  return Network(12,
                 {{16, Activation::kRelu},
                  {16, Activation::kRelu},
                  {7, Activation::kIdentity}},
                 Loss::kMeanSquaredError, std::make_unique<Sgd>(lr, momentum),
                 util::Rng(seed));
}

TEST(KernelParity, ForwardBitIdenticalToReferenceAcrossBatchSizes) {
  const Network network = MakeDqnShapedNetwork(0.01, 0.0, 47);
  const ReferenceModel reference = ReferenceModel::FromNetwork(network, 0.01);
  // Sigmoid and tanh layers run their activation after the fused product.
  const Network saturating(12,
                           {{16, Activation::kTanh},
                            {3, Activation::kSigmoid}},
                           Loss::kBinaryCrossEntropy,
                           std::make_unique<Sgd>(0.01), util::Rng(49));
  const ReferenceModel saturating_reference =
      ReferenceModel::FromNetwork(saturating, 0.01);
  util::Rng rng(48);
  for (std::size_t batch : {std::size_t{1}, std::size_t{8}, std::size_t{32},
                            std::size_t{128}}) {
    const Tensor input = RandomTensor(batch, 12, rng);
    ExpectBitEqual(network.PredictBatch(input), reference.Predict(input),
                   "forward batch=" + std::to_string(batch));
    ExpectBitEqual(saturating.PredictBatch(input),
                   saturating_reference.Predict(input),
                   "tanh/sigmoid forward batch=" + std::to_string(batch));
  }
  // PredictOne rides the same kernels: row 0 of a 1-row batch.
  const Tensor one = RandomTensor(1, 12, rng);
  const auto row = network.PredictOne(one.RowVector(0));
  const Tensor ref_row = reference.Predict(one);
  ASSERT_EQ(row.size(), ref_row.cols());
  for (std::size_t c = 0; c < row.size(); ++c) {
    EXPECT_EQ(std::memcmp(&row[c], &ref_row.data()[c], sizeof(double)), 0)
        << "PredictOne col " << c;
  }
}

void ExpectParametersBitEqual(const Network& network,
                              const ReferenceModel& reference,
                              const std::string& what) {
  ASSERT_EQ(network.layers().size(), reference.layers.size());
  for (std::size_t li = 0; li < reference.layers.size(); ++li) {
    ExpectBitEqual(network.layers()[li].weights(),
                   reference.layers[li].weights,
                   what + " layer " + std::to_string(li) + " weights");
    ExpectBitEqual(network.layers()[li].biases(),
                   reference.layers[li].biases,
                   what + " layer " + std::to_string(li) + " biases");
  }
}

void RunTrainingParity(double momentum) {
  const double lr = 0.05;
  Network network = MakeDqnShapedNetwork(lr, momentum, 53);
  ReferenceModel reference =
      ReferenceModel::FromNetwork(network, lr, momentum);
  ExpectParametersBitEqual(network, reference, "seed");
  util::Rng rng(54);
  for (int step = 0; step < 8; ++step) {
    const Tensor input = RandomTensor(32, 12, rng);
    const Tensor target = RandomTensor(32, 7, rng);
    const double loss = network.TrainBatch(input, target);
    const double ref_loss = reference.TrainBatch(input, target);
    EXPECT_EQ(std::memcmp(&loss, &ref_loss, sizeof(double)), 0)
        << "loss diverged at step " << step;
    ExpectParametersBitEqual(network, reference,
                             "step " + std::to_string(step));
  }
}

TEST(KernelParity, TrainBatchTrajectoryBitIdenticalPlainSgd) {
  RunTrainingParity(/*momentum=*/0.0);
}

TEST(KernelParity, TrainBatchTrajectoryBitIdenticalMomentumSgd) {
  RunTrainingParity(/*momentum=*/0.9);
}

TEST(KernelParity, TrainBatchMaskedTrajectoryBitIdentical) {
  const double lr = 0.05;
  Network network = MakeDqnShapedNetwork(lr, 0.0, 59);
  ReferenceModel reference = ReferenceModel::FromNetwork(network, lr);
  util::Rng rng(60);
  for (int step = 0; step < 8; ++step) {
    const Tensor input = RandomTensor(32, 12, rng);
    const Tensor target = RandomTensor(32, 7, rng);
    // Replay-shaped mask: roughly one taken slot in three.
    const Tensor mask = Tensor::Generate(
        32, 7, [&] { return rng.NextBool(1.0 / 3.0) ? 1.0 : 0.0; });
    const double loss = network.TrainBatchMasked(input, target, mask);
    const double ref_loss = reference.TrainBatchMasked(input, target, mask);
    EXPECT_EQ(std::memcmp(&loss, &ref_loss, sizeof(double)), 0)
        << "masked loss diverged at step " << step;
    ExpectParametersBitEqual(network, reference,
                             "masked step " + std::to_string(step));
  }
}

// The replay fast path — one ForwardForTraining whose cached activations
// feed TrainCachedMasked — must be bit-identical to the two-pass
// TrainBatchMasked, including when a Predict (the replay bootstrap's
// forward) runs between the two halves.
TEST(KernelParity, TrainCachedMaskedMatchesTrainBatchMasked) {
  const double lr = 0.05;
  Network two_pass = MakeDqnShapedNetwork(lr, 0.0, 67);
  Network fast_path = MakeDqnShapedNetwork(lr, 0.0, 67);
  InferenceWorkspace workspace;
  util::Rng rng(68);
  for (int step = 0; step < 6; ++step) {
    const Tensor input = RandomTensor(32, 12, rng);
    const Tensor target = RandomTensor(32, 7, rng);
    const Tensor mask = Tensor::Generate(
        32, 7, [&] { return rng.NextBool(1.0 / 3.0) ? 1.0 : 0.0; });
    const Tensor probe = RandomTensor(4, 12, rng);

    const double loss_two_pass = two_pass.TrainBatchMasked(input, target, mask);

    fast_path.ForwardForTraining(input);
    fast_path.Predict(probe, workspace);  // bootstrap-style, between halves
    const double loss_fast = fast_path.TrainCachedMasked(target, mask);

    EXPECT_EQ(std::memcmp(&loss_two_pass, &loss_fast, sizeof(double)), 0)
        << "cached-path loss diverged at step " << step;
    for (std::size_t li = 0; li < two_pass.layers().size(); ++li) {
      ExpectBitEqual(fast_path.layers()[li].weights(),
                     two_pass.layers()[li].weights(),
                     "cached step " + std::to_string(step) + " layer " +
                         std::to_string(li) + " weights");
      ExpectBitEqual(fast_path.layers()[li].biases(),
                     two_pass.layers()[li].biases(),
                     "cached step " + std::to_string(step) + " layer " +
                         std::to_string(li) + " biases");
    }
  }
}

// Mixing training and inference must not perturb either: the inference
// workspace and the layer forward caches are distinct, so a
// Predict between TrainBatch calls leaves the training trajectory
// untouched.
TEST(KernelParity, InterleavedPredictDoesNotPerturbTraining) {
  const double lr = 0.05;
  Network network = MakeDqnShapedNetwork(lr, 0.0, 61);
  ReferenceModel reference = ReferenceModel::FromNetwork(network, lr);
  util::Rng rng(62);
  for (int step = 0; step < 4; ++step) {
    const Tensor probe = RandomTensor(5, 12, rng);
    ExpectBitEqual(network.PredictBatch(probe), reference.Predict(probe),
                   "interleaved predict " + std::to_string(step));
    const Tensor input = RandomTensor(16, 12, rng);
    const Tensor target = RandomTensor(16, 7, rng);
    network.TrainBatch(input, target);
    reference.TrainBatch(input, target);
    ExpectParametersBitEqual(network, reference,
                             "interleaved step " + std::to_string(step));
  }
}

}  // namespace
}  // namespace jarvis::neural
