// A feed-forward multilayer perceptron assembled from DenseLayers, with
// training by back-propagation. This single class covers both networks in
// the paper: the one-hidden-layer ANN anomaly filter (sigmoid output + BCE)
// and the two-hidden-layer DQN Q-function approximator (linear output + MSE,
// optionally masked to the taken mini-action).
#pragma once

#include <memory>
#include <vector>

#include "neural/loss.h"
#include "neural/optimizer.h"
#include "neural/tensor.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace jarvis::neural {

// Describes one layer of the network to build.
struct LayerSpec {
  std::size_t units;
  Activation activation;
};

// Caller-owned scratch for Network::Predict: ping-pong activation buffers
// plus a 1-row staging tensor for single-sample queries. Reusing one
// workspace across calls keeps inference allocation-free in the steady
// state (buffers only grow); a workspace serves one thread at a time.
struct InferenceWorkspace {
  Tensor ping;
  Tensor pong;
  Tensor row;
};

class Network {
 public:
  // `input_features` is the width of the input; `layers` lists hidden and
  // output layers in order. The optimizer is owned by the network.
  // Argument validation is enforced with JARVIS_CHECK (throws
  // util::CheckError).
  Network(std::size_t input_features, const std::vector<LayerSpec>& layers,
          Loss loss, std::unique_ptr<Optimizer> optimizer,
          jarvis::util::Rng rng);

  // The one inference forward: runs `input` (rows are independent
  // samples; width must equal input_features()) through every layer into
  // `workspace` and returns a reference to the prediction inside it, valid
  // until the next Predict with that workspace. `input` may be
  // workspace.row but not workspace.ping/pong. Truly const: the network
  // holds no inference scratch, so any number of threads may Predict on
  // one Network at once, each with its own workspace.
  //
  // Row i of the result is *bit-identical* to the same row predicted alone:
  // every layer op — MatMul accumulation, bias broadcast, activation —
  // iterates each output row independently in the same order regardless of
  // how many rows share the tensor, so batching many minutes or many
  // queries through one forward cannot perturb any row's Q-values
  // (neural_network_test pins it).
  const Tensor& Predict(const Tensor& input,
                        InferenceWorkspace& workspace) const;
  // Value-returning conveniences over a call-local workspace.
  Tensor PredictBatch(const Tensor& inputs) const;
  std::vector<double> PredictOne(const std::vector<double>& input) const;

  // One optimization step on a batch; returns the batch loss before the
  // update.
  double TrainBatch(const Tensor& input, const Tensor& target);

  // Masked variant (MSE only): elements with mask==0 receive no gradient.
  double TrainBatchMasked(const Tensor& input, const Tensor& target,
                          const Tensor& mask);

  // Replay fast path, in two halves. ForwardForTraining runs one cached
  // forward over `input` and returns the prediction (a reference into
  // layer scratch, valid until the next forward/train call on this
  // network; Predict writes only its caller's workspace and does NOT
  // invalidate it). TrainCachedMasked then trains against that cached
  // forward without recomputing it — bit-identical to
  // TrainBatchMasked(input, target, mask), minus one redundant forward
  // pass. DqnAgent::Replay uses the pair to derive its targets from the
  // same forward it trains on.
  const Tensor& ForwardForTraining(const Tensor& input);
  double TrainCachedMasked(const Tensor& target, const Tensor& mask);

  // Repeats TrainBatch over the whole dataset in shuffled mini-batches for
  // one epoch; returns the mean batch loss.
  double TrainEpoch(const Tensor& inputs, const Tensor& targets,
                    std::size_t batch_size);

  std::size_t input_features() const { return input_features_; }
  std::size_t output_features() const { return layers_.back().out_features(); }
  std::size_t parameter_count() const;
  Loss loss() const { return loss_; }

  const std::vector<DenseLayer>& layers() const { return layers_; }
  std::vector<DenseLayer>& mutable_layers() { return layers_; }

  // The owned optimizer; checkpoint state export/import goes through
  // neural/serialize.h's include_optimizer flag.
  const Optimizer& optimizer() const { return *optimizer_; }
  Optimizer& optimizer() { return *optimizer_; }

  // Copies weights/biases from another network with identical topology
  // (used for DQN target-network style ablations).
  void CopyParametersFrom(const Network& other);

  // Inference-only snapshot: a new Network with identical topology and an
  // exact (bit-for-bit) copy of this network's parameters, behind a dummy
  // optimizer. Because Predict is a pure function of (parameters, input)
  // and the copies are exact Tensor copies, the clone's forwards are
  // bit-identical to this network's — which is what lets a serving
  // snapshot (runtime::Fleet's mid-run republish) answer queries while
  // training keeps mutating the source network.
  std::unique_ptr<Network> CloneForInference() const;

  // Raw parameter snapshot/restore (weights, biases) per layer — cheap
  // checkpointing for best-policy tracking during RL training.
  std::vector<std::pair<Tensor, Tensor>> ExportParameters() const;
  void ImportParameters(const std::vector<std::pair<Tensor, Tensor>>& params);

  // Wires neural.predict.rows (rows per inference forward — how much each
  // Predict amortizes). Null disables. Observation only: predictions stay
  // bit-identical regardless of wiring.
  void SetMetrics(obs::Registry* registry);

 private:
  const Tensor& ForwardCached(const Tensor& input);
  void BackwardAndStep(const Tensor& grad_output);

  std::size_t input_features_;
  Loss loss_;
  std::vector<DenseLayer> layers_;
  std::unique_ptr<Optimizer> optimizer_;
  jarvis::util::Rng rng_;
  // Training scratch: loss gradient and mini-batch gather buffers.
  Tensor loss_grad_;
  Tensor batch_in_;
  Tensor batch_target_;
  std::vector<std::size_t> epoch_order_;
  obs::Histogram* predict_rows_histogram_ = nullptr;
};

}  // namespace jarvis::neural
