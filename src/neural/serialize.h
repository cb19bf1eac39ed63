// JSON (de)serialization of network parameters, so a trained SPL filter or
// Q-network can be saved after the learning phase and reloaded at
// deployment, as the paper's offline-learning workflow implies.
//
// Format versions: v1 documents carry topology + parameters only; v2 (the
// current writer) additionally carries an optional "optimizer" object
// (kind + moment/velocity state) when serialized with include_optimizer,
// so a restored network resumes training mid-schedule instead of with a
// cold optimizer. FromJson reads both.
//
// Non-finite policy: serialization REJECTS NaN/Inf parameters with
// util::CheckError, and deserialization rejects them with util::JsonError.
// A diverged network must fail loudly at the save/restore boundary — the
// JSON writer would emit "nan" / "inf", tokens the strict RFC 8259 reader
// rejects, and silently persisting a poisoned policy is exactly the
// failure mode the checkpoint layer exists to prevent.
#pragma once

#include <string>

#include "neural/network.h"
#include "util/json.h"

namespace jarvis::neural {

// Tensor <-> JSON ({rows, cols, data}), shared by the network and
// optimizer-state serializers. TensorToJson throws util::CheckError on
// non-finite values; TensorFromJson throws util::JsonError on malformed
// shape, size mismatch, or non-finite data.
jarvis::util::JsonValue TensorToJson(const Tensor& t);
Tensor TensorFromJson(const jarvis::util::JsonValue& doc);

struct SerializeOptions {
  // Persist the optimizer's state (Adam moments / SGD velocities, step
  // count) alongside the parameters. Off by default: inference-only
  // reloads don't pay for it, and v1 readers stay compatible.
  bool include_optimizer = false;
};

// Serializes topology + parameters (+ optimizer state when requested).
jarvis::util::JsonValue ToJson(const Network& network,
                               const SerializeOptions& options = {});
std::string ToJsonString(const Network& network,
                         const SerializeOptions& options = {});

// Rebuilds a network from ToJson output with the given loss/optimizer.
// When the document carries optimizer state, it is imported into
// `optimizer` — whose kind must match the recorded one (util::JsonError
// otherwise); without it the network resumes with the optimizer as given.
Network FromJson(const jarvis::util::JsonValue& doc, Loss loss,
                 std::unique_ptr<Optimizer> optimizer,
                 jarvis::util::Rng rng);
Network FromJsonString(const std::string& text, Loss loss,
                       std::unique_ptr<Optimizer> optimizer,
                       jarvis::util::Rng rng);

}  // namespace jarvis::neural
