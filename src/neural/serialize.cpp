#include "neural/serialize.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/check.h"

namespace jarvis::neural {

using jarvis::util::JsonArray;
using jarvis::util::JsonObject;
using jarvis::util::JsonValue;

namespace {

// v1: topology + parameters. v2: + optional optimizer state. The writer
// stamps v2; the reader accepts both and rejects anything newer.
constexpr std::int64_t kFormatVersion = 2;

}  // namespace

JsonValue TensorToJson(const Tensor& t) {
  JsonObject obj;
  obj["rows"] = JsonValue(static_cast<std::int64_t>(t.rows()));
  obj["cols"] = JsonValue(static_cast<std::int64_t>(t.cols()));
  JsonArray data;
  data.reserve(t.size());
  for (double v : t.data()) {
    JARVIS_CHECK(std::isfinite(v),
                 "TensorToJson: refusing to serialize non-finite value "
                 "(diverged parameters must not be persisted)");
    data.emplace_back(v);
  }
  obj["data"] = JsonValue(std::move(data));
  return JsonValue(std::move(obj));
}

namespace {

struct TensorShape {
  std::size_t rows;
  std::size_t cols;
};

// Reads a tensor document's shape and checks it against the length of its
// data, without copying the data.
TensorShape CheckedShape(const JsonValue& doc) {
  const std::int64_t rows = doc.At("rows").AsInt();
  const std::int64_t cols = doc.At("cols").AsInt();
  if (rows < 0 || cols < 0) {
    throw jarvis::util::JsonError("tensor shape negative");
  }
  // Checked: 2^32 x 2^32 would wrap to 0 and pass for an empty "data".
  std::size_t size = 0;
  if (__builtin_mul_overflow(static_cast<std::size_t>(rows),
                             static_cast<std::size_t>(cols), &size)) {
    throw jarvis::util::JsonError("tensor shape overflows");
  }
  if (doc.At("data").AsArray().size() != size) {
    throw jarvis::util::JsonError("tensor data size mismatch");
  }
  return {static_cast<std::size_t>(rows), static_cast<std::size_t>(cols)};
}

// Copies a tensor document's data into `t`, whose size CheckedShape has
// already matched against it.
void FillFromJson(const JsonValue& doc, Tensor& t) {
  const auto& data = doc.At("data").AsArray();
  JARVIS_CHECK_EQ(data.size(), t.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double v = data[i].AsNumber();
    if (!std::isfinite(v)) {
      throw jarvis::util::JsonError("tensor data non-finite");
    }
    t.mutable_data()[i] = v;
  }
}

}  // namespace

Tensor TensorFromJson(const JsonValue& doc) {
  const TensorShape shape = CheckedShape(doc);
  Tensor t(shape.rows, shape.cols);
  FillFromJson(doc, t);
  return t;
}

JsonValue ToJson(const Network& network, const SerializeOptions& options) {
  JsonObject obj;
  obj["format_version"] = JsonValue(kFormatVersion);
  obj["input_features"] =
      JsonValue(static_cast<std::int64_t>(network.input_features()));
  JsonArray layers;
  for (const auto& layer : network.layers()) {
    JsonObject layer_obj;
    layer_obj["activation"] = JsonValue(ActivationName(layer.activation()));
    layer_obj["weights"] = TensorToJson(layer.weights());
    layer_obj["biases"] = TensorToJson(layer.biases());
    layers.push_back(JsonValue(std::move(layer_obj)));
  }
  obj["layers"] = JsonValue(std::move(layers));
  if (options.include_optimizer) {
    JsonObject opt;
    opt["name"] = JsonValue(network.optimizer().name());
    opt["state"] = network.optimizer().StateToJson();
    obj["optimizer"] = JsonValue(std::move(opt));
  }
  return JsonValue(std::move(obj));
}

std::string ToJsonString(const Network& network,
                         const SerializeOptions& options) {
  return ToJson(network, options).Dump();
}

Network FromJson(const JsonValue& doc, Loss loss,
                 std::unique_ptr<Optimizer> optimizer, jarvis::util::Rng rng) {
  if (doc.AsObject().count("format_version") != 0) {
    const std::int64_t version = doc.At("format_version").AsInt();
    if (version < 1 || version > kFormatVersion) {
      throw jarvis::util::JsonError(
          "network document format version " + std::to_string(version) +
          " unsupported (library writes v" + std::to_string(kFormatVersion) +
          ")");
    }
  }
  const std::int64_t input_features = doc.At("input_features").AsInt();
  if (input_features <= 0) {
    throw jarvis::util::JsonError("network input_features must be positive");
  }
  const auto& layer_docs = doc.At("layers").AsArray();
  if (layer_docs.empty()) throw jarvis::util::JsonError("network has no layers");
  // Check every layer's shapes against its data before constructing the
  // network: the constructor allocates from the widths, so a widths-only
  // document of a few bytes could otherwise ask for gigabytes.
  std::vector<LayerSpec> specs;
  specs.reserve(layer_docs.size());
  auto width = static_cast<std::size_t>(input_features);
  for (const auto& layer_doc : layer_docs) {
    const TensorShape w = CheckedShape(layer_doc.At("weights"));
    const TensorShape b = CheckedShape(layer_doc.At("biases"));
    if (w.rows != width || w.cols == 0) {
      throw jarvis::util::JsonError(
          "layer weights must be (previous width) x (units > 0)");
    }
    if (b.rows != 1 || b.cols != w.cols) {
      throw jarvis::util::JsonError("layer biases must be 1 x units");
    }
    Activation activation;
    try {
      activation = ActivationFromName(layer_doc.At("activation").AsString());
    } catch (const std::invalid_argument& error) {
      throw jarvis::util::JsonError(error.what());
    }
    width = w.cols;
    specs.push_back({width, activation});
  }
  Network network(static_cast<std::size_t>(input_features), specs, loss,
                  std::move(optimizer), rng);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    FillFromJson(layer_docs[i].At("weights"),
                 network.mutable_layers()[i].weights());
    FillFromJson(layer_docs[i].At("biases"),
                 network.mutable_layers()[i].biases());
  }
  if (doc.AsObject().count("optimizer") != 0) {
    const JsonValue& opt_doc = doc.At("optimizer");
    const std::string& recorded = opt_doc.At("name").AsString();
    if (recorded != network.optimizer().name()) {
      throw jarvis::util::JsonError(
          "optimizer state is '" + recorded + "' but the network was given '" +
          network.optimizer().name() + "' — state never imports across kinds");
    }
    network.optimizer().StateFromJson(opt_doc.At("state"), network.layers());
  }
  return network;
}

Network FromJsonString(const std::string& text, Loss loss,
                       std::unique_ptr<Optimizer> optimizer,
                       jarvis::util::Rng rng) {
  return FromJson(JsonValue::Parse(text), loss, std::move(optimizer), rng);
}

}  // namespace jarvis::neural
