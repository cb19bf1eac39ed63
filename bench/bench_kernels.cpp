// Hot-path kernel throughput: old-vs-new A/B for the DQN forward pass,
// the training step, and the replay-batch hot loop (DESIGN.md §12).
//
// "Old" is the pre-optimization code shape, faithfully replicated by
// neural::testing::ReferenceModel plus a textbook Adam step: naive
// At()-indexed matrix loops, std::function activation maps, a fresh tensor
// for every intermediate, and a per-row PredictOne for the replay
// bootstrap. "New" is the production path: the register-tiled GEMM
// micro-kernel at the CPU's widest width, reusable scratch tensors (zero
// steady-state allocations), the layer's bias and ReLU applied in the
// kernel's store, and one batched bootstrap forward per replay. The two
// paths produce bit-identical numbers (tests/neural_kernels_test.cpp pins
// this), so the A/B isolates pure kernel and allocation cost. The gemm_*
// cases force one kernel width each (avx512, avx2, baseline) against the
// naive reference.
//
// The serialization cases A/B the checkpoint codec against
// util::testing's reference codec on a trained DQN's checkpoint section:
// JSON numbers via the exact %.17g writer (std::to_chars outside its
// range) / std::from_chars against snprintf("%.17g") / strtod, and the
// slicing-by-8 CRC-32 against the bytewise loop. Both sides produce
// identical bytes, checked before timing.
//
// Writes BENCH_kernels.json; tools/check_bench.py gates CI on the speedup
// column against the committed baseline (bench/baselines/). Pass --smoke
// for the CI-sized run.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "fsm/device_library.h"
#include "neural/kernels.h"
#include "neural/network.h"
#include "neural/testing/reference_kernels.h"
#include "rl/dqn_agent.h"
#include "rl/replay.h"
#include "util/io.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/testing/reference_codec.h"

namespace {

using namespace jarvis;
using neural::Tensor;
using neural::testing::ReferenceLayer;
using neural::testing::ReferenceModel;

constexpr std::size_t kFeatureWidth = 32;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kBufferFill = 2048;

template <typename F>
double MeasureSeconds(int iters, F&& body) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct AbSeconds {
  double old_s = 0.0;
  double new_s = 0.0;
};

// Interleaves the two paths across `rounds` alternating windows and keeps
// the best (minimum) window per path: CPU-frequency drift or a preempting
// neighbor then biases both paths alike instead of whichever ran second.
template <typename FNew, typename FOld>
AbSeconds MeasureAb(int rounds, int iters, FNew&& run_new, FOld&& run_old) {
  MeasureSeconds(iters / 4 + 1, run_new);  // warmup
  MeasureSeconds(iters / 4 + 1, run_old);
  AbSeconds best{1e300, 1e300};
  for (int r = 0; r < rounds; ++r) {
    best.new_s = std::min(best.new_s, MeasureSeconds(iters, run_new));
    best.old_s = std::min(best.old_s, MeasureSeconds(iters, run_old));
  }
  return best;
}

Tensor RandomTensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  return Tensor::Generate(rows, cols,
                          [&] { return rng.NextUniform(-1.0, 1.0); });
}

// The DQN shape: two ReLU hidden layers, linear Q-head.
neural::Network MakeDqnShapedNetwork(std::size_t inputs, std::size_t outputs,
                                     std::uint64_t seed) {
  return neural::Network(
      inputs,
      {{64, neural::Activation::kRelu},
       {64, neural::Activation::kRelu},
       {outputs, neural::Activation::kIdentity}},
      neural::Loss::kMeanSquaredError, std::make_unique<neural::Sgd>(0.001),
      util::Rng(seed));
}

// ---------------------------------------------------------------------------
// Old-path replay replication: the pre-PR DqnAgent::Replay body on top of
// the pre-PR kernel shapes.

struct OldReplayAgent {
  const fsm::StateCodec& codec;
  ReferenceModel model;
  neural::testing::ReferenceAdam optimizer;
  std::vector<rl::Experience> buffer;
  util::Rng rng;
  double gamma = 0.97;

  double Replay() {
    // Pre-PR shape: raw pointers into the buffer, fresh tensors for every
    // batch, and one allocating PredictOne per non-terminal row.
    std::vector<const rl::Experience*> batch;
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(&buffer[rng.NextIndex(buffer.size())]);
    }
    const std::size_t outputs = codec.mini_action_count();
    Tensor inputs(batch.size(), batch[0]->features.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      inputs.SetRow(i, batch[i]->features);
    }
    Tensor targets = model.Predict(inputs);
    Tensor mask(batch.size(), outputs, 0.0);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const rl::Experience& exp = *batch[i];
      std::vector<double> next_q;
      if (!exp.done) {
        next_q = model.Predict(Tensor::Row(exp.next_features)).RowVector(0);
      }
      for (std::size_t slot : exp.taken_slots) {
        double future = 0.0;
        if (!exp.done) {
          const auto device = codec.SlotToMiniAction(slot).device;
          const std::size_t noop = codec.NoOpSlot(device);
          std::size_t range_begin = noop;
          while (range_begin > 0 &&
                 codec.SlotToMiniAction(range_begin - 1).device == device) {
            --range_begin;
          }
          double best = -std::numeric_limits<double>::infinity();
          for (std::size_t s = range_begin; s <= noop; ++s) {
            if (exp.next_mask[s] && next_q[s] > best) best = next_q[s];
          }
          if (best > -std::numeric_limits<double>::infinity()) future = best;
        }
        targets.At(i, slot) = exp.reward + gamma * future;
        mask.At(i, slot) = 1.0;
      }
    }
    // Forward/backward through the reference layers, textbook Adam step.
    Tensor prediction = inputs;
    for (auto& layer : model.layers) prediction = layer.Forward(prediction);
    const double loss = MaskedMseLoss(prediction, targets, mask);
    Tensor grad = MaskedMseGradient(prediction, targets, mask);
    for (auto it = model.layers.rbegin(); it != model.layers.rend(); ++it) {
      grad = it->Backward(grad);
    }
    optimizer.Step(model.layers);
    return loss;
  }
};

rl::Experience MakeExperience(const fsm::StateCodec& codec, util::Rng& rng,
                              bool done, std::size_t width = kFeatureWidth) {
  rl::Experience exp;
  exp.features.resize(width);
  for (double& x : exp.features) x = rng.NextUniform(-1.0, 1.0);
  for (std::size_t d = 0; d < codec.device_count(); ++d) {
    exp.taken_slots.push_back(codec.NoOpSlot(static_cast<fsm::DeviceId>(d)));
  }
  exp.reward = rng.NextUniform(-1.0, 1.0);
  exp.next_features.resize(width);
  for (double& x : exp.next_features) x = rng.NextUniform(-1.0, 1.0);
  exp.next_mask.assign(codec.mini_action_count(), true);
  exp.done = done;
  return exp;
}

struct CaseResult {
  std::string name;
  std::string unit;
  double old_per_sec = 0.0;
  double new_per_sec = 0.0;
  std::string requires_isa;  // CPU feature the new path needs, if any
  double speedup() const {
    return old_per_sec > 0.0 ? new_per_sec / old_per_sec : 0.0;
  }
};

void PrintCase(const CaseResult& result) {
  std::printf("%-24s %14.0f %14.0f %8.2fx  (%s)\n", result.name.c_str(),
              result.old_per_sec, result.new_per_sec, result.speedup(),
              result.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int scale = smoke ? 1 : 10;

  std::printf("Kernel hot-loop throughput: old (naive kernels, allocating) "
              "vs new (tiled kernels + scratch)\n");
  std::printf("mode: %s\n", smoke ? "smoke" : "full");
  std::printf("%-24s %14s %14s %9s\n", "case", "old/sec", "new/sec",
              "speedup");

  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  const fsm::StateCodec& codec = home.codec();
  const std::size_t outputs = codec.mini_action_count();
  std::vector<CaseResult> cases;

  // --- Forward pass, batch sweep -----------------------------------------
  {
    const neural::Network network =
        MakeDqnShapedNetwork(kFeatureWidth, outputs, 71);
    const ReferenceModel reference =
        ReferenceModel::FromNetwork(network, 0.001);
    util::Rng rng(72);
    for (const std::size_t batch : {1u, 8u, 32u, 128u}) {
      const Tensor input = RandomTensor(batch, kFeatureWidth, rng);
      // Sanity: the two paths agree bit-for-bit before we time them.
      const Tensor check_new = network.PredictBatch(input);
      const Tensor check_old = reference.Predict(input);
      if (check_new.data() != check_old.data()) {
        std::printf("FATAL: forward parity mismatch at batch %zu\n", batch);
        return 1;
      }
      const int iters =
          scale * static_cast<int>(std::max<std::size_t>(8, 512 / batch));
      neural::InferenceWorkspace workspace;
      const AbSeconds t =
          MeasureAb(7, iters, [&] { network.Predict(input, workspace); },
                    [&] { reference.Predict(input); });
      CaseResult result;
      result.name = "forward_b" + std::to_string(batch);
      result.unit = "rows/sec";
      result.old_per_sec = iters * static_cast<double>(batch) / t.old_s;
      result.new_per_sec = iters * static_cast<double>(batch) / t.new_s;
      PrintCase(result);
      cases.push_back(result);
    }
  }

  // --- Training step, batch 32 -------------------------------------------
  {
    neural::Network network = MakeDqnShapedNetwork(kFeatureWidth, outputs, 73);
    ReferenceModel reference = ReferenceModel::FromNetwork(network, 0.001);
    util::Rng rng(74);
    const Tensor input = RandomTensor(kBatch, kFeatureWidth, rng);
    const Tensor target = RandomTensor(kBatch, outputs, rng);
    const int iters = scale * 20;
    const AbSeconds t =
        MeasureAb(7, iters, [&] { network.TrainBatch(input, target); },
                  [&] { reference.TrainBatch(input, target); });
    CaseResult result;
    result.name = "train_b" + std::to_string(kBatch);
    result.unit = "rows/sec";
    result.old_per_sec = iters * static_cast<double>(kBatch) / t.old_s;
    result.new_per_sec = iters * static_cast<double>(kBatch) / t.new_s;
    PrintCase(result);
    cases.push_back(result);
  }

  // --- Replay hot loop, batch 32 -----------------------------------------
  {
    rl::DqnConfig config;
    config.hidden_units = {64, 64};
    config.batch_size = kBatch;
    config.replay_capacity = kBufferFill;
    config.seed = 75;
    rl::DqnAgent agent(kFeatureWidth, codec, config);
    OldReplayAgent old_agent{codec,
                             ReferenceModel::FromNetwork(agent.network(),
                                                         0.001),
                             neural::testing::ReferenceAdam{}, {},
                             util::Rng(76)};
    util::Rng fill_rng(77);
    for (std::size_t i = 0; i < kBufferFill; ++i) {
      rl::Experience exp = MakeExperience(codec, fill_rng, i % 8 == 0);
      old_agent.buffer.push_back(exp);
      agent.Remember(std::move(exp));
    }
    const int iters = scale * 15;
    const AbSeconds t = MeasureAb(7, iters, [&] { agent.Replay(); },
                                  [&] { old_agent.Replay(); });
    CaseResult result;
    result.name = "replay_b" + std::to_string(kBatch);
    result.unit = "replays/sec";
    result.old_per_sec = iters / t.old_s;
    result.new_per_sec = iters / t.new_s;
    PrintCase(result);
    cases.push_back(result);
  }

  // --- Tiled GEMM per vector width --------------------------------------
  // The forward products of a net, layer to layer (no bias or
  // activation): the tiled micro-kernel at each width against the naive
  // reference. DQN shape at inference (b1) and replay (b32) batch, and a
  // 320-wide net whose 800 KB weight matrix overflows L2.
  {
    struct GemmShape {
      std::string net;
      std::vector<std::size_t> widths;  // input, hidden..., output
      std::size_t batch;
    };
    const std::vector<std::size_t> dqn = {kFeatureWidth, 64, 64, outputs};
    const std::vector<std::size_t> wide = {kFeatureWidth, 320, 320, 16};
    const std::vector<GemmShape> shapes = {
        {"dqn", dqn, 1}, {"dqn", dqn, 32}, {"w320", wide, 8},
        {"w320", wide, 32}, {"w320", wide, 128}};
    util::Rng rng(78);
    for (const GemmShape& shape : shapes) {
      std::vector<Tensor> weights;
      std::size_t macs_per_row = 0;
      for (std::size_t l = 0; l + 1 < shape.widths.size(); ++l) {
        weights.push_back(
            RandomTensor(shape.widths[l], shape.widths[l + 1], rng));
        macs_per_row += shape.widths[l] * shape.widths[l + 1];
      }
      const Tensor input = RandomTensor(shape.batch, shape.widths[0], rng);
      const auto run_reference = [&] {
        Tensor act = input;
        for (const Tensor& w : weights) {
          act = neural::testing::ReferenceMatMul(act, w);
        }
        return act;
      };
      Tensor ping, pong;
      const auto run_tiled =
          [&](neural::kernels::Width width) -> const Tensor& {
        const Tensor* act = &input;
        Tensor* out = &ping;
        for (const Tensor& w : weights) {
          out->Resize(act->rows(), w.cols());
          out->Fill(0.0);
          neural::kernels::GemmAccumulate(
              width, act->rows(), w.cols(), act->cols(),
              {act->data().data(), act->cols(), 1}, w.data().data(),
              w.cols(), out->mutable_data().data(), w.cols());
          act = out;
          out = out == &ping ? &pong : &ping;
        }
        return *act;
      };
      const Tensor expected = run_reference();
      const int iters = std::max(
          2, static_cast<int>(4e6 * scale /
                              static_cast<double>(shape.batch * macs_per_row)));
      for (const auto width : {neural::kernels::Width::kAvx512,
                               neural::kernels::Width::kAvx2,
                               neural::kernels::Width::kBaseline}) {
        if (!neural::kernels::WidthSupported(width)) continue;
        if (run_tiled(width).data() != expected.data()) {
          std::printf("FATAL: %s tiled GEMM parity mismatch (%s b%zu)\n",
                      neural::kernels::WidthName(width), shape.net.c_str(),
                      shape.batch);
          return 1;
        }
        const AbSeconds t = MeasureAb(7, iters, [&] { run_tiled(width); },
                                      [&] { run_reference(); });
        CaseResult result;
        result.name = "gemm_" + shape.net + "_b" +
                      std::to_string(shape.batch) + "_" +
                      neural::kernels::WidthName(width);
        result.unit = "rows/sec";
        // The machine block names each feature after its width.
        result.requires_isa = width == neural::kernels::Width::kBaseline
                                  ? ""
                                  : neural::kernels::WidthName(width);
        result.old_per_sec = iters * static_cast<double>(shape.batch) / t.old_s;
        result.new_per_sec = iters * static_cast<double>(shape.batch) / t.new_s;
        PrintCase(result);
        cases.push_back(result);
      }
    }
  }

  // --- Checkpoint codec ---------------------------------------------------
  // The dqn section a tenant checkpoint carries: the full home's DQN
  // (one-hot state + 7 time features in, 64-64 hidden) after enough replays
  // that its weights and Adam moments are arbitrary doubles.
  {
    const std::size_t width = codec.one_hot_width() + 7;
    rl::DqnConfig config;
    config.batch_size = kBatch;
    config.seed = 79;
    rl::DqnAgent agent(width, codec, config);
    util::Rng fill_rng(80);
    for (std::size_t i = 0; i < 256; ++i) {
      agent.Remember(MakeExperience(codec, fill_rng, i % 8 == 0, width));
    }
    for (int i = 0; i < 64; ++i) agent.Replay();
    const util::JsonValue doc = agent.ToJson();
    const std::string text = doc.Dump();
    if (text != util::testing::ReferenceDump(doc) ||
        util::JsonValue::Parse(text).Dump() !=
            util::testing::ReferenceParse(text).Dump()) {
      std::printf("FATAL: checkpoint codec differs from the reference\n");
      return 1;
    }
    const int iters = scale * 4;
    const auto add = [&](const char* name, const AbSeconds& t) {
      CaseResult result;
      result.name = name;
      result.unit = "sections/sec";
      result.old_per_sec = iters / t.old_s;
      result.new_per_sec = iters / t.new_s;
      PrintCase(result);
      cases.push_back(result);
    };
    add("json_dump_dqn",
        MeasureAb(7, iters, [&] { return doc.Dump(); },
                  [&] { return util::testing::ReferenceDump(doc); }));
    add("json_parse_dqn",
        MeasureAb(7, iters, [&] { return util::JsonValue::Parse(text); },
                  [&] { return util::testing::ReferenceParse(text); }));
  }
  {
    std::string bytes(512 * 1024, '\0');
    util::Rng rng(81);
    for (char& byte : bytes) byte = static_cast<char>(rng.NextU64());
    if (util::io::Crc32(bytes) !=
        util::testing::ReferenceCrc32(bytes.data(), bytes.size())) {
      std::printf("FATAL: CRC-32 differs from the reference\n");
      return 1;
    }
    // The sink keeps the inlined reference loop from being discarded.
    volatile std::uint32_t sink = 0;
    const int iters = scale * 16;
    const AbSeconds t = MeasureAb(
        7, iters, [&] { sink = util::io::Crc32(bytes); },
        [&] {
          sink = util::testing::ReferenceCrc32(bytes.data(), bytes.size());
        });
    CaseResult result;
    result.name = "crc32_512k";
    result.unit = "MB/sec";
    const double megabytes = static_cast<double>(bytes.size()) / 1e6;
    result.old_per_sec = iters * megabytes / t.old_s;
    result.new_per_sec = iters * megabytes / t.new_s;
    PrintCase(result);
    cases.push_back(result);
  }

  // --- JSON ---------------------------------------------------------------
  util::JsonArray case_array;
  for (const auto& result : cases) {
    util::JsonObject entry;
    entry["name"] = result.name;
    entry["unit"] = result.unit;
    entry["old_per_sec"] = result.old_per_sec;
    entry["new_per_sec"] = result.new_per_sec;
    entry["speedup"] = result.speedup();
    if (!result.requires_isa.empty()) entry["requires"] = result.requires_isa;
    case_array.push_back(util::JsonValue(std::move(entry)));
  }
  util::JsonObject doc;
  doc["bench"] = "kernels";
  doc["smoke"] = smoke;
  doc["machine"] = bench::MachineJson();
  doc["cases"] = util::JsonValue(std::move(case_array));
  std::ofstream out("BENCH_kernels.json");
  out << util::JsonValue(std::move(doc)).Dump(2) << "\n";
  std::printf("wrote BENCH_kernels.json (%zu cases)\n", cases.size());
  return 0;
}
