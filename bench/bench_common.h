// Shared setup for the experiment harnesses: the Fig. 4 testbed with a
// completed SPL learning phase, plus environment-variable knobs so a full
// paper-scale run (JARVIS_BENCH_SCALE=paper) and a quick CI run share one
// binary.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "core/jarvis.h"
#include "neural/kernels.h"
#include "sim/testbed.h"
#include "util/json.h"

// bench/CMakeLists.txt defines both for every bench binary.
#ifndef JARVIS_BENCH_COMPILER
#define JARVIS_BENCH_COMPILER "unknown"
#endif
#ifndef JARVIS_BENCH_BUILD_TYPE
#define JARVIS_BENCH_BUILD_TYPE "unknown"
#endif

namespace jarvis::bench {

inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atoi(value) : fallback;
}

inline bool PaperScale() {
  const char* value = std::getenv("JARVIS_BENCH_SCALE");
  return value != nullptr && std::string(value) == "paper";
}

// Days sampled per sweep point (paper: 30).
inline int SweepDays() {
  return EnvInt("JARVIS_BENCH_DAYS", PaperScale() ? 30 : 4);
}
// DQN training episodes per day (EP).
inline int TrainEpisodes() {
  return EnvInt("JARVIS_BENCH_EPISODES", PaperScale() ? 48 : 32);
}
// Episodes injected per violation in the security evaluation (paper: 100,
// giving 21,400 malicious episodes).
inline int EpisodesPerViolation() {
  return EnvInt("JARVIS_BENCH_EPISODES_PER_VIOLATION", PaperScale() ? 100 : 5);
}
// Benign anomalous episodes for the false-positive evaluation (paper:
// 18,120).
inline int BenignEpisodes() {
  return EnvInt("JARVIS_BENCH_BENIGN_EPISODES", PaperScale() ? 18120 : 1500);
}

struct Harness {
  Harness()
      : testbed(MakeTestbedConfig()),
        jarvis(std::make_unique<core::Jarvis>(testbed.home_a(),
                                              MakeJarvisConfig())) {
    jarvis->LearnPolicies(testbed.HomeALearningEpisodes(),
                          testbed.BuildTrainingSet());
  }

  static sim::TestbedConfig MakeTestbedConfig() {
    sim::TestbedConfig config;
    // The paper's 55,156 SIMADL samples at paper scale; a representative
    // subsample otherwise.
    config.benign_anomaly_samples = PaperScale() ? 55156 : 6000;
    return config;
  }

  static core::JarvisConfig MakeJarvisConfig() {
    core::JarvisConfig config;
    config.trainer.episodes = TrainEpisodes();
    return config;
  }

  sim::Testbed testbed;
  std::unique_ptr<core::Jarvis> jarvis;
};

// The `machine` block every BENCH_*.json carries: what the numbers were
// measured on. A runner without AVX2 skips bench_kernels' avx2 cases, and
// tools/check_bench.py excuses them from the gate; the deterministic gates
// ignore the block.
inline util::JsonValue MachineJson() {
  util::JsonObject machine;
  machine["nproc"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  machine["compiler"] = JARVIS_BENCH_COMPILER;
  machine["build_type"] = JARVIS_BENCH_BUILD_TYPE;
  machine["avx2"] =
      neural::kernels::WidthSupported(neural::kernels::Width::kAvx2);
  machine["avx512"] =
      neural::kernels::WidthSupported(neural::kernels::Width::kAvx512);
  machine["kernel_width"] =
      neural::kernels::WidthName(neural::kernels::BestWidth());
  return util::JsonValue(std::move(machine));
}

inline void PrintHeader(const char* experiment, const char* paper_ref) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("Scale: %s (set JARVIS_BENCH_SCALE=paper for full scale)\n",
              PaperScale() ? "paper" : "quick");
  std::printf("==================================================================\n");
}

}  // namespace jarvis::bench
