// Durable-state lifecycle bench: what checkpointing buys and what it
// costs. One fleet cold-learns and checkpoints; a second fleet restores
// and warm-starts. The integer outcomes (episodes skipped, violations,
// restore counts, result parity) are a pure function of the fleet seed
// and are gated exactly by tools/check_bench.py against
// bench/baselines/BENCH_lifecycle.json; wall-clock numbers are advisory
// (runners differ). Writes the machine-readable BENCH_lifecycle.json next
// to the human-readable table. Pass --smoke for the CI-sized run (the
// committed baseline is the --smoke shape).
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bench_common.h"
#include "runtime/fleet.h"
#include "util/json.h"

namespace {

using namespace jarvis;

runtime::FleetConfig MakeConfig(std::size_t tenants, int episodes) {
  runtime::FleetConfig config;
  config.tenants = tenants;
  config.jobs = 1;  // sequential oracle: timing differences are the work
  config.fleet_seed = 2026;
  config.tenant_config.restarts = 1;
  config.tenant_config.trainer.episodes = episodes;
  config.tenant_config.trainer.demonstration_episodes = 1;
  config.tenant_config.dqn.hidden_units = {8, 8};
  config.tenant_config.dqn.batch_size = 16;
  config.tenant_config.spl.ann.epochs = 3;
  return config;
}

runtime::SimulatedWorkloadOptions MakeWorkload() {
  runtime::SimulatedWorkloadOptions options;
  options.learning_days = 2;
  options.benign_anomaly_samples = 200;
  return options;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::size_t SumLearningEpisodes(const runtime::FleetReport& report) {
  std::size_t total = 0;
  for (const auto& tenant : report.tenants) total += tenant.learning_episodes;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t tenants = smoke ? 4 : 8;
  const int episodes = smoke ? 2 : 6;

  bench::PrintHeader(
      "Learned-state lifecycle: checkpoint, crash, restore, warm start",
      "durable-state lifecycle (DESIGN.md §14); not a paper figure");
  std::printf("mode: %s (%zu tenants, %d episodes)\n",
              smoke ? "smoke" : "full", tenants, episodes);

  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  const auto factory = runtime::SimulatedWorkloadFactory(home, MakeWorkload());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "jarvis_bench_lifecycle";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Phase 1: cold fleet — full learning phase, then checkpoint everything.
  runtime::Fleet cold_fleet(home, MakeConfig(tenants, episodes));
  auto start = std::chrono::steady_clock::now();
  const runtime::FleetReport cold = cold_fleet.Run(factory);
  const double cold_run_ms = MsSince(start);

  start = std::chrono::steady_clock::now();
  const runtime::FleetCheckpointReport saved =
      cold_fleet.SaveCheckpoints(dir.string());
  const double save_ms = MsSince(start);

  std::uintmax_t checkpoint_bytes = 0;
  for (std::size_t i = 0; i < tenants; ++i) {
    const auto path = runtime::Fleet::TenantCheckpointPath(dir.string(), i);
    if (std::filesystem::exists(path)) {
      checkpoint_bytes += std::filesystem::file_size(path);
    }
  }

  // Phase 2: "crash" — the cold fleet is gone; a fresh fleet restores the
  // checkpoints and warm-starts every tenant (learning phase skipped).
  runtime::Fleet recovered(home, MakeConfig(tenants, episodes));
  start = std::chrono::steady_clock::now();
  const runtime::FleetCheckpointReport restored =
      recovered.RestoreCheckpoints(dir.string());
  const double restore_ms = MsSince(start);

  start = std::chrono::steady_clock::now();
  const runtime::FleetReport warm = recovered.Run(factory);
  const double warm_run_ms = MsSince(start);
  std::filesystem::remove_all(dir);

  std::size_t sections_failed = 0;
  for (const auto& tenant : restored.tenants) {
    sections_failed += tenant.restore.sections_failed;
  }
  // The recovery parity contract: a warm-started tenant's optimized day is
  // bit-identical to the one the uninterrupted pipeline would produce.
  const bool parity = warm.total_energy_kwh == cold.total_energy_kwh &&
                      warm.total_cost_usd == cold.total_cost_usd;

  std::printf("%-28s %12s %12s\n", "", "cold", "warm");
  std::printf("%-28s %12.1f %12.1f\n", "run ms", cold_run_ms, warm_run_ms);
  std::printf("%-28s %12zu %12zu\n", "learning episodes",
              SumLearningEpisodes(cold), SumLearningEpisodes(warm));
  std::printf("%-28s %12zu %12zu\n", "violations",
              cold.total_violations, warm.total_violations);
  std::printf("save: %.1f ms (%zu ok), restore: %.1f ms (%zu ok), "
              "%ju checkpoint bytes, parity %s\n",
              save_ms, saved.succeeded, restore_ms, restored.succeeded,
              checkpoint_bytes, parity ? "ok" : "MISMATCH");

  util::JsonObject deterministic;
  deterministic["tenants"] = static_cast<std::int64_t>(tenants);
  deterministic["cold_completed"] = static_cast<std::int64_t>(cold.completed);
  deterministic["cold_learning_episodes"] =
      static_cast<std::int64_t>(SumLearningEpisodes(cold));
  deterministic["cold_violations"] =
      static_cast<std::int64_t>(cold.total_violations);
  deterministic["checkpoints_saved"] =
      static_cast<std::int64_t>(saved.succeeded);
  deterministic["checkpoints_restored"] =
      static_cast<std::int64_t>(restored.succeeded);
  deterministic["restore_sections_failed"] =
      static_cast<std::int64_t>(sections_failed);
  deterministic["warm_started"] =
      static_cast<std::int64_t>(warm.warm_started);
  deterministic["warm_learning_episodes"] =
      static_cast<std::int64_t>(SumLearningEpisodes(warm));
  deterministic["warm_violations"] =
      static_cast<std::int64_t>(warm.total_violations);
  deterministic["result_parity"] = static_cast<std::int64_t>(parity ? 1 : 0);

  util::JsonObject advisory;
  advisory["cold_run_ms"] = cold_run_ms;
  advisory["warm_run_ms"] = warm_run_ms;
  advisory["save_ms"] = save_ms;
  advisory["restore_ms"] = restore_ms;
  advisory["checkpoint_bytes"] =
      static_cast<std::int64_t>(checkpoint_bytes);

  util::JsonObject kase;
  kase["name"] = "fleet_warm_start";
  kase["deterministic"] = util::JsonValue(std::move(deterministic));
  kase["advisory"] = util::JsonValue(std::move(advisory));
  util::JsonArray cases;
  cases.push_back(util::JsonValue(std::move(kase)));
  util::JsonObject doc;
  doc["bench"] = "lifecycle";
  doc["smoke"] = smoke;
  doc["machine"] = bench::MachineJson();
  doc["cases"] = util::JsonValue(std::move(cases));
  std::ofstream out("BENCH_lifecycle.json");
  out << util::JsonValue(std::move(doc)).Dump(2) << "\n";
  std::printf("wrote BENCH_lifecycle.json\n");

  const bool healthy = parity && warm.warm_started == tenants &&
                       warm.total_violations == 0 &&
                       saved.succeeded == tenants &&
                       restored.succeeded == tenants;
  return healthy ? 0 : 1;
}
