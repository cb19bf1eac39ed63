// Fleet serving bench: the one inference route (DESIGN.md §10), measured
// three ways.
//
//   * direct_c<C>_t<T>: a clients × tenants scaling sweep. C client threads
//     issue single-row suggest-shaped queries against T shared const
//     networks, each client through its own neural::InferenceWorkspace and
//     with no lock anywhere on the path. Every answer is checked bit-exact
//     against PredictOne after the threads join.
//   * fleet_suggest_e2e: a trained fleet answers a day of SuggestMinutes,
//     and every decoded action must equal per-minute Jarvis::SuggestAction.
//   * republish_staleness: a deterministic online-learning loop publishing
//     CloneForInference snapshots at three cadences; the summed staleness
//     of the served answers is exact arithmetic on the cadence.
//
// Shape follows bench_serve: every case carries a `deterministic` object
// (query counts, parity verdicts, staleness sums; all pure functions of
// the seed) gated EXACTLY by tools/check_bench.py against
// bench/baselines/BENCH_fleet.json, and an `advisory` object (throughput
// and wall times; runners differ, so these only warn). Writes
// BENCH_fleet.json next to the human-readable table. Pass --smoke for the
// CI-sized run (the committed baseline is the --smoke shape).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "runtime/fleet.h"
#include "sim/resident.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timeofday.h"

namespace {

using namespace jarvis;

// Suggest-shaped forward: observation-ish width in, Q-row out, with hidden
// layers heavy enough that the forward, not the bookkeeping, dominates.
constexpr std::size_t kFeatureWidth = 32;

std::unique_ptr<neural::Network> MakeNetwork(std::uint64_t seed) {
  return std::make_unique<neural::Network>(
      kFeatureWidth,
      std::vector<neural::LayerSpec>{{320, neural::Activation::kRelu},
                                     {320, neural::Activation::kTanh},
                                     {16, neural::Activation::kIdentity}},
      neural::Loss::kMeanSquaredError, std::make_unique<neural::Adam>(0.01),
      util::Rng(seed));
}

std::vector<double> MakeRow(util::Rng& rng) {
  std::vector<double> row(kFeatureWidth);
  for (double& x : row) x = rng.NextGaussian();
  return row;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

util::JsonValue CaseJson(const std::string& name,
                         util::JsonObject deterministic,
                         util::JsonObject advisory) {
  util::JsonObject kase;
  kase["name"] = name;
  kase["deterministic"] = util::JsonValue(std::move(deterministic));
  kase["advisory"] = util::JsonValue(std::move(advisory));
  return util::JsonValue(std::move(kase));
}

struct SweepOutcome {
  std::size_t answered = 0;
  bool parity = true;
  double qps = 0;
};

// One sweep point: `clients` threads share `queries` single-row queries;
// client c walks the tenant catalog on the same schedule as every other
// (tenant = query index mod tenants), so concurrent demand per tenant is
// the client count. Each point is measured `reps` times and reports its
// best rep: closed-loop runs on an oversubscribed box swing tens of
// percent, and best-of-N reads a capability number through that noise.
// Parity is checked on EVERY rep.
SweepOutcome RunSweep(std::size_t clients, std::size_t tenants,
                      std::size_t queries, int reps) {
  std::vector<std::unique_ptr<neural::Network>> networks;
  for (std::size_t t = 0; t < tenants; ++t) {
    networks.push_back(MakeNetwork(100 + t));
  }
  struct Answer {
    std::size_t tenant;
    std::vector<double> row;
    std::vector<double> result;
  };
  const std::size_t per_client = queries / clients;
  SweepOutcome outcome;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::vector<Answer>> answers(clients);
    std::vector<std::thread> threads;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        util::Rng rng(9000 + c);
        neural::InferenceWorkspace workspace;
        answers[c].reserve(per_client);
        for (std::size_t q = 0; q < per_client; ++q) {
          const std::size_t tenant = q % tenants;
          std::vector<double> row = MakeRow(rng);
          workspace.row.Resize(1, row.size());
          workspace.row.SetRow(0, row);
          const neural::Tensor& out =
              networks[tenant]->Predict(workspace.row, workspace);
          answers[c].push_back({tenant, std::move(row), out.RowVector(0)});
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const double seconds = SecondsSince(start);
    std::size_t answered = 0;
    for (const auto& client_answers : answers) {
      for (const Answer& answer : client_answers) {
        ++answered;
        if (answer.result != networks[answer.tenant]->PredictOne(answer.row)) {
          outcome.parity = false;
        }
      }
    }
    outcome.answered = answered;
    if (seconds > 0) {
      outcome.qps =
          std::max(outcome.qps, static_cast<double>(answered) / seconds);
    }
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // Queries per sweep point, split evenly across its clients.
  const std::size_t queries = smoke ? 1920 : 12800;
  const int reps = smoke ? 3 : 5;
  const int e2e_stride = smoke ? 60 : 15;

  bench::PrintHeader(
      "Fleet serving: lock-free direct inference, suggest parity and "
      "republish staleness",
      "serving snapshot (DESIGN.md §10); not a paper figure");
  std::printf("mode: %s (%zu queries per sweep point)\n",
              smoke ? "smoke" : "full", queries);

  util::JsonArray cases;
  bool healthy = true;

  // ---- the clients x tenants direct-route sweep --------------------------
  std::printf("%-16s %8s %12s %9s   parity\n", "case", "queries", "q/s",
              "vs 1 client");
  for (const std::size_t tenants : {1u, 4u, 16u, 64u}) {
    double one_client_qps = 0;
    for (const std::size_t clients : {1u, 4u, 32u}) {
      const SweepOutcome outcome = RunSweep(clients, tenants, queries, reps);
      if (clients == 1) one_client_qps = outcome.qps;
      const double scaling =
          one_client_qps > 0 ? outcome.qps / one_client_qps : 0;
      const std::string name = "direct_c" + std::to_string(clients) + "_t" +
                               std::to_string(tenants);
      std::printf("%-16s %8zu %12.0f %8.2fx   %s\n", name.c_str(),
                  outcome.answered, outcome.qps, scaling,
                  outcome.parity ? "ok" : "MISMATCH");
      healthy = healthy && outcome.parity && outcome.answered == queries;
      util::JsonObject deterministic;
      deterministic["clients"] = static_cast<std::int64_t>(clients);
      deterministic["tenants"] = static_cast<std::int64_t>(tenants);
      deterministic["queries"] = static_cast<std::int64_t>(queries);
      deterministic["answered"] = static_cast<std::int64_t>(outcome.answered);
      deterministic["parity"] =
          static_cast<std::int64_t>(outcome.parity ? 1 : 0);
      util::JsonObject advisory;
      advisory["qps"] = outcome.qps;
      advisory["scaling_vs_1_client"] = scaling;
      cases.push_back(
          CaseJson(name, std::move(deterministic), std::move(advisory)));
    }
  }

  // ---- fleet_suggest_e2e: the real Fleet path, trained end to end -------
  // A tiny trained fleet answers a day of SuggestMinutes per tenant (one
  // batched forward each), and every action must equal the per-minute
  // Jarvis::SuggestAction answer.
  {
    runtime::FleetConfig config;
    config.tenants = 2;
    config.jobs = 1;
    config.fleet_seed = 2026;
    config.tenant_config.restarts = 1;
    config.tenant_config.trainer.episodes = 2;
    config.tenant_config.trainer.demonstration_episodes = 1;
    config.tenant_config.dqn.hidden_units = {8, 8};
    config.tenant_config.dqn.batch_size = 16;
    config.tenant_config.spl.ann.epochs = 2;
    const fsm::EnvironmentFsm home = fsm::BuildFullHome();
    runtime::SimulatedWorkloadOptions workload;
    workload.learning_days = 1;
    workload.benign_anomaly_samples = 100;

    const auto train_start = std::chrono::steady_clock::now();
    runtime::Fleet fleet(home, config);
    fleet.Run(runtime::SimulatedWorkloadFactory(home, workload));
    const double train_s = SecondsSince(train_start);

    sim::ResidentSimulator resident(home, sim::ThermalConfig{}, 2026);
    const fsm::StateVector overnight = resident.OvernightState();
    std::vector<int> minutes;
    for (int minute = 0; minute < util::kMinutesPerDay;
         minute += e2e_stride) {
      minutes.push_back(minute);
    }

    const auto batched_start = std::chrono::steady_clock::now();
    std::vector<std::vector<fsm::ActionVector>> batched;
    for (std::size_t t = 0; t < 2; ++t) {
      batched.push_back(fleet.SuggestMinutes(t, overnight, minutes));
    }
    const double batched_ms = SecondsSince(batched_start) * 1000.0;

    const auto per_minute_start = std::chrono::steady_clock::now();
    bool parity = true;
    for (std::size_t t = 0; t < 2; ++t) {
      const core::Jarvis* jarvis = fleet.tenant(t);
      for (std::size_t i = 0; i < minutes.size(); ++i) {
        if (jarvis->SuggestAction(overnight, minutes[i]) != batched[t][i]) {
          parity = false;
        }
      }
    }
    const double per_minute_ms = SecondsSince(per_minute_start) * 1000.0;

    util::JsonObject deterministic;
    deterministic["tenants"] = 2;
    deterministic["minutes"] =
        static_cast<std::int64_t>(2 * minutes.size());
    deterministic["parity"] = static_cast<std::int64_t>(parity ? 1 : 0);
    util::JsonObject advisory;
    advisory["train_s"] = train_s;
    advisory["suggest_minutes_ms"] = batched_ms;
    advisory["suggest_action_ms"] = per_minute_ms;
    cases.push_back(CaseJson("fleet_suggest_e2e", std::move(deterministic),
                             std::move(advisory)));
    healthy = healthy && parity;
    std::printf("fleet_suggest_e2e: %zu minutes x 2 tenants, SuggestMinutes "
                "%.2f ms vs per-minute SuggestAction %.2f ms, parity %s\n",
                minutes.size(), batched_ms, per_minute_ms,
                parity ? "ok" : "MISMATCH");
  }

  // ---- republish_staleness: streaming republish vs publish-on-completion
  // A deterministic single-threaded "online learning" loop: one tenant
  // trains for kEpisodes (one TrainBatch gradient step per episode), and
  // after every episode a burst of kQueriesPer rows is answered in one
  // batched forward on the published snapshot. Three republish cadences:
  //   cadence 0  publish-on-completion only: every query sees the
  //              bootstrap snapshot, so a query after episode e is e
  //              episodes stale;
  //   cadence 4  streaming every 4 episodes: staleness cycles 1,2,3,0;
  //   cadence 1  streaming every episode: staleness pinned at 0.
  // A publish swaps a CloneForInference copy into the serving
  // shared_ptr<const Network>, as Fleet's republish hook does. Every
  // answer must be bit-exact PredictOne on the snapshot it was served
  // from, and the summed integer staleness is a pure function of the
  // cadence; both are gated exactly. Wall times are advisory: the
  // every-episode run against the completion-only run is the cost of
  // cloning on the training path.
  {
    constexpr std::size_t kEpisodes = 16;
    constexpr std::size_t kQueriesPer = 8;
    constexpr std::size_t kOutWidth = 16;  // MakeNetwork's output layer
    struct RepublishOutcome {
      std::size_t staleness_sum = 0;  // summed episodes-behind over queries
      std::size_t publishes = 0;
      std::size_t answered = 0;
      std::size_t mismatch_rows = 0;
      double wall_ms = 0;     // whole loop: train + publish + suggest
      double suggest_ms = 0;  // the batched serving forwards only
    };
    const auto run_cadence = [&](std::size_t publish_every) {
      RepublishOutcome out;
      std::unique_ptr<neural::Network> network = MakeNetwork(555);
      std::shared_ptr<const neural::Network> serving =
          network->CloneForInference();  // bootstrap snapshot
      ++out.publishes;
      std::size_t last_published = 0;

      util::Rng data_rng(556);
      neural::Tensor input(kQueriesPer, kFeatureWidth);
      neural::Tensor target(kQueriesPer, kOutWidth);
      neural::InferenceWorkspace workspace;
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t episode = 1; episode <= kEpisodes; ++episode) {
        // One deterministic gradient step: the live network mutates, so
        // un-republished snapshots fall behind it.
        for (std::size_t r = 0; r < kQueriesPer; ++r) {
          for (std::size_t c = 0; c < kFeatureWidth; ++c) {
            input(r, c) = data_rng.NextGaussian();
          }
          for (std::size_t c = 0; c < kOutWidth; ++c) {
            target(r, c) = data_rng.NextGaussian();
          }
        }
        network->TrainBatch(input, target);
        if (publish_every > 0 && episode % publish_every == 0) {
          serving = network->CloneForInference();
          ++out.publishes;
          last_published = episode;
        }
        util::Rng query_rng(9000 + episode);  // same rows for every cadence
        workspace.row.Resize(kQueriesPer, kFeatureWidth);
        for (std::size_t q = 0; q < kQueriesPer; ++q) {
          workspace.row.SetRow(q, MakeRow(query_rng));
        }
        const auto suggest_start = std::chrono::steady_clock::now();
        const std::shared_ptr<const neural::Network> pinned = serving;
        const neural::Tensor& answers =
            pinned->Predict(workspace.row, workspace);
        out.suggest_ms += SecondsSince(suggest_start) * 1000.0;
        for (std::size_t q = 0; q < kQueriesPer; ++q) {
          ++out.answered;
          if (answers.RowVector(q) !=
              pinned->PredictOne(workspace.row.RowVector(q))) {
            ++out.mismatch_rows;
          }
          out.staleness_sum += episode - last_published;
        }
      }
      out.wall_ms = SecondsSince(start) * 1000.0;
      serving = network->CloneForInference();  // completion publish
      ++out.publishes;
      return out;
    };
    const RepublishOutcome completion = run_cadence(0);
    const RepublishOutcome every4 = run_cadence(4);
    const RepublishOutcome every1 = run_cadence(1);

    util::JsonObject deterministic;
    deterministic["episodes"] = static_cast<std::int64_t>(kEpisodes);
    deterministic["queries"] =
        static_cast<std::int64_t>(kEpisodes * kQueriesPer);
    deterministic["answered_completion"] =
        static_cast<std::int64_t>(completion.answered);
    deterministic["answered_every4"] =
        static_cast<std::int64_t>(every4.answered);
    deterministic["answered_every1"] =
        static_cast<std::int64_t>(every1.answered);
    deterministic["staleness_completion"] =
        static_cast<std::int64_t>(completion.staleness_sum);
    deterministic["staleness_every4"] =
        static_cast<std::int64_t>(every4.staleness_sum);
    deterministic["staleness_every1"] =
        static_cast<std::int64_t>(every1.staleness_sum);
    deterministic["publishes_completion"] =
        static_cast<std::int64_t>(completion.publishes);
    deterministic["publishes_every4"] =
        static_cast<std::int64_t>(every4.publishes);
    deterministic["publishes_every1"] =
        static_cast<std::int64_t>(every1.publishes);
    deterministic["mismatch_rows"] = static_cast<std::int64_t>(
        completion.mismatch_rows + every4.mismatch_rows +
        every1.mismatch_rows);
    util::JsonObject advisory;
    advisory["wall_ms_completion"] = completion.wall_ms;
    advisory["wall_ms_every4"] = every4.wall_ms;
    advisory["wall_ms_every1"] = every1.wall_ms;
    advisory["suggest_ms_completion"] = completion.suggest_ms;
    advisory["suggest_ms_every4"] = every4.suggest_ms;
    advisory["suggest_ms_every1"] = every1.suggest_ms;
    cases.push_back(CaseJson("republish_staleness", std::move(deterministic),
                             std::move(advisory)));
    const bool exact =
        completion.mismatch_rows + every4.mismatch_rows +
                every1.mismatch_rows ==
            0 &&
        every1.staleness_sum == 0 &&
        every4.staleness_sum ==
            kQueriesPer * (kEpisodes / 4) * (1 + 2 + 3 + 0) &&
        completion.staleness_sum ==
            kQueriesPer * kEpisodes * (kEpisodes + 1) / 2;
    healthy = healthy && exact;
    std::printf(
        "republish_staleness: summed staleness %zu (completion) -> %zu "
        "(every 4) -> %zu (every 1) episodes over %zu queries, parity %s, "
        "wall %.2f ms -> %.2f ms\n",
        completion.staleness_sum, every4.staleness_sum, every1.staleness_sum,
        kEpisodes * kQueriesPer, exact ? "ok" : "MISMATCH",
        completion.wall_ms, every1.wall_ms);
  }

  util::JsonObject doc;
  doc["bench"] = "fleet";
  doc["smoke"] = smoke;
  doc["machine"] = bench::MachineJson();
  doc["cases"] = util::JsonValue(std::move(cases));
  std::ofstream out("BENCH_fleet.json");
  out << util::JsonValue(std::move(doc)).Dump(2) << "\n";
  std::printf("wrote BENCH_fleet.json (%s)\n",
              healthy ? "healthy" : "UNHEALTHY");
  return healthy ? 0 : 1;
}
