// Fleet inference aggregation bench: cross-tenant suggest throughput with
// the AggregationService funnel versus the per-tenant direct route
// (DESIGN.md §16), swept over tenant counts × flush-deadline settings,
// plus an exact coalescing-arithmetic case and an end-to-end trained-fleet
// parity case.
//
// Shape follows bench_serve: every case carries a `deterministic` object
// (query/answer conservation, exact-parity verdicts, and — for the manual-
// mode case — the full flush arithmetic; all pure functions of the seed)
// gated EXACTLY by tools/check_bench.py against
// bench/baselines/BENCH_fleet.json, and an `advisory` object (throughput,
// speedup, observed GEMM sizes; runners differ, so these only warn).
// Writes BENCH_fleet.json next to the human-readable table. Pass --smoke
// for the CI-sized run (the committed baseline is the --smoke shape).
//
// Both sweep paths spend an identical thread budget (kClients request
// threads); the aggregated path's speedup is GEMM amortization — many
// single-row queries sharing one forward — which is the paper's shared-
// hardware lever (millions of users, one fleet).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "runtime/aggregation_service.h"
#include "runtime/fleet.h"
#include "runtime/inference_batcher.h"
#include "sim/resident.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/timeofday.h"

namespace {

using namespace jarvis;

// Suggest-shaped forward: observation-ish width in, Q-row out. Heavy
// enough hidden layers that the GEMM, not the bookkeeping, dominates a
// forward — the regime the funnel exists for (a production policy net;
// the unit tests use toy widths).
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

constexpr std::size_t kClients = 32;

struct SweepOutcome {
  std::size_t tenants = 0;
  std::size_t queries = 0;
  std::size_t answered = 0;
  std::size_t rejected = 0;
  bool parity = true;
  double base_qps = 0;
  double agg_qps = 0;
  double speedup = 0;
  std::uint64_t gemm_batches = 0;
  std::uint64_t max_gemm_rows = 0;
};

// One sweep point: kClients threads issue `per_client` single-row
// suggest-shaped queries, first through the per-tenant direct route
// (per-query InferenceBatcher under a per-tenant lock — exactly
// Fleet::SuggestMinutes' fallback), then through one shared
// AggregationService. All clients walk the tenant catalog on the same
// schedule (tenant = query index mod tenants): the fleet-tick / hot-tenant
// regime, where concurrent demand per tenant is the client count. That
// per-tenant concurrency is the coalescing currency — rows for DIFFERENT
// weight versions can never share a GEMM, so the funnel's win is turning
// same-tenant contention (serialized single-row forwards behind the
// direct route's lock) into one batched forward. Every answer from BOTH
// paths is checked bit-exact against PredictOne after the threads join.
//
// Each path is measured `reps` times and reports its best rep: an
// oversubscribed single-core scheduler makes individual closed-loop runs
// swing tens of percent, and best-of-N is the standard way to read a
// capability number through that noise (both paths get the same
// treatment; the first rep doubles as cache warmup). Parity and
// conservation are checked on EVERY rep, not just the reported one.
SweepOutcome RunSweep(std::size_t tenants, std::size_t per_client,
                      std::int64_t deadline_us, int reps) {
  std::vector<std::unique_ptr<neural::Network>> networks;
  for (std::size_t t = 0; t < tenants; ++t) {
    networks.push_back(MakeNetwork(100 + t));
  }

  struct Answer {
    std::size_t tenant;
    std::vector<double> row;
    std::vector<double> result;
  };
  SweepOutcome outcome;
  outcome.tenants = tenants;
  outcome.queries = kClients * per_client;

  // Exactness: every answer, bit-for-bit (single-threaded — PredictOne
  // uses the source network's scratch).
  const auto verify = [&](const std::vector<std::vector<Answer>>& answers) {
    for (const auto& client_answers : answers) {
      for (const Answer& answer : client_answers) {
        if (answer.result != networks[answer.tenant]->PredictOne(answer.row)) {
          outcome.parity = false;
        }
      }
    }
  };

  // Direct route baseline.
  std::vector<std::unique_ptr<std::mutex>> tenant_locks;
  for (std::size_t t = 0; t < tenants; ++t) {
    tenant_locks.push_back(std::make_unique<std::mutex>());
  }
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::vector<Answer>> base_answers(kClients);
    std::vector<std::thread> clients;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        util::Rng rng(9000 + c);
        for (std::size_t q = 0; q < per_client; ++q) {
          const std::size_t tenant = q % tenants;
          std::vector<double> row = MakeRow(rng);
          std::lock_guard<std::mutex> lock(*tenant_locks[tenant]);
          runtime::InferenceBatcher batcher(*networks[tenant]);
          batcher.Enqueue(row);
          batcher.Flush();
          base_answers[c].push_back({tenant, std::move(row),
                                     batcher.Result(0)});
        }
      });
    }
    for (auto& client : clients) client.join();
    const double seconds = SecondsSince(start);
    outcome.base_qps = std::max(
        outcome.base_qps,
        seconds > 0 ? static_cast<double>(outcome.queries) / seconds : 0);
    verify(base_answers);
  }

  // Aggregated route: same thread budget, one shared funnel per rep.
  // max_batch = the client count, so a full in-flight cohort flushes
  // immediately and the deadline only bounds how long a partial cohort
  // can wait.
  for (int rep = 0; rep < reps; ++rep) {
    runtime::AggregationConfig config;
    config.max_batch = kClients;
    config.deadline_us = deadline_us;
    runtime::AggregationService service(config);
    for (std::size_t t = 0; t < tenants; ++t) {
      service.PublishWeights(t, *networks[t]);
    }
    std::vector<std::vector<Answer>> agg_answers(kClients);
    std::vector<std::thread> clients;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        util::Rng rng(9000 + c);  // same row stream as the baseline
        for (std::size_t q = 0; q < per_client; ++q) {
          const std::size_t tenant = q % tenants;
          std::vector<double> row = MakeRow(rng);
          const auto result = service.Infer(tenant, {row});
          if (!result.has_value()) continue;  // counted via stats().rejected
          agg_answers[c].push_back({tenant, std::move(row),
                                    result->rows[0]});
        }
      });
    }
    for (auto& client : clients) client.join();
    const double seconds = SecondsSince(start);
    const double qps =
        seconds > 0 ? static_cast<double>(outcome.queries) / seconds : 0;
    service.Shutdown();

    const runtime::AggregationStats stats = service.stats();
    // Conservation must close on every rep once the clients have joined.
    if (stats.submitted_queries !=
        stats.answered_queries + stats.rejected_queries) {
      outcome.parity = false;
    }
    verify(agg_answers);
    if (qps > outcome.agg_qps) {
      outcome.agg_qps = qps;
      outcome.answered = stats.answered_queries;
      outcome.rejected = stats.rejected_queries;
      outcome.gemm_batches = stats.gemm_batches;
      outcome.max_gemm_rows = stats.max_gemm_rows;
    }
  }
  outcome.speedup =
      outcome.base_qps > 0 ? outcome.agg_qps / outcome.base_qps : 0;
  return outcome;
}

util::JsonValue SweepCaseJson(const std::string& name,
                              const SweepOutcome& outcome) {
  util::JsonObject deterministic;
  deterministic["tenants"] = static_cast<std::int64_t>(outcome.tenants);
  deterministic["queries"] = static_cast<std::int64_t>(outcome.queries);
  deterministic["answered"] = static_cast<std::int64_t>(outcome.answered);
  deterministic["rejected"] = static_cast<std::int64_t>(outcome.rejected);
  deterministic["parity"] = static_cast<std::int64_t>(outcome.parity ? 1 : 0);
  util::JsonObject advisory;
  advisory["base_qps"] = outcome.base_qps;
  advisory["agg_qps"] = outcome.agg_qps;
  advisory["speedup"] = outcome.speedup;
  advisory["gemm_batches"] = static_cast<double>(outcome.gemm_batches);
  advisory["max_gemm_rows"] = static_cast<double>(outcome.max_gemm_rows);
  util::JsonObject kase;
  kase["name"] = name;
  kase["deterministic"] = util::JsonValue(std::move(deterministic));
  kase["advisory"] = util::JsonValue(std::move(advisory));
  return util::JsonValue(std::move(kase));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t per_client = smoke ? 60 : 400;
  const int reps = smoke ? 3 : 5;
  const int e2e_stride = smoke ? 60 : 15;

  bench::PrintHeader(
      "Fleet inference aggregation: cross-tenant coalescing vs the "
      "per-tenant direct route",
      "aggregation service (DESIGN.md §16); not a paper figure");
  std::printf("mode: %s (%zu clients x %zu queries per sweep point)\n",
              smoke ? "smoke" : "full", kClients, per_client);

  util::JsonArray cases;
  bool healthy = true;

  // ---- coalesce_exact: manual-mode flush arithmetic, fully pinned -------
  // 4 tenants x 8 single-row queries, one FlushNow: the drain must group
  // by weight version into exactly 4 GEMMs of 8 rows each.
  {
    runtime::AggregationConfig config;
    config.manual = true;
    config.max_batch = 256;
    std::vector<std::unique_ptr<neural::Network>> networks;
    runtime::AggregationService service(config);
    for (std::size_t t = 0; t < 4; ++t) {
      networks.push_back(MakeNetwork(10 + t));
      service.PublishWeights(t, *networks[t]);
    }
    util::Rng rng(77);
    struct Pinned {
      std::size_t tenant;
      std::vector<double> row;
      std::uint64_t ticket;
    };
    std::vector<Pinned> pinned;
    for (std::size_t q = 0; q < 32; ++q) {
      const std::size_t tenant = q % 4;
      std::vector<double> row = MakeRow(rng);
      const auto ticket = service.Submit(tenant, {row});
      pinned.push_back({tenant, std::move(row), ticket.value()});
    }
    const auto start = std::chrono::steady_clock::now();
    service.FlushNow();
    const double flush_ms = SecondsSince(start) * 1000.0;
    bool parity = true;
    for (const Pinned& p : pinned) {
      const runtime::AggregatedResult result = service.Wait(p.ticket);
      if (result.rows[0] != networks[p.tenant]->PredictOne(p.row)) {
        parity = false;
      }
    }
    const runtime::AggregationStats stats = service.stats();
    util::JsonObject deterministic;
    deterministic["tenants"] = 4;
    deterministic["queries"] = 32;
    deterministic["answered"] =
        static_cast<std::int64_t>(stats.answered_queries);
    deterministic["rejected"] =
        static_cast<std::int64_t>(stats.rejected_queries);
    deterministic["flushes_manual"] =
        static_cast<std::int64_t>(stats.flushes_manual);
    deterministic["gemm_batches"] =
        static_cast<std::int64_t>(stats.gemm_batches);
    deterministic["max_gemm_rows"] =
        static_cast<std::int64_t>(stats.max_gemm_rows);
    deterministic["rows_inferred"] =
        static_cast<std::int64_t>(stats.rows_inferred);
    deterministic["parity"] = static_cast<std::int64_t>(parity ? 1 : 0);
    util::JsonObject advisory;
    advisory["flush_ms"] = flush_ms;
    util::JsonObject kase;
    kase["name"] = "coalesce_exact";
    kase["deterministic"] = util::JsonValue(std::move(deterministic));
    kase["advisory"] = util::JsonValue(std::move(advisory));
    cases.push_back(util::JsonValue(std::move(kase)));
    healthy = healthy && parity && stats.answered_queries == 32 &&
              stats.gemm_batches == 4 && stats.max_gemm_rows == 8;
    std::printf("coalesce_exact: 32 queries -> %llu GEMMs of <= %llu rows, "
                "parity %s\n",
                static_cast<unsigned long long>(stats.gemm_batches),
                static_cast<unsigned long long>(stats.max_gemm_rows),
                parity ? "ok" : "MISMATCH");
  }

  // ---- the tenants x deadline sweep -------------------------------------
  std::printf("%-14s %8s %12s %12s %9s %10s   parity\n", "case", "queries",
              "direct q/s", "agg q/s", "speedup", "max batch");
  for (const std::size_t tenants : {1u, 4u, 16u, 64u}) {
    for (const std::int64_t deadline_us : {std::int64_t{0},
                                           std::int64_t{200}}) {
      const SweepOutcome outcome =
          RunSweep(tenants, per_client, deadline_us, reps);
      const std::string name = "sweep_t" + std::to_string(tenants) + "_d" +
                               std::to_string(deadline_us);
      std::printf("%-14s %8zu %12.0f %12.0f %8.2fx %10llu   %s\n",
                  name.c_str(), outcome.queries, outcome.base_qps,
                  outcome.agg_qps, outcome.speedup,
                  static_cast<unsigned long long>(outcome.max_gemm_rows),
                  outcome.parity ? "ok" : "MISMATCH");
      healthy = healthy && outcome.parity && outcome.rejected == 0 &&
                outcome.answered == outcome.queries;
      cases.push_back(SweepCaseJson(name, outcome));
    }
  }

  // ---- fleet_suggest_e2e: the real Fleet path, trained end to end -------
  // A tiny trained fleet answers a day of SuggestMinutes twice — direct
  // route first, then with the funnel attached — and the answers must be
  // identical action vectors.
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

    const auto direct_start = std::chrono::steady_clock::now();
    std::vector<std::vector<fsm::ActionVector>> direct;
    for (std::size_t t = 0; t < 2; ++t) {
      direct.push_back(fleet.SuggestMinutes(t, overnight, minutes));
    }
    const double direct_ms = SecondsSince(direct_start) * 1000.0;

    runtime::AggregationConfig agg;
    agg.max_batch = 256;
    agg.deadline_us = 200;
    fleet.EnableAggregation(agg);
    const auto agg_start = std::chrono::steady_clock::now();
    bool parity = true;
    for (std::size_t t = 0; t < 2; ++t) {
      if (fleet.SuggestMinutes(t, overnight, minutes) != direct[t]) {
        parity = false;
      }
    }
    const double agg_ms = SecondsSince(agg_start) * 1000.0;

    util::JsonObject deterministic;
    deterministic["tenants"] = 2;
    deterministic["minutes"] =
        static_cast<std::int64_t>(2 * minutes.size());
    deterministic["parity"] = static_cast<std::int64_t>(parity ? 1 : 0);
    util::JsonObject advisory;
    advisory["train_s"] = train_s;
    advisory["direct_ms"] = direct_ms;
    advisory["agg_ms"] = agg_ms;
    advisory["rows_inferred"] =
        static_cast<double>(fleet.aggregator()->stats().rows_inferred);
    util::JsonObject kase;
    kase["name"] = "fleet_suggest_e2e";
    kase["deterministic"] = util::JsonValue(std::move(deterministic));
    kase["advisory"] = util::JsonValue(std::move(advisory));
    cases.push_back(util::JsonValue(std::move(kase)));
    healthy = healthy && parity;
    std::printf("fleet_suggest_e2e: %zu minutes x 2 tenants, direct %.1f ms "
                "vs aggregated %.1f ms, parity %s\n",
                minutes.size(), direct_ms, agg_ms,
                parity ? "ok" : "MISMATCH");
  }

  // ---- republish_staleness: streaming republish vs publish-on-completion
  // A deterministic single-threaded "online learning" loop: one tenant
  // trains for kEpisodes (one TrainBatch gradient step per episode), and
  // after every episode a suggest burst of kQueriesPer rows goes through a
  // manual-mode funnel. Three republish cadences are compared:
  //   cadence 0  publish-on-completion only (the pre-streaming behavior):
  //              every query sees the bootstrap version, so a query after
  //              episode e is e episodes stale;
  //   cadence 4  streaming every 4 episodes: staleness cycles 1,2,3,0;
  //   cadence 1  streaming every episode: staleness pinned at 0.
  // Every answer is checked bit-exact against the CloneForInference
  // snapshot taken at publish time — version pinning means answers match
  // the published snapshot, never the live mutating network — and the
  // summed integer staleness is a pure function of the cadence; both are
  // gated exactly. Per-run wall time is advisory: the ratio between the
  // every-episode run and the completion-only run is the streaming
  // overhead evidence (clone + publish on the training path).
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
      double suggest_ms = 0;  // submit+flush+wait only (the serving cost)
    };
    const auto run_cadence = [&](std::size_t publish_every) {
      RepublishOutcome out;
      runtime::AggregationConfig config;
      config.manual = true;
      config.max_batch = 256;
      runtime::AggregationService service(config);
      std::unique_ptr<neural::Network> network = MakeNetwork(555);
      std::unique_ptr<neural::Network> snapshot = network->CloneForInference();
      service.PublishWeights(0, *network);  // bootstrap version
      ++out.publishes;
      std::size_t last_published = 0;

      util::Rng data_rng(556);
      neural::Tensor input(kQueriesPer, kFeatureWidth);
      neural::Tensor target(kQueriesPer, kOutWidth);
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t episode = 1; episode <= kEpisodes; ++episode) {
        // One deterministic gradient step: the live network mutates, so
        // un-republished versions fall behind it.
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
          snapshot = network->CloneForInference();
          service.PublishWeights(0, *network);
          ++out.publishes;
          last_published = episode;
        }
        util::Rng query_rng(9000 + episode);  // same rows for every cadence
        std::vector<std::vector<double>> rows;
        std::vector<std::uint64_t> tickets;
        for (std::size_t q = 0; q < kQueriesPer; ++q) {
          rows.push_back(MakeRow(query_rng));
        }
        const auto suggest_start = std::chrono::steady_clock::now();
        for (std::size_t q = 0; q < kQueriesPer; ++q) {
          tickets.push_back(service.Submit(0, {rows[q]}).value());
        }
        service.FlushNow();
        std::vector<runtime::AggregatedResult> results;
        for (std::size_t q = 0; q < kQueriesPer; ++q) {
          results.push_back(service.Wait(tickets[q]));
        }
        out.suggest_ms += SecondsSince(suggest_start) * 1000.0;
        for (std::size_t q = 0; q < kQueriesPer; ++q) {
          if (results[q].rows[0] != snapshot->PredictOne(rows[q])) {
            ++out.mismatch_rows;
          }
          out.staleness_sum += episode - last_published;
        }
      }
      out.wall_ms = SecondsSince(start) * 1000.0;
      service.PublishWeights(0, *network);  // completion publish, every mode
      ++out.publishes;
      out.answered = service.stats().answered_queries;
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
    // Serving-side cost of streaming: how much slower the suggest bursts
    // got when the funnel also absorbed a publish per episode. This is
    // the <= 1.05x acceptance evidence; the whole-loop wall ratio also
    // carries the training-thread clone cost and is reported separately.
    advisory["suggest_cost_ratio"] =
        completion.suggest_ms > 0 ? every1.suggest_ms / completion.suggest_ms
                                  : 0;
    util::JsonObject kase;
    kase["name"] = "republish_staleness";
    kase["deterministic"] = util::JsonValue(std::move(deterministic));
    kase["advisory"] = util::JsonValue(std::move(advisory));
    cases.push_back(util::JsonValue(std::move(kase)));
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
        "suggest cost %.2fx\n",
        completion.staleness_sum, every4.staleness_sum, every1.staleness_sum,
        kEpisodes * kQueriesPer, exact ? "ok" : "MISMATCH",
        completion.suggest_ms > 0 ? every1.suggest_ms / completion.suggest_ms
                                  : 0.0);
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
