// Fleet determinism and containment contracts (DESIGN.md §10):
//   * per-tenant results are identical for any worker count — jobs=1 is
//     the sequential oracle the parallel schedule must reproduce;
//   * a throwing tenant is quarantined and counted, never fatal;
//   * the batched SuggestMinutes path equals per-minute SuggestAction.
#include "runtime/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fsm/device_library.h"
#include "sim/resident.h"
#include "util/rng.h"

namespace jarvis::runtime {
namespace {

// Deliberately tiny tenant pipelines: the contracts under test are about
// scheduling and determinism, not policy quality.
FleetConfig CheapConfig(std::size_t tenants, std::size_t jobs) {
  FleetConfig config;
  config.tenants = tenants;
  config.jobs = jobs;
  config.fleet_seed = 2024;
  config.tenant_config.restarts = 1;
  config.tenant_config.trainer.episodes = 2;
  config.tenant_config.trainer.demonstration_episodes = 1;
  config.tenant_config.dqn.hidden_units = {8, 8};
  config.tenant_config.dqn.batch_size = 16;
  config.tenant_config.spl.ann.epochs = 3;
  return config;
}

SimulatedWorkloadOptions CheapWorkload() {
  SimulatedWorkloadOptions options;
  options.learning_days = 2;
  options.benign_anomaly_samples = 200;
  return options;
}

class FleetFixture : public ::testing::Test {
 protected:
  static const fsm::EnvironmentFsm& Home() {
    static const fsm::EnvironmentFsm home = fsm::BuildFullHome();
    return home;
  }
};

void ExpectTenantResultsIdentical(const FleetReport& oracle,
                                  const FleetReport& parallel) {
  ASSERT_EQ(oracle.tenants.size(), parallel.tenants.size());
  for (std::size_t i = 0; i < oracle.tenants.size(); ++i) {
    const TenantResult& a = oracle.tenants[i];
    const TenantResult& b = parallel.tenants[i];
    SCOPED_TRACE(::testing::Message() << "tenant " << i);
    EXPECT_EQ(a.tenant, b.tenant);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.quarantined, b.quarantined);
    EXPECT_EQ(a.learning_episodes, b.learning_episodes);
    // DayPlan metrics: exact FP equality, not tolerances — the worker
    // count must not perturb a single operation in any tenant pipeline.
    EXPECT_EQ(a.plan.optimized_metrics.energy_kwh,
              b.plan.optimized_metrics.energy_kwh);
    EXPECT_EQ(a.plan.optimized_metrics.cost_usd,
              b.plan.optimized_metrics.cost_usd);
    EXPECT_EQ(a.plan.optimized_metrics.comfort_error_c_min,
              b.plan.optimized_metrics.comfort_error_c_min);
    EXPECT_EQ(a.plan.normal_metrics.energy_kwh,
              b.plan.normal_metrics.energy_kwh);
    EXPECT_EQ(a.plan.violations, b.plan.violations);
    EXPECT_EQ(a.plan.train.greedy_reward, b.plan.train.greedy_reward);
    EXPECT_EQ(a.plan.train.episode_rewards, b.plan.train.episode_rewards);
    EXPECT_EQ(a.health.parse.events_dropped(), b.health.parse.events_dropped());
    EXPECT_EQ(a.health.learn.episodes_used, b.health.learn.episodes_used);
  }
  EXPECT_EQ(oracle.completed, parallel.completed);
  EXPECT_EQ(oracle.quarantined, parallel.quarantined);
  EXPECT_EQ(oracle.total_energy_kwh, parallel.total_energy_kwh);
  EXPECT_EQ(oracle.total_cost_usd, parallel.total_cost_usd);
  EXPECT_EQ(oracle.total_violations, parallel.total_violations);
}

TEST_F(FleetFixture, SixteenTenantParallelRunMatchesSequentialOracle) {
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());

  Fleet oracle(Home(), CheapConfig(16, 1));
  const FleetReport sequential = oracle.Run(factory);
  ASSERT_EQ(sequential.completed, 16u);
  ASSERT_EQ(sequential.quarantined, 0u);

  Fleet parallel(Home(), CheapConfig(16, 8));
  const FleetReport threaded = parallel.Run(factory);

  ExpectTenantResultsIdentical(sequential, threaded);
}

TEST_F(FleetFixture, TenantSeedsDeriveFromFleetSeed) {
  Fleet fleet(Home(), CheapConfig(4, 1));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(fleet.tenant_seed(i),
              util::DeriveSeed(2024, static_cast<std::uint64_t>(i)));
  }
  EXPECT_NE(fleet.tenant_seed(0), fleet.tenant_seed(1));
  EXPECT_THROW(fleet.tenant_seed(99), std::out_of_range);
}

TEST_F(FleetFixture, ThrowingTenantIsQuarantinedNotFatal) {
  const auto good = SimulatedWorkloadFactory(Home(), CheapWorkload());
  const WorkloadFactory factory = [&good](std::size_t tenant,
                                          std::uint64_t seed) {
    if (tenant == 2) {
      throw std::runtime_error("tenant 2 has a corrupt event log");
    }
    return good(tenant, seed);
  };

  Fleet fleet(Home(), CheapConfig(4, 2));
  const FleetReport report = fleet.Run(factory);
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_TRUE(report.tenants[2].quarantined);
  EXPECT_EQ(report.tenants[2].error, "tenant 2 has a corrupt event log");
  EXPECT_FALSE(report.tenants[2].completed);
  EXPECT_EQ(fleet.tenant(2), nullptr);
  for (std::size_t i : {0u, 1u, 3u}) {
    EXPECT_TRUE(report.tenants[i].completed);
    EXPECT_NE(fleet.tenant(i), nullptr);
  }

  // A re-run skips the quarantined shard instead of retrying it.
  const FleetReport rerun = fleet.Run(good);
  EXPECT_EQ(rerun.completed, 3u);
  EXPECT_EQ(rerun.quarantined, 1u);
  EXPECT_EQ(rerun.tenants[2].error, "quarantined by a previous run");
}

TEST_F(FleetFixture, SuggestMinutesMatchesPerMinuteSuggestAction) {
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  Fleet fleet(Home(), CheapConfig(2, 2));
  ASSERT_EQ(fleet.Run(factory).completed, 2u);

  sim::ResidentSimulator resident(Home(), sim::ThermalConfig{}, 1);
  const fsm::StateVector state = resident.OvernightState();
  const std::vector<int> minutes = {0, 60, 6 * 60, 12 * 60, 23 * 60};
  for (std::size_t tenant = 0; tenant < 2; ++tenant) {
    const auto batched = fleet.SuggestMinutes(tenant, state, minutes);
    ASSERT_EQ(batched.size(), minutes.size());
    for (std::size_t i = 0; i < minutes.size(); ++i) {
      EXPECT_EQ(batched[i],
                fleet.tenant(tenant)->SuggestAction(state, minutes[i]))
          << "tenant " << tenant << " minute " << minutes[i];
    }
  }
  EXPECT_THROW(fleet.SuggestMinutes(99, state, minutes), std::out_of_range);
}

TEST_F(FleetFixture, TenantMetricsIdenticalAcrossWorkerCounts) {
  // Tenant-level metrics are observational AND deterministic: each tenant
  // Jarvis owns its registry, so its deterministic snapshot is a pure
  // function of the tenant seed — bit-identical whether the fleet ran
  // sequentially or across 4 workers.
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  Fleet oracle(Home(), CheapConfig(4, 1));
  Fleet parallel(Home(), CheapConfig(4, 4));
  ASSERT_EQ(oracle.Run(factory).completed, 4u);
  ASSERT_EQ(parallel.Run(factory).completed, 4u);

  for (std::size_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(::testing::Message() << "tenant " << i);
    const obs::MetricsSnapshot a = oracle.TenantMetrics(i).DeterministicOnly();
    const obs::MetricsSnapshot b =
        parallel.TenantMetrics(i).DeterministicOnly();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(oracle.AggregateTenantMetrics().DeterministicOnly(),
            parallel.AggregateTenantMetrics().DeterministicOnly());
}

TEST_F(FleetFixture, InstrumentationDoesNotPerturbResults) {
  // The determinism contract extends to instrumentation itself: disabling
  // tenant metrics must not change a single FP operation in any pipeline.
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  Fleet instrumented(Home(), CheapConfig(2, 1));
  FleetConfig bare_config = CheapConfig(2, 1);
  bare_config.tenant_config.metrics_enabled = false;
  Fleet bare(Home(), bare_config);

  const FleetReport with_metrics = instrumented.Run(factory);
  const FleetReport without = bare.Run(factory);
  ExpectTenantResultsIdentical(without, with_metrics);

  EXPECT_FALSE(instrumented.TenantMetrics(0).empty());
  EXPECT_TRUE(bare.TenantMetrics(0).empty());
}

TEST_F(FleetFixture, FleetLevelMetricsAndSpans) {
  const auto good = SimulatedWorkloadFactory(Home(), CheapWorkload());
  const WorkloadFactory factory = [&good](std::size_t tenant,
                                          std::uint64_t seed) {
    if (tenant == 1) throw std::runtime_error("boom");
    return good(tenant, seed);
  };
  Fleet fleet(Home(), CheapConfig(3, 2));
  fleet.Run(factory);

  const obs::MetricsSnapshot fleet_metrics = fleet.TakeMetricsSnapshot();
  EXPECT_EQ(fleet_metrics.CounterValue("runtime.fleet.runs"), 1u);
  EXPECT_EQ(fleet_metrics.CounterValue("runtime.fleet.tenants_run"), 3u);
  EXPECT_EQ(fleet_metrics.CounterValue("runtime.fleet.tenants_completed"),
            2u);
  EXPECT_EQ(fleet_metrics.CounterValue("runtime.fleet.tenants_quarantined"),
            1u);
  // The scheduling pool reported through the fleet registry.
  EXPECT_EQ(fleet_metrics.CounterValue("runtime.pool.tasks_executed"), 3u);

  // Per-tenant span trees: one "tenant.N" root per attempted tenant, with
  // the pipeline children underneath for the ones that ran.
  std::size_t roots = 0;
  std::size_t children = 0;
  for (const obs::SpanRecord& span : fleet.FlushSpans()) {
    if (span.depth == 0) {
      EXPECT_EQ(span.name.rfind("tenant.", 0), 0u);
      ++roots;
    } else {
      ++children;
    }
  }
  EXPECT_EQ(roots, 3u);
  EXPECT_GE(children, 2u * 3u);  // workload/learn/optimize for 2 tenants

  // TenantMetrics guards: quarantined tenant never built a pipeline.
  EXPECT_THROW(fleet.TenantMetrics(1), std::logic_error);
  EXPECT_THROW(fleet.TenantMetrics(99), std::out_of_range);
}

TEST_F(FleetFixture, ReportSnapshotIsSafeWhileRunIsInFlight) {
  // Regression: report() used to hand back a const reference into state the
  // running fleet mutates — a racing reader saw a vector being resized
  // under it. It now returns a by-value snapshot taken under the fleet
  // lock, so polling mid-Run is safe (the snapshot is simply the previous
  // Run's report until the new one lands).
  Fleet fleet(Home(), CheapConfig(3, 2));
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  std::atomic<bool> done{false};
  std::thread poller([&fleet, &done] {
    while (!done.load()) {
      const FleetReport snapshot = fleet.report();
      EXPECT_TRUE(snapshot.tenants.empty() || snapshot.tenants.size() == 3u);
      const std::size_t tenants = fleet.tenant_count();
      EXPECT_EQ(tenants, 3u);
    }
  });
  const FleetReport report = fleet.Run(factory);
  done.store(true);
  poller.join();
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(fleet.report().tenants.size(), 3u);
}

// Regression (dangling `stored` fix): the end-of-run publish used to read
// a raw pointer into the shard slot after dropping the fleet lock, so a
// concurrent RemoveTenant — which resets the slot — left the publish
// reading a destroyed network. The job now keeps its own shared_ptr
// ownership token, and mid-run snapshot swaps skip removed tenants. Run
// under TSan/ASan (label `runtime`), where the old bug is a hard failure.
TEST_F(FleetFixture, RemoveTenantWhileRepublishInFlightIsSafe) {
  FleetConfig config = CheapConfig(6, 3);
  // Republish every episode: maximizes snapshot swaps racing the removals.
  config.tenant_config.trainer.republish.every_episodes = 1;
  Fleet fleet(Home(), config);
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());

  std::atomic<bool> done{false};
  std::thread remover([&fleet, &done] {
    // Hammer removals of the first three tenants (idempotent) until the
    // run finishes, so some land mid-training, some mid-publish.
    while (!done.load()) {
      for (std::size_t index = 0; index < 3; ++index) {
        fleet.RemoveTenant(index);
      }
    }
  });
  const FleetReport report = fleet.Run(factory);
  done.store(true);
  remover.join();

  EXPECT_EQ(report.tenants.size(), 6u);
  sim::ResidentSimulator resident(Home(), sim::ThermalConfig{}, 1);
  const fsm::StateVector state = resident.OvernightState();
  // A removed tenant stays never-run, even if its job finished after the
  // removal; the untouched half of the fleet trained and serves normally.
  for (std::size_t index = 0; index < 3; ++index) {
    EXPECT_THROW(fleet.SuggestMinutes(index, state, {480}), std::logic_error);
  }
  for (std::size_t index = 3; index < 6; ++index) {
    const auto actions = fleet.SuggestMinutes(index, state, {480, 720});
    EXPECT_EQ(actions.size(), 2u);
  }
}

// Concurrent SuggestAction calls on one Jarvis share its network. Each
// forward runs in a call-local workspace, so every answer equals the
// single-threaded one (and TSan sees no write to shared scratch).
TEST_F(FleetFixture, ConcurrentSuggestActionMatchesSingleThreaded) {
  Fleet fleet(Home(), CheapConfig(1, 1));
  fleet.Run(SimulatedWorkloadFactory(Home(), CheapWorkload()));
  const core::Jarvis* jarvis = fleet.tenant(0);
  ASSERT_NE(jarvis, nullptr);

  sim::ResidentSimulator resident(Home(), sim::ThermalConfig{}, 1);
  const fsm::StateVector state = resident.OvernightState();
  std::vector<int> minutes;
  for (int minute = 0; minute < 1440; minute += 45) minutes.push_back(minute);
  std::vector<fsm::ActionVector> expected;
  for (int minute : minutes) {
    expected.push_back(jarvis->SuggestAction(state, minute));
  }

  std::vector<std::thread> threads;
  std::vector<std::size_t> mismatches(4, 0);
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (std::size_t i = 0; i < minutes.size(); ++i) {
          if (jarvis->SuggestAction(state, minutes[i]) != expected[i]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

// Serving while training: 4 threads call SuggestMinutes on one tenant
// while a re-Run republishes that tenant's snapshot every episode. A call
// pins one snapshot for all of its rows, so every answer must be exactly
// the decode of one published network: the previous run's policy or one
// of the clones the republish hook took. A reference pipeline with the
// tenant's seeds and workload records each clone through its own hook.
TEST_F(FleetFixture, SuggestMinutesDuringRepublishDecodesOneSnapshot) {
  FleetConfig config = CheapConfig(1, 1);
  // Enough episodes at a high enough learning rate that the published
  // snapshots decode to different actions (checked below).
  config.tenant_config.trainer.episodes = 4;
  config.tenant_config.dqn.learning_rate = 0.05;
  config.tenant_config.trainer.republish.every_episodes = 1;
  Fleet fleet(Home(), config);
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  fleet.Run(factory);

  // The reference pipeline: Fleet's per-tenant config derivation.
  const std::uint64_t seed = fleet.tenant_seed(0);
  core::JarvisConfig tenant_config = config.tenant_config;
  tenant_config.seed = seed;
  tenant_config.spl.seed = util::DeriveSeed(seed, 1);
  tenant_config.dqn.seed = util::DeriveSeed(seed, 2);
  core::Jarvis reference(Home(), tenant_config);
  std::vector<std::shared_ptr<const neural::Network>> published;
  reference.SetLearningHook(
      [&published](const rl::EpisodeProgress&,
                   const neural::Network& network) {
        published.push_back(network.CloneForInference());
      });
  const TenantWorkload workload = factory(0, seed);
  reference.LearnFromEvents(workload.events, workload.initial_state,
                            workload.start, workload.labeled);
  reference.OptimizeDay(workload.day, workload.weights);
  ASSERT_FALSE(published.empty());
  // The run's end publishes the trained network itself; a re-Run trains
  // the same network again, so it is also what the first run left behind.
  published.push_back(reference.agent()->network().CloneForInference());

  sim::ResidentSimulator resident(Home(), sim::ThermalConfig{}, 1);
  const fsm::StateVector state = resident.OvernightState();
  std::vector<int> minutes;
  for (int minute = 0; minute < 1440; minute += 30) minutes.push_back(minute);
  const rl::IoTEnv& env = *reference.policy_env();
  std::vector<std::vector<fsm::ActionVector>> decodes;
  for (const auto& network : published) {
    std::vector<fsm::ActionVector> actions;
    for (int minute : minutes) {
      actions.push_back(reference.agent()->GreedyActionFromQ(
          network->PredictOne(env.FeaturesFor(state, minute)),
          env.SafeSlotMaskFor(state, minute)));
    }
    decodes.push_back(std::move(actions));
  }
  // Snapshots that all decoded alike could not tell a torn call apart.
  ASSERT_GE(std::set<std::vector<fsm::ActionVector>>(decodes.begin(),
                                                     decodes.end())
                .size(),
            2u);
  ASSERT_EQ(fleet.SuggestMinutes(0, state, minutes), decodes.back());

  std::atomic<bool> done{false};
  std::vector<std::size_t> calls(4, 0);
  std::vector<std::size_t> unmatched(4, 0);
  std::vector<std::thread> suggesters;
  for (std::size_t t = 0; t < 4; ++t) {
    suggesters.emplace_back([&, t] {
      do {
        const auto actions = fleet.SuggestMinutes(0, state, minutes);
        ++calls[t];
        if (std::find(decodes.begin(), decodes.end(), actions) ==
            decodes.end()) {
          ++unmatched[t];
        }
      } while (!done.load());
    });
  }
  fleet.Run(factory);
  done.store(true);
  for (auto& suggester : suggesters) suggester.join();

  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_GT(calls[t], 0u);
    EXPECT_EQ(unmatched[t], 0u) << "thread " << t;
  }
  // The fleet published exactly the clones the reference recorded, once
  // per run.
  EXPECT_EQ(fleet.Metrics()
                .GetCounter("runtime.fleet.republishes",
                            obs::Determinism::kTiming)
                ->Value(),
            2 * (published.size() - 1));
  EXPECT_EQ(fleet.SuggestMinutes(0, state, minutes), decodes.back());
}

// Streaming republish end to end: with a cadence configured, training
// tenants swap in mid-run snapshots, and — because the hook draws no RNG —
// both the tenant results and the served suggestions are bit-identical to
// a fleet that never streamed.
TEST_F(FleetFixture, StreamingRepublishDoesNotPerturbResults) {
  FleetConfig streaming_config = CheapConfig(2, 2);
  streaming_config.tenant_config.trainer.republish.every_episodes = 1;
  Fleet streaming(Home(), streaming_config);
  const auto factory = SimulatedWorkloadFactory(Home(), CheapWorkload());
  const FleetReport streamed_report = streaming.Run(factory);

  Fleet plain(Home(), CheapConfig(2, 1));  // jobs=1: the sequential oracle
  const FleetReport plain_report = plain.Run(factory);

  ExpectTenantResultsIdentical(plain_report, streamed_report);
  EXPECT_GT(streaming.Metrics()
                .GetCounter("runtime.fleet.republishes",
                            obs::Determinism::kTiming)
                ->Value(),
            0u);

  sim::ResidentSimulator resident(Home(), sim::ThermalConfig{}, 1);
  const fsm::StateVector state = resident.OvernightState();
  const std::vector<int> minutes = {0, 360, 720, 1080};
  for (std::size_t index = 0; index < 2; ++index) {
    EXPECT_EQ(streaming.SuggestMinutes(index, state, minutes),
              plain.SuggestMinutes(index, state, minutes))
        << "tenant " << index;
  }
}

TEST_F(FleetFixture, GuardsBadConfiguration) {
  FleetConfig config = CheapConfig(0, 1);
  EXPECT_THROW(Fleet(Home(), config), std::invalid_argument);
  Fleet fleet(Home(), CheapConfig(1, 1));
  EXPECT_THROW(fleet.Run(WorkloadFactory{}), std::invalid_argument);
  EXPECT_THROW(fleet.SuggestMinutes(0, {}, {}), std::logic_error);
}

}  // namespace
}  // namespace jarvis::runtime
