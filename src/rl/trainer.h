// Training loop for Algorithm 2: runs the agent through EP episodes of the
// simulated environment, storing experiences and replaying mini-batches,
// then evaluates the learnt policy greedily and reports both the reward
// trajectory and the physical day metrics (energy / cost / comfort) that
// the functionality benches compare against normal behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "rl/dqn_agent.h"
#include "rl/iot_env.h"

namespace jarvis::rl {

// When (if ever) a training run streams its live weights out mid-run —
// the online-learning lever: serving traffic rides a policy at most N
// episodes / T ms stale instead of waiting for the whole run to finish.
// Triggers compose with OR; all disabled (the default) means
// publish-on-completion only, the exact pre-republish behavior.
struct RepublishPolicy {
  // Publish after every N completed (non-aborted) episodes. 0 = off.
  int every_episodes = 0;
  // Publish when at least this much wall time passed since the last
  // publish (checked at episode boundaries; kTiming-shaped — use the
  // episode trigger where determinism matters). 0 = off.
  std::int64_t every_ms = 0;
  // Publish whenever an episode ends with a strictly lower replay loss
  // than any seen before in this run.
  bool on_loss_improvement = false;

  bool enabled() const {
    return every_episodes > 0 || every_ms > 0 || on_loss_improvement;
  }
};

// What the trainer knows at the episode boundary that triggered a
// republish; handed to the hook alongside the live network.
struct EpisodeProgress {
  int episode = 0;  // 0-based index of the episode that just completed
  int restart = 0;  // filled by core::Jarvis (which restart is training)
  double loss = 0.0;
  double reward = 0.0;
};

// Invoked on the training thread at republish points with the agent's LIVE
// network — quiescent for exactly the duration of the call (the trainer is
// the single writer and it is blocked in the hook). Implementations must
// snapshot (runtime::Fleet takes a Network::CloneForInference) rather
// than retain the reference, and must not throw or draw from the
// trainer's RNG streams: the training trajectory is bit-identical with or without a hook.
using RepublishHook =
    std::function<void(const EpisodeProgress&, const neural::Network&)>;

struct TrainerConfig {
  int episodes = 24;            // EP
  int replays_per_step = 1;     // replay() calls per decision instant
  // Episodes at the start of training driven by the resident's natural
  // behavior instead of the agent (experiences are stored and replayed as
  // usual). Deep-Q from demonstrations, scaled down: gives the value
  // function a known-good trajectory so sustained-control optima (hours of
  // winter heating) are discoverable from any seed.
  int demonstration_episodes = 2;
  // Streaming-republish cadence; no effect unless Train is also given a
  // RepublishHook to stream through.
  RepublishPolicy republish;
};

struct TrainResult {
  std::vector<double> episode_rewards;   // training episodes, in order
  double final_epsilon = 0.0;
  double final_loss = 0.0;
  std::size_t training_violations = 0;   // summed over training episodes

  // Divergence recovery accounting: how many episodes were aborted because
  // the replay loss went non-finite (or past divergence_loss), and how many
  // poisoned experiences the recoveries dropped from the replay memory.
  std::size_t divergence_recoveries = 0;
  std::size_t poisoned_experiences_purged = 0;

  // Mid-run weight publishes the republish policy triggered (0 when the
  // policy is disabled or no hook was passed).
  std::size_t republishes = 0;

  // Greedy evaluation episode after training.
  double greedy_reward = 0.0;
  std::size_t greedy_violations = 0;
  sim::DayMetrics greedy_metrics;
  fsm::Episode greedy_episode{{1, 1}, util::SimTime(0), {0}};
};

// Trains `agent` on `env` and greedily evaluates. The env is reset as
// needed; after return it holds the greedy evaluation episode. When
// `metrics` is non-null the run bumps rl.trainer.* counters (episodes,
// steps, divergence recoveries, purged experiences, republishes) and wires
// the agent (rl.agent.*) for the duration of the call; observation only —
// the training trajectory is identical either way.
//
// A non-null `republish_hook` is invoked per config.republish at episode
// boundaries (never after an aborted episode: the weights were just
// restored from the divergence snapshot, publishing them would re-serve a
// policy the trainer already rejected). The hook draws no RNG and the
// trainer takes no decision from it, so the trajectory is bit-identical
// with or without streaming enabled.
TrainResult Train(IoTEnv& env, DqnAgent& agent, TrainerConfig config,
                  obs::Registry* metrics = nullptr,
                  RepublishHook republish_hook = nullptr);

// Runs one greedy (no exploration, no learning) episode and returns its
// cumulative reward. The env afterwards holds the episode.
double RunGreedyEpisode(IoTEnv& env, DqnAgent& agent);

}  // namespace jarvis::rl
