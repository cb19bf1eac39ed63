// Serving-daemon bench: request latency through the full framed path
// (client transport → server admission → dispatcher → response) and the
// admission-control overload sweep. Runs entirely in-process over a
// loopback transport, so every count is a pure function of the
// configuration: the latency cases pace requests one at a time (admission
// can never reject), and the overload sweep parks the only worker on a
// `stall` before bursting, making accepted/rejected exact arithmetic on
// queue_capacity. Those integers are gated exactly by tools/check_bench.py
// against bench/baselines/BENCH_serve.json; the latency percentiles are
// advisory (runners differ). Writes BENCH_serve.json next to the
// human-readable table. Pass --smoke for the CI-sized run (the committed
// baseline is the --smoke shape).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "events/event.h"
#include "fsm/device_library.h"
#include "obs/metrics.h"
#include "runtime/fleet.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "sim/resident.h"
#include "util/json.h"
#include "util/timeofday.h"

namespace {

using namespace jarvis;

runtime::FleetConfig TinyFleetConfig() {
  runtime::FleetConfig config;
  config.tenants = 1;
  config.jobs = 1;
  config.fleet_seed = 2026;
  config.tenant_config.restarts = 1;
  config.tenant_config.trainer.episodes = 2;
  config.tenant_config.trainer.demonstration_episodes = 1;
  config.tenant_config.dqn.hidden_units = {8, 8};
  config.tenant_config.dqn.batch_size = 16;
  config.tenant_config.spl.ann.epochs = 2;
  return config;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Percentile(std::vector<double> sorted_us, double fraction) {
  std::sort(sorted_us.begin(), sorted_us.end());
  const auto index = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(fraction *
                               static_cast<double>(sorted_us.size())));
  return sorted_us[index];
}

struct LatencyOutcome {
  std::size_t sent = 0;
  std::size_t ok = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double total_ms = 0;
};

// One paced request→response loop over a fresh loopback connection.
// Sequential pacing means the queue never fills: every request is admitted
// and answered ok, which is what makes `sent`/`ok` deterministic.
template <typename MakePayload>
LatencyOutcome RunLatencyCase(serve::Server& server, int requests,
                              MakePayload make_payload) {
  serve::LoopbackPair pair = serve::MakeLoopbackPair();
  std::thread serving([&server, &pair] { server.Serve(*pair.server); });

  LatencyOutcome outcome;
  std::vector<double> latencies_us;
  latencies_us.reserve(static_cast<std::size_t>(requests));
  const auto begin = std::chrono::steady_clock::now();
  std::string payload;
  for (int i = 0; i < requests; ++i) {
    ++outcome.sent;
    const auto start = std::chrono::steady_clock::now();
    pair.client->WritePayload(make_payload(i));
    if (pair.client->ReadPayload(&payload) !=
        serve::FramedTransport::ReadResult::kPayload) {
      break;
    }
    latencies_us.push_back(MsSince(start) * 1000.0);
    if (serve::ResponseOk(util::JsonValue::Parse(payload))) ++outcome.ok;
  }
  outcome.total_ms = MsSince(begin);
  pair.client->CloseWrite();
  serving.join();

  if (!latencies_us.empty()) {
    outcome.p50_us = Percentile(latencies_us, 0.50);
    outcome.p99_us = Percentile(latencies_us, 0.99);
    outcome.p999_us = Percentile(latencies_us, 0.999);
  }
  return outcome;
}

util::JsonValue LatencyCaseJson(const char* name,
                                const LatencyOutcome& outcome) {
  util::JsonObject deterministic;
  deterministic["sent"] = static_cast<std::int64_t>(outcome.sent);
  deterministic["ok"] = static_cast<std::int64_t>(outcome.ok);
  util::JsonObject advisory;
  advisory["p50_us"] = outcome.p50_us;
  advisory["p99_us"] = outcome.p99_us;
  advisory["p999_us"] = outcome.p999_us;
  advisory["total_ms"] = outcome.total_ms;
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
  const int pings = smoke ? 300 : 2000;
  const int suggests = smoke ? 120 : 600;
  const int batches = smoke ? 40 : 200;
  const int ingests = smoke ? 120 : 600;

  bench::PrintHeader(
      "Serving daemon: framed request latency + admission overload sweep",
      "serving subsystem (DESIGN.md §15); not a paper figure");
  std::printf("mode: %s\n", smoke ? "smoke" : "full");

  const fsm::EnvironmentFsm home = fsm::BuildFullHome();
  runtime::Fleet fleet(home, TinyFleetConfig());
  runtime::SimulatedWorkloadOptions workload;
  workload.learning_days = 1;
  workload.benign_anomaly_samples = 100;
  fleet.Run(runtime::SimulatedWorkloadFactory(home, workload));
  sim::ResidentSimulator resident(home, sim::ThermalConfig{}, 2026);

  serve::DispatcherOptions options;
  options.default_state = resident.OvernightState();
  serve::Dispatcher dispatcher(fleet, options, nullptr);
  serve::ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  serve::Server server(dispatcher, config, nullptr);

  events::Event event;
  event.date = util::SimTime(480);
  event.device_label = "Hue lamp";
  event.capability = "switch";
  event.attribute = "power";
  event.attribute_value = "on";
  event.command = "on";
  const std::string log_line = event.ToLogLine();

  const LatencyOutcome ping = RunLatencyCase(server, pings, [](int i) {
    return "{\"id\": " + std::to_string(i) + ", \"type\": \"ping\"}";
  });
  const LatencyOutcome suggest =
      RunLatencyCase(server, suggests, [](int i) {
        return "{\"id\": " + std::to_string(i) +
               ", \"type\": \"suggest_action\", \"tenant\": 0, \"minute\": " +
               std::to_string((i * 7) % util::kMinutesPerDay) + "}";
      });
  const int kBatchMinutes = 16;
  const LatencyOutcome batch =
      RunLatencyCase(server, batches, [kBatchMinutes](int i) {
        std::string minutes;
        for (int k = 0; k < kBatchMinutes; ++k) {
          if (!minutes.empty()) minutes += ",";
          minutes += std::to_string((i * kBatchMinutes + k) %
                                    util::kMinutesPerDay);
        }
        return "{\"id\": " + std::to_string(i) +
               ", \"type\": \"suggest_minutes\", \"tenant\": 0, "
               "\"minutes\": [" + minutes + "]}";
      });
  const LatencyOutcome ingest =
      RunLatencyCase(server, ingests, [&log_line](int i) {
        util::JsonArray lines;
        for (int k = 0; k < 4; ++k) lines.emplace_back(log_line);
        util::JsonObject request;
        request["id"] = static_cast<std::int64_t>(i);
        request["type"] = "ingest";
        request["tenant"] = 0;
        request["lines"] = util::JsonValue(std::move(lines));
        return util::JsonValue(std::move(request)).Dump();
      });

  // Overload sweep: one worker parked on a stall + a burst far beyond the
  // queue makes admission arithmetic exact — queue_capacity admitted on
  // top of the stall, everything else explicitly rejected.
  serve::DispatcherOptions sweep_options;
  sweep_options.default_state = resident.OvernightState();
  sweep_options.allow_stall = true;
  serve::Dispatcher sweep_dispatcher(fleet, sweep_options, nullptr);
  serve::ServerConfig sweep_config;
  sweep_config.workers = 1;
  sweep_config.queue_capacity = 4;
  obs::Registry sweep_registry;
  serve::Server sweep_server(sweep_dispatcher, sweep_config, &sweep_registry);

  serve::LoopbackPair pair = serve::MakeLoopbackPair();
  serve::ConnectionStats sweep_stats;
  std::thread serving(
      [&] { sweep_stats = sweep_server.Serve(*pair.server); });
  const auto sweep_begin = std::chrono::steady_clock::now();
  pair.client->WritePayload(R"({"id": 0, "type": "stall"})");
  while (sweep_dispatcher.stalled_now() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int kBurst = 32;
  for (int id = 1; id <= kBurst; ++id) {
    pair.client->WritePayload("{\"id\": " + std::to_string(id) +
                              ", \"type\": \"ping\"}");
  }
  pair.client->CloseWrite();
  // Release the stall only once the server has decided every frame:
  // released early, the worker drains the queue mid-burst and admits more
  // than the stall plus queue_capacity.
  const obs::Counter* accepted = sweep_registry.GetCounter("serve.accepted");
  const obs::Counter* rejected =
      sweep_registry.GetCounter("serve.rejected_overload");
  while (accepted->Value() + rejected->Value() <
         static_cast<std::uint64_t>(kBurst) + 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sweep_dispatcher.ReleaseStalls();
  serving.join();
  const double sweep_ms = MsSince(sweep_begin);
  pair.server->CloseWrite();

  std::size_t sweep_ok = 0, sweep_overloaded = 0, sweep_answered = 0;
  {
    std::string payload;
    for (;;) {
      const auto result = pair.client->ReadPayload(&payload);
      if (result == serve::FramedTransport::ReadResult::kClosed) break;
      if (result != serve::FramedTransport::ReadResult::kPayload) continue;
      ++sweep_answered;
      const util::JsonValue response = util::JsonValue::Parse(payload);
      if (serve::ResponseOk(response)) {
        ++sweep_ok;
      } else if (response.At("error").AsString() == serve::kErrOverloaded) {
        ++sweep_overloaded;
      }
    }
  }

  std::printf("%-22s %8s %8s %10s %10s %10s\n", "case", "sent", "ok",
              "p50 us", "p99 us", "p99.9 us");
  const auto row = [](const char* name, const LatencyOutcome& outcome) {
    std::printf("%-22s %8zu %8zu %10.1f %10.1f %10.1f\n", name,
                outcome.sent, outcome.ok, outcome.p50_us, outcome.p99_us,
                outcome.p999_us);
  };
  row("ping", ping);
  row("suggest_action", suggest);
  row("suggest_minutes_x16", batch);
  row("ingest_x4", ingest);
  std::printf("overload sweep: burst %d -> accepted %zu, rejected %zu, "
              "answered %zu (%.1f ms)\n",
              kBurst, sweep_stats.accepted, sweep_stats.rejected_overload,
              sweep_answered, sweep_ms);

  util::JsonObject sweep_det;
  sweep_det["burst"] = static_cast<std::int64_t>(kBurst);
  sweep_det["accepted"] = static_cast<std::int64_t>(sweep_stats.accepted);
  sweep_det["rejected_overload"] =
      static_cast<std::int64_t>(sweep_stats.rejected_overload);
  sweep_det["responses_ok"] = static_cast<std::int64_t>(sweep_ok);
  sweep_det["responses_overloaded"] =
      static_cast<std::int64_t>(sweep_overloaded);
  sweep_det["answered"] = static_cast<std::int64_t>(sweep_answered);
  util::JsonObject sweep_adv;
  sweep_adv["sweep_ms"] = sweep_ms;
  util::JsonObject sweep_case;
  sweep_case["name"] = "overload_sweep";
  sweep_case["deterministic"] = util::JsonValue(std::move(sweep_det));
  sweep_case["advisory"] = util::JsonValue(std::move(sweep_adv));

  util::JsonArray cases;
  cases.push_back(LatencyCaseJson("latency_ping", ping));
  cases.push_back(LatencyCaseJson("latency_suggest_action", suggest));
  cases.push_back(LatencyCaseJson("latency_suggest_minutes", batch));
  cases.push_back(LatencyCaseJson("latency_ingest", ingest));
  cases.push_back(util::JsonValue(std::move(sweep_case)));
  util::JsonObject doc;
  doc["bench"] = "serve";
  doc["smoke"] = smoke;
  doc["machine"] = bench::MachineJson();
  doc["cases"] = util::JsonValue(std::move(cases));
  std::ofstream out("BENCH_serve.json");
  out << util::JsonValue(std::move(doc)).Dump(2) << "\n";
  std::printf("wrote BENCH_serve.json\n");

  // Every paced request answered ok; the sweep admitted exactly the stall
  // plus a full queue and answered the entire burst one way or the other.
  const bool healthy =
      ping.ok == ping.sent && suggest.ok == suggest.sent &&
      batch.ok == batch.sent && ingest.ok == ingest.sent &&
      sweep_stats.accepted == 1 + sweep_config.queue_capacity &&
      sweep_answered == static_cast<std::size_t>(kBurst) + 1 &&
      sweep_ok == sweep_stats.accepted &&
      sweep_overloaded == sweep_stats.rejected_overload;
  return healthy ? 0 : 1;
}
