// Replay-speed benchmark: capture one online run of EP (all CPU bursts
// executed for real) and of DT, then re-simulate each trace offline, and
// compare wall-clock costs. The offline replay skips the application code,
// its memory, and every payload copy, so it must beat the online capture by
// a solid margin — the acceptance bar is >= 2x at 64 ranks, gated by
// tools/bench_trend.py on BENCH_replay.json.
//
//   BENCH_replay.json records:
//     replay_online_capture  n=<ranks>  wall_ns of the captured online run
//     replay_offline         n=<ranks>  wall_ns of replaying its trace
//     trace_load             n=256      wall_ns of load_ti_trace on a
//                                       generated 256-rank stencil2d trace
//                                       (best of 3; ~0.25 us/record)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "apps/dt.hpp"
#include "apps/ep.hpp"
#include "bench_json.hpp"
#include "platform/builders.hpp"
#include "smpi/smpi.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "util/json.hpp"
#include "workload/generate.hpp"
#include "workload/spec.hpp"

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

struct Sample {
  double online_wall = 0;
  double replay_wall = 0;
  double online_time = 0;
  double replay_time = 0;
  long long records = 0;
};

Sample measure(const smpi::platform::Platform& platform, int nprocs,
               const smpi::core::MpiMain& app, const std::string& dir) {
  std::filesystem::remove_all(dir);
  Sample sample;
  smpi::core::SmpiConfig config;
  sample.online_wall = wall_seconds([&] {
    smpi::trace::TiWriter writer(dir, nprocs, "bench");
    smpi::core::SmpiWorld world(platform, config, {&writer});
    world.run(nprocs, app);
    sample.online_time = world.simulated_time();
  });
  sample.replay_wall = wall_seconds([&] {
    const auto result = smpi::trace::replay_trace(platform, config, dir);
    sample.replay_time = result.simulated_time;
    sample.records = result.records;
  });
  std::filesystem::remove_all(dir);
  return sample;
}

// Writes a generated stencil2d trace to `dir` and times load_ti_trace on it,
// best of three, so the TI text parse has a gate of its own.
double measure_trace_load(int ranks, const std::string& dir, long long* records) {
  std::filesystem::remove_all(dir);
  const auto doc = smpi::util::parse_json(R"({
    "name": "bench-trace-load",
    "ranks": )" + std::to_string(ranks) + R"(,
    "seed": 1,
    "pattern": "stencil2d",
    "iterations": 100,
    "bytes": 16384,
    "compute": {"flops": 2e6, "imbalance": 0.1, "jitter": 0.05}
  })",
                                          "bench trace_load");
  smpi::workload::write_workload(smpi::workload::WorkloadSpec::parse(doc), dir);
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    smpi::trace::TiTrace trace;
    const double wall = wall_seconds([&] { trace = smpi::trace::load_ti_trace(dir); });
    if (rep == 0 || wall < best) best = wall;
    *records = trace.total_records();
  }
  std::filesystem::remove_all(dir);
  return best;
}

}  // namespace

void report(bench::JsonWriter& json, const char* label, const char* op_prefix, int ranks,
            const Sample& sample) {
  const double speedup = sample.online_wall / sample.replay_wall;
  const double drift =
      sample.online_time > 0
          ? std::abs(sample.replay_time - sample.online_time) / sample.online_time
          : 0;
  std::printf("%-8s %6d %10.1fms %10.1fms %8.1fx %13.2e\n", label, ranks,
              sample.online_wall * 1e3, sample.replay_wall * 1e3, speedup, drift);
  json.add(std::string(op_prefix) + "online_capture", ranks, sample.online_wall * 1e9);
  json.add(std::string(op_prefix) + "offline", ranks, sample.replay_wall * 1e9);
}

int main() {
  bench::JsonWriter json("BENCH_replay.json");
  std::printf("%-8s %6s %12s %12s %9s %14s\n", "app", "ranks", "online-wall", "replay-wall",
              "speedup", "time-drift");

  for (int ranks : {16, 64}) {
    smpi::platform::FlatClusterParams params;
    params.nodes = ranks;
    auto platform = smpi::platform::build_flat_cluster(params);

    smpi::apps::EpParams ep;
    ep.log2_pairs = 20;  // every burst executes: the online run pays real CPU
    report(json, "ep", "replay_", ranks,
           measure(platform, ranks, smpi::apps::make_ep_app(ep), "bench_replay_ti"));
  }

  {
    // DT: communication-heavy (feature streams), class A white hole.
    smpi::apps::DtParams dt;
    dt.cls = smpi::apps::DtClass::kA;
    dt.graph = smpi::apps::DtGraph::kWhiteHole;
    const int ranks = smpi::apps::dt_process_count(dt.graph, dt.cls);
    smpi::platform::FlatClusterParams params;
    params.nodes = ranks;
    auto platform = smpi::platform::build_flat_cluster(params);
    report(json, "dt-A-WH", "replay_dt_", ranks,
           measure(platform, ranks, smpi::apps::make_dt_app(dt), "bench_replay_ti"));
  }

  {
    const int ranks = 256;
    long long records = 0;
    const double wall = measure_trace_load(ranks, "bench_replay_load", &records);
    std::printf("\ntrace_load %d ranks: %lld records in %.1fms (%.3f us/record)\n", ranks, records,
                wall * 1e3, wall * 1e6 / static_cast<double>(records));
    json.add("trace_load", ranks, wall * 1e9);
  }

  json.save();
  return 0;
}
