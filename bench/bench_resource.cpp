// Resource-observability overhead benchmark: replay the same trace with the
// ResourceCollector detached and attached and record both wall clocks, for
// two series:
//   - stencil: a generated stencil workload on a two-cabinet hierarchical
//     cluster at 64 and 256 ranks. Nearly every snapshot stores a real
//     timeline step (~34.9k steps from 37k snapshots at 256 ranks).
//   - alltoall: the campaign sweep's 64-rank alltoall on gdx, where every
//     attach or release changes every share on a saturated uplink
//     (~76k snapshots).
// tools/bench_trend.py gates each ratio machine-independently: stencil
// enabled <= 1.4x disabled, alltoall enabled <= 1.75x disabled. Measured on
// a shared 4-core x86-64 host over repeated runs: stencil 1.09-1.57x (median ~1.35x),
// alltoall 1.15-1.53x (median ~1.4x; 1.85-2.28x when every saturated
// interval stored a sorted copy of its shares). The gates catch regressions
// (allocation storms, per-interval copies, quadratic folds); they do not
// pretend the ledger is free.
//
//   BENCH_resource.json records:
//     resource_disabled           n=<ranks>  wall_ns of the plain stencil replay
//     resource_enabled            n=<ranks>  wall_ns with the collector attached
//     resource_alltoall_disabled  n=64       wall_ns of the plain alltoall replay
//     resource_alltoall_enabled   n=64       wall_ns with the collector attached
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>

#include "bench_json.hpp"
#include "obs/resource.hpp"
#include "platform/builders.hpp"
#include "smpi/smpi.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "workload/generate.hpp"
#include "workload/spec.hpp"

namespace {

double wall_seconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

smpi::trace::TiTrace stencil_trace(int ranks) {
  smpi::workload::WorkloadSpec spec;
  spec.name = "bench-resource";
  spec.ranks = ranks;
  spec.seed = 42;
  smpi::workload::PhaseSpec phase;
  phase.pattern = smpi::workload::Pattern::kStencil2d;
  phase.iterations = 8;
  phase.bytes = {16384};
  phase.compute.flops = 1e5;
  phase.compute.imbalance = 0.2;
  spec.phases.push_back(phase);
  return smpi::workload::generate_workload(spec);
}

// The perfbench contention_campaign unit without its bandwidth noise: one
// 64-rank alltoall whose cross-cabinet traffic shares gdx's switch uplinks,
// so every attach or release changes every share on a saturated link.
smpi::trace::TiTrace alltoall_trace(int ranks) {
  smpi::workload::WorkloadSpec spec;
  spec.name = "bench-resource-alltoall";
  spec.ranks = ranks;
  spec.seed = 1;
  smpi::workload::PhaseSpec phase;
  phase.pattern = smpi::workload::Pattern::kAlltoall;
  phase.iterations = 1;
  phase.bytes = {16384};
  phase.compute.flops = 1e6;
  phase.compute.imbalance = 0.1;
  phase.compute.jitter = 0.05;
  spec.phases.push_back(phase);
  return smpi::workload::generate_workload(spec);
}

smpi::platform::Platform cluster(int nodes) {
  // Hierarchical: cross-cabinet traffic funnels through shared uplinks, so
  // the solver works on real multi-link contention sets — the scenario the
  // bottleneck ledger exists for, and the representative cost baseline.
  smpi::platform::HierarchicalClusterParams params;
  params.cabinet_sizes = {nodes / 2, nodes / 2};
  return smpi::platform::build_hierarchical_cluster(params);
}

// Replays `trace` with the collector detached and attached, best of three
// each, prints one table row and records both wall clocks under `op_prefix`.
void measure(bench::JsonWriter& json, const char* label, const std::string& op_prefix,
             const smpi::platform::Platform& platform, const smpi::trace::TiTrace& trace) {
  const smpi::core::SmpiConfig config;
  // Warm-up replay so page faults and allocator growth don't land on the
  // first measured run.
  smpi::trace::replay_trace(platform, config, trace);

  // Best of three per mode: one replay is short enough that scheduler
  // noise would otherwise dominate the ratio the trend gate checks.
  long long records = 0;
  int ranks = 0;
  double disabled = 0;
  double enabled = 0;
  std::size_t snapshots = 0;
  for (int run = 0; run < 3; ++run) {
    const double plain = wall_seconds([&] {
      const auto result = smpi::trace::replay_trace(platform, config, trace);
      records = result.records;
      ranks = result.ranks;
    });
    if (run == 0 || plain < disabled) disabled = plain;
    smpi::obs::ResourceCollector resources;
    smpi::trace::ReplayOptions options;
    options.resources = &resources;
    const double observed = wall_seconds([&] {
      smpi::trace::replay_trace(platform, config, trace, options);
    });
    if (run == 0 || observed < enabled) enabled = observed;
    snapshots = resources.snapshot_count();
  }

  std::printf("%-10s %6d %8lld %12.2fms %12.2fms %9.3fx %12zu\n", label, ranks, records,
              disabled * 1e3, enabled * 1e3, enabled / disabled, snapshots);
  json.add(op_prefix + "_disabled", ranks, disabled * 1e9);
  json.add(op_prefix + "_enabled", ranks, enabled * 1e9);
}

}  // namespace

int main() {
  bench::JsonWriter json("BENCH_resource.json");
  std::printf("%-10s %6s %8s %14s %14s %10s %12s\n", "workload", "ranks", "records",
              "disabled", "enabled", "overhead", "snapshots");
  for (int ranks : {64, 256}) {
    measure(json, "stencil", "resource", cluster(ranks), stencil_trace(ranks));
  }
  measure(json, "alltoall", "resource_alltoall", smpi::platform::build_gdx(),
          alltoall_trace(64));
  return json.save() ? 0 : 1;
}
