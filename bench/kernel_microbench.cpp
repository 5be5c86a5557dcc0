// Micro-costs of the simulation kernel (google-benchmark): the pieces whose
// speed makes single-node on-line simulation viable — context switches, the
// max-min solver, the event loop, piece-wise lookup, platform construction.
// These back the §5.1 design argument (sequential kernel + analytical models
// => fast and scalable).
//
// Besides the google-benchmark tables, main() emits BENCH_solver.json with
// the solver churn trajectory: lazy vs full on a backbone fabric, and lazy
// on saturated cabinet links (see bench_json.hpp).
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "bench_json.hpp"
#include "platform/builders.hpp"
#include "platform/platform_xml.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "surf/maxmin.hpp"
#include "surf/piecewise.hpp"
#include "util/rng.hpp"

namespace {

void BM_ContextSwitch(benchmark::State& state,
                      std::unique_ptr<smpi::sim::ContextFactory> (*make)(std::size_t)) {
  auto factory = make(64 * 1024);
  smpi::sim::Context* self = nullptr;
  bool stop = false;
  auto ctx = factory->create([&] {
    while (!stop) self->suspend();
  });
  self = ctx.get();
  for (auto _ : state) {
    ctx->resume();  // one round-trip = 2 context switches
  }
  stop = true;
  ctx->resume();
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK_CAPTURE(BM_ContextSwitch, raw, &smpi::sim::ContextFactory::make);
BENCHMARK_CAPTURE(BM_ContextSwitch, ucontext, &smpi::sim::ContextFactory::make_ucontext);

void BM_MaxMinSolve(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  smpi::util::Xoshiro256StarStar rng(42);
  smpi::surf::MaxMinSystem sys;
  const int links = 64;
  std::vector<int> constraints;
  for (int c = 0; c < links; ++c) constraints.push_back(sys.new_constraint(1e8));
  std::vector<int> vars;
  for (int f = 0; f < flows; ++f) {
    const int v = sys.new_variable(1.0, 1.25e8);
    // 3-hop routes over random links.
    for (int k = 0; k < 3; ++k) {
      sys.attach(v, constraints[rng.next_in_range(0, links - 1)]);
    }
    vars.push_back(v);
  }
  int toggle = 0;
  for (auto _ : state) {
    // Perturb one bound to dirty the system, then re-solve — the pattern a
    // flow arrival/departure produces.
    sys.set_bound(vars[static_cast<std::size_t>(toggle % flows)], 1e8 + toggle % 7);
    ++toggle;
    sys.solve();
    benchmark::DoNotOptimize(sys.value(vars[0]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MaxMinSolve)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// The engine hot path under MPI traffic: one flow finishes, another starts,
// the solver re-solves. Links are modeled as per-node up/down pairs plus a
// shared fabric, in one of two shapes:
//
//   kBackbone — a generously-provisioned backbone every flow crosses, the
//     cluster-with-a-switch-fabric shape. The backbone welds the whole
//     system into ONE connected component, so a per-component re-solve
//     would redo everything on every churn, as the full reference does,
//     while the lazy modified-set path stops at the unsaturated backbone
//     and re-solves only the flows whose allocation can actually move.
//   kCabinets — the nodes sit in four cabinets, each behind an uplink and a
//     downlink of two node links' capacity, which the inter-cabinet flows
//     saturate (the hierarchical gdx shape). A churn then re-fills against
//     saturated boundaries with many out-of-set members: at 1024 flows each
//     cabinet link carries about 190 of them.
enum class Fabric { kBackbone, kCabinets };

struct ChurnWorkload {
  static constexpr int kCabinets = 4;

  ChurnWorkload(int flows, smpi::surf::SolveMode mode, Fabric fabric)
      : rng(42), nodes(flows), fabric(fabric) {
    sys.set_mode(mode);
    if (fabric == Fabric::kBackbone) {
      backbone = sys.new_constraint(static_cast<double>(flows) * 2e8);
    } else {
      for (int c = 0; c < 2 * kCabinets; ++c) cabinet_links.push_back(sys.new_constraint(2e8));
    }
    for (int n = 0; n < 2 * nodes; ++n) links.push_back(sys.new_constraint(1e8));
    for (int f = 0; f < flows; ++f) active.push_back(make_flow());
    sys.solve();
  }

  int make_flow() {
    const int src = static_cast<int>(rng.next_in_range(0, static_cast<std::uint64_t>(nodes) - 1));
    int dst = src;
    while (dst == src) {
      dst = static_cast<int>(rng.next_in_range(0, static_cast<std::uint64_t>(nodes) - 1));
    }
    const int v = sys.new_variable(1.0, 1.25e8);
    sys.attach(v, links[static_cast<std::size_t>(2 * src)]);      // src uplink
    sys.attach(v, links[static_cast<std::size_t>(2 * dst + 1)]);  // dst downlink
    if (fabric == Fabric::kBackbone) {
      sys.attach(v, backbone);  // shared fabric
    } else {
      const int src_cabinet = src * kCabinets / nodes;
      const int dst_cabinet = dst * kCabinets / nodes;
      if (src_cabinet != dst_cabinet) {
        sys.attach(v, cabinet_links[static_cast<std::size_t>(2 * src_cabinet)]);
        sys.attach(v, cabinet_links[static_cast<std::size_t>(2 * dst_cabinet + 1)]);
      }
    }
    return v;
  }

  void churn() {
    const auto idx = static_cast<std::size_t>(rng.next_in_range(0, active.size() - 1));
    sys.release_variable(active[idx]);
    active[idx] = make_flow();
    sys.solve();
  }

  smpi::util::Xoshiro256StarStar rng;
  int nodes;
  Fabric fabric;
  smpi::surf::MaxMinSystem sys;
  int backbone = -1;
  std::vector<int> cabinet_links;
  std::vector<int> links;
  std::vector<int> active;
};

void BM_MaxMinChurn(benchmark::State& state, smpi::surf::SolveMode mode, Fabric fabric) {
  ChurnWorkload workload(static_cast<int>(state.range(0)), mode, fabric);
  for (auto _ : state) {
    workload.churn();
    benchmark::DoNotOptimize(workload.sys.value(workload.active[0]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_MaxMinChurn, lazy, smpi::surf::SolveMode::kLazy, Fabric::kBackbone)
    ->Arg(16)->Arg(128)->Arg(1024);
BENCHMARK_CAPTURE(BM_MaxMinChurn, full, smpi::surf::SolveMode::kFull, Fabric::kBackbone)
    ->Arg(16)->Arg(128)->Arg(1024);
BENCHMARK_CAPTURE(BM_MaxMinChurn, contended, smpi::surf::SolveMode::kLazy, Fabric::kCabinets)
    ->Arg(64)->Arg(256)->Arg(1024);

void BM_EngineTimerChurn(benchmark::State& state) {
  for (auto _ : state) {
    smpi::sim::Engine engine;
    engine.spawn("a", 0, [&engine] {
      for (int i = 0; i < 1000; ++i) engine.sleep_for(0.001);
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineTimerChurn);

void BM_PiecewiseLookup(benchmark::State& state) {
  smpi::surf::PiecewiseFactors factors(
      {{1500.0, 10.0, 1.2}, {65536.0, 4.0, 0.9}, {std::numeric_limits<double>::infinity(), 2.0, 0.92}});
  double size = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(factors.bw_factor(size));
    size = size > 1e7 ? 1 : size * 1.7;
  }
}
BENCHMARK(BM_PiecewiseLookup);

void BM_BuildGriffon(benchmark::State& state) {
  for (auto _ : state) {
    auto platform = smpi::platform::build_griffon();
    benchmark::DoNotOptimize(platform.host_count());
  }
}
BENCHMARK(BM_BuildGriffon);

void BM_XmlParsePlatform(benchmark::State& state) {
  const std::string doc = R"(<platform version="4">
    <cluster id="c" prefix="node-" radical="0-63" speed="10Gf" cores="8"
             bw="1Gbps" lat="50us"/>
  </platform>)";
  for (auto _ : state) {
    auto platform = smpi::platform::load_platform_from_string(doc);
    benchmark::DoNotOptimize(platform.host_count());
  }
}
BENCHMARK(BM_XmlParsePlatform);

// Perf-trajectory artifact: ns per churn op (flow departure + arrival +
// re-solve) for both solver paths on the backbone fabric, and for the lazy
// path on saturated cabinet links, across concurrent flow counts.
void write_solver_trajectory() {
  struct Series {
    const char* name;
    smpi::surf::SolveMode mode;
    Fabric fabric;
    std::vector<int> flows;
  };
  const Series series[] = {
      {"solver_churn_lazy", smpi::surf::SolveMode::kLazy, Fabric::kBackbone,
       {16, 64, 128, 256, 512, 1024}},
      {"solver_churn_full", smpi::surf::SolveMode::kFull, Fabric::kBackbone,
       {16, 64, 128, 256, 512, 1024}},
      {"solver_churn_contended", smpi::surf::SolveMode::kLazy, Fabric::kCabinets,
       {64, 256, 1024}},
  };
  bench::JsonWriter writer("BENCH_solver.json");
  for (const auto& s : series) {
    for (const int flows : s.flows) {
      ChurnWorkload workload(flows, s.mode, s.fabric);
      const int warmup = 32;
      for (int i = 0; i < warmup; ++i) workload.churn();
      const int iterations = 256;
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < iterations; ++i) workload.churn();
      const auto elapsed = std::chrono::steady_clock::now() - start;
      const double ns_per_op =
          std::chrono::duration<double, std::nano>(elapsed).count() / iterations;
      writer.add(s.name, flows, ns_per_op);
    }
  }
  writer.save();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_solver_trajectory();
  return 0;
}
