// Workload generator tests: spec parsing contracts, per-seed bit-exact
// determinism (in memory and on disk), replayability of every pattern, the
// generated-stencil-vs-handwritten-online-app equivalence (simulated times
// within 1e-9), workload axes inside campaigns, and scale (a 1024-rank
// stencil generates and replays end-to-end).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "platform/builders.hpp"
#include "smpi/mpi.h"
#include "smpi/smpi.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "workload/generate.hpp"
#include "workload/patterns.hpp"
#include "workload/spec.hpp"

namespace fs = std::filesystem;
namespace wl = smpi::workload;
namespace tr = smpi::trace;
using smpi::util::ContractError;
using smpi::util::parse_json;

namespace {

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("smpi_workload_test_" + std::to_string(::getpid()) + "_" + std::to_string(counter++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

wl::WorkloadSpec parse_spec(const std::string& json) {
  return wl::WorkloadSpec::parse(parse_json(json, "test workload"));
}

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The whole trace as one string (record text per rank), for bit-exact
// comparisons between independently generated traces.
std::string trace_text(const tr::TiTrace& trace) {
  std::string text;
  for (const auto& records : trace.ranks) {
    for (const auto& record : records) {
      text += tr::serialize_record(record);
      text += '\n';
    }
    text += "--\n";
  }
  return text;
}

tr::ReplayResult replay_on_cluster(const tr::TiTrace& trace) {
  smpi::platform::FlatClusterParams params;
  params.nodes = trace.nranks;
  auto platform = smpi::platform::build_flat_cluster(params);
  return tr::replay_trace(platform, smpi::core::SmpiConfig{}, trace, {});
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(WorkloadSpec, ParsesShorthandAndPhases) {
  const auto shorthand = parse_spec(R"({
    "name": "s", "ranks": 16, "seed": 9,
    "pattern": "stencil2d", "iterations": 4, "bytes": 2048,
    "compute": {"flops": 1e6, "imbalance": 0.25, "jitter": 0.1}
  })");
  ASSERT_EQ(shorthand.phases.size(), 1u);
  EXPECT_EQ(shorthand.ranks, 16);
  EXPECT_EQ(shorthand.seed, 9u);
  EXPECT_EQ(shorthand.phases[0].pattern, wl::Pattern::kStencil2d);
  EXPECT_EQ(shorthand.phases[0].iterations, 4);
  EXPECT_EQ(shorthand.phases[0].bytes_at(0), 2048);
  EXPECT_DOUBLE_EQ(shorthand.phases[0].compute.flops, 1e6);
  EXPECT_DOUBLE_EQ(shorthand.phases[0].compute.imbalance, 0.25);

  const auto phased = parse_spec(R"({
    "ranks": 8,
    "phases": [
      {"pattern": "ring", "bytes": [64, 128, 256]},
      {"pattern": "reduce_bcast", "root": 3, "commutative": false}
    ]
  })");
  ASSERT_EQ(phased.phases.size(), 2u);
  EXPECT_EQ(phased.phases[0].pattern, wl::Pattern::kRing);
  EXPECT_EQ(phased.phases[0].bytes_at(1), 128);
  EXPECT_EQ(phased.phases[0].bytes_at(3), 64);  // schedule cycles
  EXPECT_EQ(phased.phases[1].root, 3);
  EXPECT_FALSE(phased.phases[1].commutative);
}

TEST(WorkloadSpec, RejectsContractViolations) {
  EXPECT_THROW(parse_spec(R"({"ranks": 4, "pattern": "warp_drive"})"), ContractError);
  EXPECT_THROW(parse_spec(R"({"pattern": "ring"})"), ContractError);  // no ranks
  EXPECT_THROW(parse_spec(R"({"ranks": 0, "pattern": "ring"})"), ContractError);
  // Grid must tile the rank count, and must be given whole.
  EXPECT_THROW(parse_spec(R"({"ranks": 16, "pattern": "stencil2d", "px": 3, "py": 4})"),
               ContractError);
  EXPECT_THROW(parse_spec(R"({"ranks": 16, "pattern": "stencil2d", "px": 4})"), ContractError);
  EXPECT_THROW(parse_spec(R"({"ranks": 8, "pattern": "stencil3d", "px": 2, "py": 4})"),
               ContractError);
  // Non-grid patterns must not take one.
  EXPECT_THROW(parse_spec(R"({"ranks": 16, "pattern": "ring", "px": 4, "py": 4})"),
               ContractError);
  EXPECT_THROW(parse_spec(R"({"ranks": 4, "pattern": "random_sparse", "degree": 4})"),
               ContractError);
  EXPECT_THROW(parse_spec(R"({"ranks": 4, "pattern": "reduce_bcast", "root": 4})"),
               ContractError);
  EXPECT_THROW(
      parse_spec(R"({"ranks": 4, "pattern": "ring", "compute": {"flops": 1, "imbalance": 1}})"),
      ContractError);
  // 1e400 parses as inf; 5e307 is finite but its perturbed draws may not be.
  EXPECT_THROW(parse_spec(R"({"ranks": 4, "pattern": "ring", "compute": {"flops": 1e400}})"),
               ContractError);
  EXPECT_THROW(parse_spec(R"({"ranks": 4, "pattern": "ring", "compute": {"flops": 5e307}})"),
               ContractError);
}

TEST(WorkloadSpec, FactorsGridsNearSquare) {
  int px = 0, py = 0, pz = 0;
  wl::factor_grid_2d(1024, &px, &py);
  EXPECT_EQ(px, 32);
  EXPECT_EQ(py, 32);
  wl::factor_grid_2d(12, &px, &py);
  EXPECT_EQ(px, 3);
  EXPECT_EQ(py, 4);
  wl::factor_grid_2d(7, &px, &py);  // prime degenerates to a line
  EXPECT_EQ(px, 1);
  EXPECT_EQ(py, 7);
  wl::factor_grid_3d(64, &px, &py, &pz);
  EXPECT_EQ(px * py * pz, 64);
  EXPECT_EQ(px, 4);
  EXPECT_EQ(py, 4);
  EXPECT_EQ(pz, 4);
  wl::factor_grid_3d(30, &px, &py, &pz);
  EXPECT_EQ(px * py * pz, 30);
  EXPECT_LE(px, py);
  EXPECT_LE(py, pz);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(WorkloadGenerate, BitIdenticalAcrossRunsAndOutputPaths) {
  const char* json = R"({
    "name": "det", "ranks": 12, "seed": 31,
    "phases": [
      {"pattern": "stencil2d", "iterations": 3, "bytes": [512, 4096],
       "compute": {"flops": 2e6, "imbalance": 0.4, "jitter": 0.2}},
      {"pattern": "random_sparse", "iterations": 2, "degree": 4, "bytes": 256,
       "compute": {"flops": 1e5, "jitter": 0.3}},
      {"pattern": "alltoall", "bytes": 1024}
    ]
  })";
  const auto spec = parse_spec(json);
  const tr::TiTrace a = wl::generate_workload(spec);
  const tr::TiTrace b = wl::generate_workload(parse_spec(json));
  EXPECT_EQ(trace_text(a), trace_text(b));

  // On-disk determinism, and the --out path writes exactly the in-memory
  // records: write the pre-generated trace and the spec-generated one and
  // compare every file byte for byte.
  TempDir dir_a, dir_b;
  wl::write_trace(a, dir_a.str());
  wl::write_workload(spec, dir_b.str());
  for (int rank = 0; rank < spec.ranks; ++rank) {
    const std::string name = "rank_" + std::to_string(rank) + ".ti";
    EXPECT_EQ(file_bytes(dir_a.path / name), file_bytes(dir_b.path / name)) << name;
  }
  EXPECT_EQ(file_bytes(dir_a.path / "manifest.txt"), file_bytes(dir_b.path / "manifest.txt"));

  // A written trace loads back to the same records the generator produced.
  const tr::TiTrace loaded = tr::load_ti_trace(dir_a.str());
  EXPECT_EQ(trace_text(loaded), trace_text(a));

  // A different seed must actually change something (the imbalance draws).
  auto reseeded = spec;
  reseeded.seed = 32;
  EXPECT_NE(trace_text(wl::generate_workload(reseeded)), trace_text(a));
}

// The largest accepted flops, perturbed by the widest imbalance and jitter,
// still writes a trace the reader takes back record for record.
TEST(WorkloadGenerate, LargestFlopsRoundTripsThroughTheTraceReader) {
  char json[256];
  std::snprintf(json, sizeof(json),
                R"({"ranks": 6, "pattern": "ring", "iterations": 8, "bytes": 64, "seed": 5,
                    "compute": {"flops": %.17g, "imbalance": 0.999, "jitter": 0.999}})",
                std::numeric_limits<double>::max() / 4);
  const auto spec = parse_spec(json);
  const tr::TiTrace generated = wl::generate_workload(spec);
  TempDir dir;
  wl::write_trace(generated, dir.str());
  const tr::TiTrace loaded = tr::load_ti_trace(dir.str());
  EXPECT_EQ(trace_text(loaded), trace_text(generated));
  int computes = 0;
  double hi = 0;
  for (const auto& records : loaded.ranks) {
    for (const auto& r : records) {
      if (r.op != tr::TiOp::kCompute) continue;
      ++computes;
      EXPECT_TRUE(std::isfinite(r.value));
      hi = std::max(hi, r.value);
    }
  }
  EXPECT_EQ(computes, 6 * 8);
  EXPECT_GT(hi, std::numeric_limits<double>::max() / 4);  // the draws did widen it
}

TEST(WorkloadGenerate, ImbalanceSpreadsComputeAcrossRanks) {
  const auto spec = parse_spec(R"({
    "ranks": 8, "pattern": "ring", "bytes": 64,
    "compute": {"flops": 1e6, "imbalance": 0.5}
  })");
  const tr::TiTrace trace = wl::generate_workload(spec);
  double lo = 1e300, hi = 0;
  for (const auto& records : trace.ranks) {
    for (const auto& r : records) {
      if (r.op != tr::TiOp::kCompute) continue;
      lo = std::min(lo, r.value);
      hi = std::max(hi, r.value);
      EXPECT_GE(r.value, 0.5e6);
      EXPECT_LE(r.value, 1.5e6);
    }
  }
  EXPECT_LT(lo, hi);  // eight draws from a 50% half-width cannot all collide
}

// ---------------------------------------------------------------------------
// Replayability
// ---------------------------------------------------------------------------

TEST(WorkloadReplay, EveryPatternReplaysEndToEnd) {
  for (const auto& pattern : wl::pattern_names()) {
    const auto spec = parse_spec(R"({
      "name": ")" + pattern + R"(", "ranks": 12, "seed": 5,
      "pattern": ")" + pattern + R"(",
      "iterations": 2, "bytes": 1024, "compute": {"flops": 1e5, "imbalance": 0.2}
    })");
    const tr::TiTrace trace = wl::generate_workload(spec);
    const tr::ReplayResult result = replay_on_cluster(trace);
    EXPECT_GT(result.simulated_time, 0) << pattern;
    EXPECT_EQ(result.records, trace.total_records()) << pattern;
    EXPECT_EQ(result.ranks, 12) << pattern;
  }
}

// The generator's core promise: a generated pattern is indistinguishable
// from the same pattern written as a real MPI application. The hand-written
// stencil below mirrors the documented emission order (receives first,
// sends second, waitall over receives then sends), and its online simulated
// time must match the generated trace's replay to 1e-9.
TEST(WorkloadReplay, GeneratedStencil2dMatchesHandwrittenOnlineApp) {
  const int ranks = 12;
  const int iterations = 3;
  const int bytes = 8192;
  const double flops = 1e6;

  int px = 0, py = 0;
  wl::factor_grid_2d(ranks, &px, &py);
  auto app = [=](int, char**) {
    MPI_Init(nullptr, nullptr);
    int rank = 0;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    const int x = rank % px;
    const int y = rank / px;
    // Neighbour per direction (2*axis, 2*axis+1) = (minus, plus); -1 = edge.
    const int neighbor[4] = {
        x > 0 ? rank - 1 : -1,
        x < px - 1 ? rank + 1 : -1,
        y > 0 ? rank - px : -1,
        y < py - 1 ? rank + px : -1,
    };
    std::vector<char> halo(static_cast<std::size_t>(bytes));
    for (int iter = 0; iter < iterations; ++iter) {
      smpi_execute_flops(flops);
      std::vector<MPI_Request> requests;
      for (int d = 0; d < 4; ++d) {
        if (neighbor[d] < 0) continue;
        MPI_Request req = MPI_REQUEST_NULL;
        MPI_Irecv(halo.data(), bytes, MPI_BYTE, neighbor[d], d ^ 1, MPI_COMM_WORLD, &req);
        requests.push_back(req);
      }
      for (int d = 0; d < 4; ++d) {
        if (neighbor[d] < 0) continue;
        MPI_Request req = MPI_REQUEST_NULL;
        MPI_Isend(halo.data(), bytes, MPI_BYTE, neighbor[d], d, MPI_COMM_WORLD, &req);
        requests.push_back(req);
      }
      MPI_Waitall(static_cast<int>(requests.size()), requests.data(), MPI_STATUSES_IGNORE);
    }
    MPI_Finalize();
  };

  smpi::platform::FlatClusterParams params;
  params.nodes = ranks;
  auto platform = smpi::platform::build_flat_cluster(params);
  double online = 0;
  {
    // Scoped: only one SmpiWorld may exist, and the replay builds its own.
    smpi::core::SmpiConfig config;
    smpi::core::SmpiWorld world(platform, config);
    world.run(ranks, app);
    online = world.simulated_time();
  }

  const auto spec = parse_spec(R"({
    "name": "stencil-vs-app", "ranks": 12,
    "pattern": "stencil2d", "iterations": 3, "bytes": 8192,
    "compute": {"flops": 1e6}
  })");
  const tr::ReplayResult replay = replay_on_cluster(wl::generate_workload(spec));
  EXPECT_NEAR(replay.simulated_time, online, 1e-9 * std::max(1.0, online));
}

TEST(WorkloadReplay, Stencil1024RanksEndToEnd) {
  const auto spec = parse_spec(R"({
    "name": "stencil1024", "ranks": 1024, "seed": 11,
    "pattern": "stencil2d", "iterations": 1, "bytes": 1024,
    "compute": {"flops": 1e5, "imbalance": 0.1}
  })");
  const tr::TiTrace trace = wl::generate_workload(spec);
  EXPECT_EQ(trace.nranks, 1024);
  const tr::ReplayResult result = replay_on_cluster(trace);
  EXPECT_GT(result.simulated_time, 0);
  EXPECT_EQ(result.ranks, 1024);
  EXPECT_EQ(result.records, trace.total_records());
}

// ---------------------------------------------------------------------------
// Campaign integration
// ---------------------------------------------------------------------------

TEST(WorkloadCampaign, SweepsWorkloadAndPlatformAxesDeterministically) {
  const auto spec = smpi::campaign::CampaignSpec::parse(parse_json(R"({
    "name": "wl-axes",
    "workload": {"name": "stencil", "ranks": 8, "seed": 3, "pattern": "stencil2d",
                 "iterations": 2, "bytes": 4096, "compute": {"flops": 1e5}},
    "platform": {"kind": "flat", "nodes": 8},
    "axes": [
      {"param": "workload_bytes", "values": [512, 16384]},
      {"param": "link_bandwidth_scale", "values": [0.5, 2]}
    ]
  })",
                                                                    "campaign"));
  ASSERT_TRUE(spec.has_workload);
  ASSERT_TRUE(spec.sweeps_workload());
  const auto scenarios = smpi::campaign::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 5u);
  const tr::TiTrace baseline = wl::generate_workload(spec.workload);

  smpi::campaign::RunOptions options;
  options.workers = 1;
  const auto serial = smpi::campaign::run_campaign(spec, scenarios, baseline, options);
  options.workers = 3;
  const auto parallel = smpi::campaign::run_campaign(spec, scenarios, baseline, options);

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ASSERT_TRUE(serial.results[i].ok) << serial.results[i].error;
    ASSERT_TRUE(parallel.results[i].ok) << parallel.results[i].error;
    EXPECT_EQ(serial.results[i].simulated_time, parallel.results[i].simulated_time) << i;
  }
  // The baseline scenario replays the unmodified workload.
  const tr::ReplayResult direct = replay_on_cluster(baseline);
  EXPECT_EQ(serial.results[0].simulated_time, direct.simulated_time);
  // The message-size axis must actually change the trace and the outcome.
  EXPECT_NE(serial.results[1].simulated_time, serial.results[3].simulated_time);
}

TEST(WorkloadCampaign, WorkloadRanksAxisRegeneratesAtNewSize) {
  const auto spec = smpi::campaign::CampaignSpec::parse(parse_json(R"({
    "name": "wl-ranks",
    "workload": {"name": "ring", "ranks": 4, "seed": 1, "pattern": "ring", "bytes": 1024},
    "axes": [{"param": "workload_ranks", "values": [8, 16]}]
  })",
                                                                    "campaign"));
  const auto scenarios = smpi::campaign::enumerate_scenarios(spec);
  const tr::TiTrace baseline = wl::generate_workload(spec.workload);
  smpi::campaign::RunOptions options;
  const auto outcome = smpi::campaign::run_campaign(spec, scenarios, baseline, options);
  ASSERT_EQ(outcome.results.size(), 3u);
  for (const auto& r : outcome.results) ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(outcome.results[0].ranks, 4);
  EXPECT_EQ(outcome.results[1].ranks, 8);
  EXPECT_EQ(outcome.results[2].ranks, 16);
}

TEST(WorkloadCampaign, WorkloadAxisAgainstCaptureIsAHardError) {
  // A trace-sourced campaign sweeping workload_* must fail the scenario
  // with a clear message, not silently ignore the axis.
  const auto spec = smpi::campaign::CampaignSpec::parse(parse_json(R"({
    "name": "bad",
    "axes": [{"param": "workload_bytes", "values": [512]}]
  })",
                                                                    "campaign"));
  EXPECT_FALSE(spec.has_workload);
  const auto scenarios = smpi::campaign::enumerate_scenarios(spec);
  const tr::TiTrace trace = wl::generate_workload(parse_spec(
      R"({"ranks": 4, "pattern": "ring", "bytes": 64})"));
  smpi::campaign::RunOptions options;
  const auto outcome = smpi::campaign::run_campaign(spec, scenarios, trace, options);
  ASSERT_TRUE(outcome.results[0].ok);  // baseline has no workload override
  ASSERT_FALSE(outcome.results[1].ok);
  EXPECT_NE(outcome.results[1].error.find("workload"), std::string::npos);
}

TEST(WorkloadCampaign, OverridesRevalidateContracts) {
  const auto spec = smpi::campaign::CampaignSpec::parse(parse_json(R"({
    "name": "bad-grid",
    "workload": {"ranks": 16, "pattern": "stencil2d", "px": 4, "py": 4, "bytes": 64},
    "axes": [{"param": "workload_ranks", "values": [32]}]
  })",
                                                                    "campaign"));
  const auto scenarios = smpi::campaign::enumerate_scenarios(spec);
  // Scenario 1 overrides ranks to 32 under an explicit 4x4 grid: rejected.
  EXPECT_THROW(smpi::campaign::apply_workload_overrides(spec, scenarios[1]),
               ContractError);
}
