// Campaign subsystem tests: spec parsing, scenario enumeration, platform
// override materialization (including the hard-error contract on unknown
// targets), worker-pool determinism (1 worker == N workers, bit-equal), the
// baseline scenario reproducing the online simulated time, and a row
// carrying exactly what a direct replay of its scenario produces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/ep.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "noise/noise.hpp"
#include "obs/analysis.hpp"
#include "obs/resource.hpp"
#include "platform/builders.hpp"
#include "smpi/coll.h"
#include "smpi/smpi.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "workload/generate.hpp"

namespace fs = std::filesystem;
namespace cp = smpi::campaign;
using smpi::util::ContractError;
using smpi::util::JsonValue;
using smpi::util::parse_json;

namespace {

struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("smpi_campaign_test_" + std::to_string(::getpid()) + "_" + std::to_string(counter++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

// Captures a small EP run at `nprocs` ranks into `dir`; returns the online
// simulated time.
double capture_ep(int nprocs, const std::string& dir) {
  smpi::platform::FlatClusterParams params;
  params.nodes = nprocs;
  auto platform = smpi::platform::build_flat_cluster(params);
  smpi::trace::TiWriter writer(dir, nprocs, "ep");
  smpi::core::SmpiWorld world(platform, smpi::core::SmpiConfig{}, {&writer});
  smpi::apps::EpParams ep;
  ep.log2_pairs = 12;
  world.run(nprocs, smpi::apps::make_ep_app(ep));
  return world.simulated_time();
}

cp::CampaignSpec parse_spec(const std::string& text) {
  return cp::CampaignSpec::parse(parse_json(text, "test spec"));
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec parsing + enumeration
// ---------------------------------------------------------------------------

TEST(CampaignSpec, ParsesAxesAndPlatform) {
  const auto spec = parse_spec(R"({
    "name": "sweep",
    "trace": "ti_dir",
    "platform": {"kind": "flat", "nodes": 16},
    "axes": [
      {"param": "link_bandwidth_scale", "values": [0.5, 2]},
      {"param": "host_speed", "host": "node-0", "values": [1e9]},
      {"param": "coll_bcast", "values": ["binomial"]},
      {"param": "payload_free", "values": [true, false]}
    ]
  })");
  EXPECT_EQ(spec.name, "sweep");
  EXPECT_EQ(spec.trace_dir, "ti_dir");
  EXPECT_EQ(spec.base_kind, cp::CampaignSpec::BaseKind::kFlat);
  EXPECT_EQ(spec.base_nodes, 16);
  ASSERT_EQ(spec.axes.size(), 4u);
  EXPECT_EQ(spec.axes[1].key(), "host_speed:node-0");
  EXPECT_EQ(spec.axes[1].target, "node-0");
}

TEST(CampaignSpec, RejectsBadSpecs) {
  EXPECT_THROW(parse_spec(R"({"axes": [{"param": "warp_speed", "values": [1]}]})"),
               ContractError);  // unknown param
  EXPECT_THROW(parse_spec(R"({"axes": [{"param": "host_speed", "values": [1e9]}]})"),
               ContractError);  // missing host target
  EXPECT_THROW(parse_spec(R"({"axes": [{"param": "cpu_scale", "values": []}]})"),
               ContractError);  // empty values
  EXPECT_THROW(parse_spec(R"({"axes": [{"param": "cpu_scale", "values": ["x"]}]})"),
               ContractError);  // wrong value type
  EXPECT_THROW(parse_spec(R"({"axes": [
      {"param": "cpu_scale", "values": [1]},
      {"param": "cpu_scale", "values": [2]}]})"),
               ContractError);  // duplicate axis
  EXPECT_THROW(parse_spec(R"({"platform": {"kind": "torus"}})"), ContractError);
  EXPECT_THROW(parse_spec(R"({"axes": [
      {"param": "cpu_scale", "host": "node-0", "values": [1]}]})"),
               ContractError);  // target on an untargeted param
}

// A misspelled collective variant fails the parse, naming the param and the
// value, instead of running as a no-op axis or failing every row after the
// fork; every name in the variant tables (and "auto") parses.
TEST(CampaignSpec, RejectsUnknownCollectiveVariants) {
  try {
    parse_spec(R"({"axes": [{"param": "coll_allreduce", "values": ["recursive_dubling"]}]})");
    ADD_FAILURE() << "a misspelled coll_allreduce value parsed";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("'coll_allreduce': unknown variant 'recursive_dubling'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_spec(R"({"axes": [{"param": "coll_alltoall", "values": ["auto", "brukc"]}]})"),
               ContractError);
  EXPECT_THROW(parse_spec(R"({"axes": [{"param": "coll_bcast", "values": ["ring"]}]})"),
               ContractError);  // a name from another collective's table
  EXPECT_THROW(parse_spec(R"({"axes": [{"param": "coll_allgather", "values": [1]}]})"),
               ContractError);
  for (const char* collective : {"bcast", "alltoall", "allreduce", "allgather"}) {
    std::string values = "\"auto\"";
    for (const std::string& name : smpi::coll::variant_names(collective)) {
      values += ", \"" + name + "\"";
    }
    const auto spec = parse_spec(std::string(R"({"axes": [{"param": "coll_)") + collective +
                                 R"(", "values": [)" + values + "]}]}");
    ASSERT_EQ(spec.axes.size(), 1u);
    EXPECT_EQ(spec.axes[0].values.size(), smpi::coll::variant_names(collective).size() + 1);
  }
  EXPECT_EQ(smpi::coll::variant_names("allreduce"),
            (std::vector<std::string>{"recursive_doubling", "rabenseifner", "reduce_bcast"}));
}

TEST(CampaignSpec, EnumeratesBaselinePlusCrossProduct) {
  const auto spec = parse_spec(R"({
    "axes": [
      {"param": "link_bandwidth_scale", "values": [0.5, 1, 2]},
      {"param": "host_speed_scale", "values": [1, 4]}
    ]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 7u);  // baseline + 3 x 2
  EXPECT_EQ(scenarios[0].label, "baseline");
  EXPECT_TRUE(scenarios[0].params.empty());
  // Row-major: the last axis varies fastest.
  EXPECT_EQ(scenarios[1].label, "link_bandwidth_scale=0.5 host_speed_scale=1");
  EXPECT_EQ(scenarios[2].label, "link_bandwidth_scale=0.5 host_speed_scale=4");
  EXPECT_EQ(scenarios[3].label, "link_bandwidth_scale=1 host_speed_scale=1");
  EXPECT_EQ(scenarios[6].label, "link_bandwidth_scale=2 host_speed_scale=4");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(scenarios[i].id, static_cast<int>(i));
  }
}

// ---------------------------------------------------------------------------
// Scenario materialization
// ---------------------------------------------------------------------------

TEST(CampaignMaterialize, AppliesScalesAndAbsolutes) {
  const auto spec = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [
      {"param": "link_bandwidth_scale", "values": [2]},
      {"param": "host_speed", "host": "node-0", "values": [5e9]},
      {"param": "cpu_scale", "values": [3]},
      {"param": "coll_alltoall", "values": ["pairwise"]},
      {"param": "payload_free", "values": [false]}
    ]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 2u);
  const auto setup = cp::materialize(spec, scenarios[1], 4);
  const auto baseline = cp::materialize(spec, scenarios[0], 4);
  for (int l = 0; l < setup.platform.link_count(); ++l) {
    EXPECT_DOUBLE_EQ(setup.platform.link(l).bandwidth_bps,
                     2 * baseline.platform.link(l).bandwidth_bps);
  }
  EXPECT_DOUBLE_EQ(setup.platform.host(0).speed_flops, 5e9);
  EXPECT_DOUBLE_EQ(setup.platform.host(1).speed_flops, baseline.platform.host(1).speed_flops);
  EXPECT_DOUBLE_EQ(setup.config.cpu_scale, 3.0);
  EXPECT_EQ(setup.config.coll.alltoall, "pairwise");
  EXPECT_FALSE(setup.payload_free);
  EXPECT_TRUE(baseline.payload_free);
}

TEST(CampaignMaterialize, UnknownTargetsAreHardErrors) {
  const auto host_spec = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "host_speed", "host": "node-99", "values": [1e9]}]
  })");
  EXPECT_THROW(cp::materialize(host_spec, cp::enumerate_scenarios(host_spec)[1], 4),
               ContractError);
  const auto link_spec = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "link_bandwidth", "link": "no-such-link", "values": [1e9]}]
  })");
  EXPECT_THROW(cp::materialize(link_spec, cp::enumerate_scenarios(link_spec)[1], 4),
               ContractError);
}

TEST(CampaignMaterialize, PlacementPolicies) {
  const auto spec = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "placement", "values": ["block", "stride:2", "round_robin", "diagonal"]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto block = cp::materialize(spec, scenarios[1], 8);
  EXPECT_EQ(block.config.placement, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
  const auto strided = cp::materialize(spec, scenarios[2], 8);
  EXPECT_EQ(strided.config.placement, (std::vector<int>{0, 2, 0, 2, 0, 2, 0, 2}));
  const auto rr = cp::materialize(spec, scenarios[3], 8);
  EXPECT_EQ(rr.config.placement, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
  EXPECT_THROW(cp::materialize(spec, scenarios[4], 8), ContractError);  // unknown policy
}

TEST(CampaignMaterialize, TopologyNodesRebuildsFlatBase) {
  const auto spec = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "topology_nodes", "values": [9]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  EXPECT_EQ(cp::materialize(spec, scenarios[0], 4).platform.host_count(), 4);
  EXPECT_EQ(cp::materialize(spec, scenarios[1], 4).platform.host_count(), 9);
}

// ---------------------------------------------------------------------------
// End-to-end: determinism across worker counts + baseline equivalence
// ---------------------------------------------------------------------------

TEST(CampaignRun, DeterministicAcrossWorkerCountsAndMatchesOnline) {
  TempDir dir;
  const int nranks = 4;
  const double online_time = capture_ep(nranks, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());

  auto spec = parse_spec(R"({
    "name": "determinism",
    "platform": {"kind": "flat"},
    "axes": [
      {"param": "link_bandwidth_scale", "values": [0.5, 1, 2]},
      {"param": "host_speed_scale", "values": [1, 4]}
    ]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 7u);

  cp::RunOptions one;
  one.workers = 1;
  const auto serial = cp::run_campaign(spec, scenarios, trace, one);
  cp::RunOptions many;
  many.workers = 3;
  const auto parallel = cp::run_campaign(spec, scenarios, trace, many);

  ASSERT_EQ(serial.results.size(), scenarios.size());
  ASSERT_EQ(parallel.results.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ASSERT_TRUE(serial.results[i].ok) << serial.results[i].error;
    ASSERT_TRUE(parallel.results[i].ok) << parallel.results[i].error;
    // Bit-equal, not approximately equal: scenario processes see identical
    // inputs whatever the worker count, and capsules carry %.17g doubles.
    EXPECT_EQ(serial.results[i].simulated_time, parallel.results[i].simulated_time)
        << "scenario " << i;
    EXPECT_EQ(serial.results[i].rank_comm_s, parallel.results[i].rank_comm_s);
    EXPECT_EQ(serial.results[i].solver_vars_touched, parallel.results[i].solver_vars_touched);
  }

  // The unmodified-platform scenario must reproduce the online run.
  EXPECT_NEAR(serial.results[0].simulated_time, online_time, 1e-9 * online_time + 1e-12);

  // Physics sanity inside the sweep: 4x hosts never slow the app down.
  const double base = serial.results[0].simulated_time;
  const double fast_hosts = serial.results[4].simulated_time;  // bw=1, speed=4
  EXPECT_LE(fast_hosts, base * (1 + 1e-12));
}

TEST(CampaignRun, ScenarioFailuresAreCapsulesNotCrashes) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  const auto spec = parse_spec(R"({
    "platform": {"kind": "flat"},
    "axes": [{"param": "host_speed", "host": "node-777", "values": [1e9]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  options.workers = 2;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  ASSERT_EQ(outcome.results.size(), 2u);
  EXPECT_TRUE(outcome.results[0].ok);  // baseline unaffected
  EXPECT_FALSE(outcome.results[1].ok);
  EXPECT_NE(outcome.results[1].error.find("node-777"), std::string::npos)
      << outcome.results[1].error;
}

// A campaign row carries exactly what the replay produced: every field the
// row table serializes equals, bit for bit, the same field of a direct
// replay_trace of the materialized scenario, after the trip through a
// worker capsule. A fault abort surfaces as the replay's own diagnostic.
TEST(CampaignRun, RowMatchesDirectReplay) {
  const auto spec = parse_spec(R"({
    "name": "row-vs-replay",
    "workload": {"name": "w", "ranks": 8, "seed": 5, "pattern": "stencil2d",
                 "iterations": 2, "bytes": 65536, "compute": {"flops": 1e6}},
    "platform": {"kind": "flat", "nodes": 8},
    "faults": {"policy": "abort",
               "events": [{"kind": "host_crash", "time": 100.0, "host": "node-1"}]},
    "analysis": true,
    "resources": true,
    "axes": [{"param": "fault_time_scale", "values": [1e-6]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 2u);
  const auto trace = smpi::workload::generate_workload(spec.workload);
  cp::RunOptions options;
  options.workers = 2;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  ASSERT_EQ(outcome.results.size(), 2u);

  auto direct_replay = [&](const cp::Scenario& scenario) {
    const cp::ScenarioSetup setup = cp::materialize(spec, scenario, trace.nranks);
    smpi::obs::ResourceCollector resources;
    smpi::trace::ReplayOptions replay_options;
    replay_options.payload_free = setup.payload_free;
    replay_options.analyze = true;
    replay_options.resources = &resources;
    return smpi::trace::replay_trace(setup.platform, setup.config, trace, replay_options);
  };

  // Baseline: the crash lands after the makespan, so the row is ok.
  const cp::ScenarioResult& row = outcome.results[0];
  ASSERT_TRUE(row.ok) << row.error;
  const smpi::trace::ReplayResult direct = direct_replay(scenarios[0]);
  ASSERT_FALSE(direct.aborted);
  ASSERT_TRUE(direct.analyzed);
  ASSERT_TRUE(direct.resources_analyzed);

  JsonValue fields = JsonValue::object();
  cp::set_result_fields(fields, row, nullptr);
  std::vector<std::string> checked = {".ok", ".retries", ".wall_s"};  // harness-side
  auto field = [&](const std::string& group, const std::string& key) -> const JsonValue& {
    checked.push_back(group + "." + key);
    return (group.empty() ? fields : fields.at(group, "row")).at(key, "row");
  };
  auto numbers = [](const JsonValue& array) {
    std::vector<double> out;
    for (const JsonValue& x : array.items()) out.push_back(x.as_number());
    return out;
  };
  auto counter = [](std::uint64_t v) { return static_cast<double>(v); };

  EXPECT_EQ(field("", "simulated_time").as_number(), direct.simulated_time);
  EXPECT_EQ(field("", "records").as_number(), static_cast<double>(direct.records));
  EXPECT_EQ(field("", "ranks").as_number(), direct.ranks);
  EXPECT_EQ(field("", "arena_bytes").as_number(), counter(direct.arena_bytes));
  ASSERT_EQ(direct.rank_compute_s.size(), 8u);
  EXPECT_EQ(numbers(field("breakdown", "rank_compute_s")), direct.rank_compute_s);
  EXPECT_EQ(numbers(field("breakdown", "rank_comm_s")), direct.rank_comm_s);
  EXPECT_EQ(numbers(field("analysis", "rank_wait_s")), direct.rank_wait_s);
  EXPECT_EQ(numbers(field("analysis", "rank_transfer_s")), direct.rank_transfer_s);
  // The world's account and the span layer's breakdown agree up to rounding.
  for (std::size_t r = 0; r < 8; ++r) {
    const smpi::obs::RankBreakdown& b = direct.analysis.ranks[r];
    EXPECT_NEAR(direct.rank_compute_s[r], b.compute_s, 1e-12 * b.compute_s) << "rank " << r;
    EXPECT_NEAR(direct.rank_comm_s[r], b.wait_s + b.transfer_s, 1e-12 * direct.rank_comm_s[r])
        << "rank " << r;
  }
  EXPECT_EQ(field("solver", "solves").as_number(), counter(direct.solver_solves));
  EXPECT_EQ(field("solver", "vars_touched").as_number(), counter(direct.solver_vars_touched));
  EXPECT_EQ(field("solver", "cons_touched").as_number(), counter(direct.solver_cons_touched));
  EXPECT_EQ(field("p2p", "pool_hits").as_number(), counter(direct.p2p.pool_hits));
  EXPECT_EQ(field("p2p", "pool_misses").as_number(), counter(direct.p2p.pool_misses));
  EXPECT_EQ(field("p2p", "eager_snapshots").as_number(), counter(direct.p2p.eager_snapshots));
  EXPECT_EQ(field("p2p", "eager_copy_elided").as_number(),
            counter(direct.p2p.eager_copy_elided));
  EXPECT_EQ(field("p2p", "eager_flush_snapshots").as_number(),
            counter(direct.p2p.eager_flush_snapshots));
  EXPECT_EQ(field("p2p", "bytes_not_copied").as_number(), counter(direct.p2p.bytes_not_copied));
  const auto& surf = direct.surf_observe;
  EXPECT_EQ(field("surf", "solves_attach").as_number(), counter(surf.solves_attach));
  EXPECT_EQ(field("surf", "solves_release").as_number(), counter(surf.solves_release));
  EXPECT_EQ(field("surf", "solves_capacity").as_number(), counter(surf.solves_capacity));
  EXPECT_EQ(field("surf", "solves_bound").as_number(), counter(surf.solves_bound));
  EXPECT_EQ(field("surf", "saturation_events").as_number(), counter(surf.saturation_events));
  EXPECT_EQ(field("surf", "snapshot_drains").as_number(), counter(surf.observe_drains));
  EXPECT_GT(surf.solves_attach, 0u);
  EXPECT_EQ(field("analysis", "wait_fraction").as_number(), direct.analysis.wait_fraction);
  EXPECT_EQ(field("analysis", "critical_path_s").as_number(), direct.analysis.path_length_s);
  EXPECT_EQ(field("analysis", "cp_compute_s").as_number(), direct.analysis.cp_compute_s);
  EXPECT_EQ(field("analysis", "cp_comm_s").as_number(), direct.analysis.cp_comm_s);
  EXPECT_EQ(field("analysis", "dominant_wait").as_string(), direct.analysis.dominant_wait_state);
  EXPECT_EQ(field("resources", "top_bottleneck").as_string(), direct.top_bottleneck);
  EXPECT_EQ(field("resources", "bottleneck_saturated_s").as_number(),
            direct.bottleneck_saturated_s);
  EXPECT_EQ(field("resources", "max_link_utilization").as_number(),
            direct.max_link_utilization);
  EXPECT_GT(direct.analysis.total_wait_s + direct.analysis.total_transfer_s, 0.0);

  // Nothing the table serializes went unchecked.
  std::vector<std::string> serialized;
  for (const auto& [key, value] : fields.members()) {
    if (!value.is_object()) {
      serialized.push_back("." + key);
      continue;
    }
    for (const auto& member : value.members()) serialized.push_back(key + "." + member.first);
  }
  std::sort(serialized.begin(), serialized.end());
  std::sort(checked.begin(), checked.end());
  EXPECT_EQ(serialized, checked);

  // The early crash aborts the replay; the row is a failure carrying the
  // fault model's diagnostic.
  const cp::ScenarioResult& aborted = outcome.results[1];
  const smpi::trace::ReplayResult direct_abort = direct_replay(scenarios[1]);
  ASSERT_TRUE(direct_abort.aborted);
  ASSERT_FALSE(direct_abort.failure.empty());
  EXPECT_FALSE(aborted.ok);
  EXPECT_EQ(aborted.error, "resource failure: " + direct_abort.failure);
}

TEST(CampaignRun, ForcedCollectivesAndPayloadModesReplayIdentically) {
  TempDir dir;
  capture_ep(4, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  // EP's collectives are tiny allreduces: forcing each variant must succeed;
  // payload_free=false must not change the simulated time (only wall cost).
  const auto spec = parse_spec(R"({
    "platform": {"kind": "flat"},
    "axes": [
      {"param": "coll_allreduce", "values": ["recursive_doubling", "reduce_bcast"]},
      {"param": "payload_free", "values": [true, false]}
    ]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  options.workers = 2;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  for (const auto& result : outcome.results) ASSERT_TRUE(result.ok) << result.error;
  // payload_free on/off: same algorithm, same simulated time, bit-equal.
  EXPECT_EQ(outcome.results[1].simulated_time, outcome.results[2].simulated_time);
  EXPECT_EQ(outcome.results[3].simulated_time, outcome.results[4].simulated_time);
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

TEST(CampaignReport, JsonAndCsvAreWellFormed) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  const auto spec = parse_spec(R"({
    "name": "report-test",
    "platform": {"kind": "flat"},
    "axes": [{"param": "link_latency_scale", "values": [1, 10]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);

  const JsonValue report =
      parse_json(cp::report_json(spec, scenarios, outcome).dump(2), "report");
  EXPECT_EQ(report.at("campaign", "r").as_string(), "report-test");
  EXPECT_EQ(report.at("scenario_count", "r").as_int(), 3);
  const auto& rows = report.at("scenarios", "r").items();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].at("speedup_vs_baseline", "r").as_number(), 1.0);
  EXPECT_EQ(rows[0].at("breakdown", "r").at("rank_compute_s", "r").items().size(), 2u);
  // 10x latency cannot be faster than 1x on the same trace.
  EXPECT_LE(rows[2].at("speedup_vs_baseline", "r").as_number(),
            rows[1].at("speedup_vs_baseline", "r").as_number() + 1e-12);

  const std::string csv = cp::report_csv(spec, scenarios, outcome);
  int lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4);  // header + 3 scenarios
  EXPECT_NE(csv.find("link_latency_scale"), std::string::npos);

  const std::string summary = cp::report_summary(spec, scenarios, outcome);
  EXPECT_NE(summary.find("baseline simulated time"), std::string::npos);
  EXPECT_NE(summary.find("fastest scenarios"), std::string::npos);
}

// ---------------------------------------------------------------------------
// eager_threshold axis
// ---------------------------------------------------------------------------

TEST(CampaignMaterialize, EagerThresholdAxisSetsPersonality) {
  const auto spec = parse_spec(R"({
    "name": "eager",
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "eager_threshold", "values": [0, 1048576]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 3u);
  const auto rendezvous_only = cp::materialize(spec, scenarios[1], 4);
  EXPECT_EQ(rendezvous_only.config.personality.eager_threshold, 0u);
  const auto eager_always = cp::materialize(spec, scenarios[2], 4);
  EXPECT_EQ(eager_always.config.personality.eager_threshold, 1048576u);

  EXPECT_THROW(parse_spec(R"({
    "name": "bad",
    "axes": [{"param": "eager_threshold", "values": ["lots"]}]
  })"),
               ContractError);
}

TEST(CampaignRun, EagerThresholdChangesSkewedWorkloadTiming) {
  // A compute-imbalanced stencil posts receives at skewed times, so the
  // eager/rendezvous switch moves the flow start: sweeping the threshold
  // must produce different (deterministic) simulated times.
  const auto spec = parse_spec(R"({
    "name": "eager-run",
    "workload": {"name": "skewed", "ranks": 8, "seed": 7, "pattern": "stencil2d",
                 "iterations": 3, "bytes": 8192,
                 "compute": {"flops": 2e6, "imbalance": 0.5}},
    "platform": {"kind": "flat", "nodes": 8},
    "axes": [{"param": "eager_threshold", "values": [0, 1048576]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);
  cp::RunOptions options;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  for (const auto& r : outcome.results) ASSERT_TRUE(r.ok) << r.error;
  // Threshold above the message size == the default behaviour (64 KiB
  // default also exceeds 8 KiB messages), and rendezvous-only differs.
  EXPECT_EQ(outcome.results[2].simulated_time, outcome.results[0].simulated_time);
  EXPECT_NE(outcome.results[1].simulated_time, outcome.results[0].simulated_time);
}

// ---------------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------------

TEST(CampaignResume, SkipsCompletedScenariosAndMatchesFullSweep) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  const auto spec = parse_spec(R"({
    "name": "resume-test",
    "platform": {"kind": "flat"},
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 1, 2, 4]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  const auto full = cp::run_campaign(spec, scenarios, trace, options);
  for (const auto& r : full.results) ASSERT_TRUE(r.ok) << r.error;

  // Forge a partial report: scenarios 2 and 4 "failed".
  auto partial = full;
  partial.results[2].ok = false;
  partial.results[2].error = "worker died";
  partial.results[4].ok = false;
  partial.results[4].error = "worker died";
  const JsonValue report = parse_json(
      cp::report_json(spec, scenarios, partial).dump(2), "partial report");

  options.resume = cp::results_from_report(report, spec, scenarios);
  ASSERT_EQ(options.resume.size(), scenarios.size());
  EXPECT_TRUE(options.resume[1].ok);
  EXPECT_FALSE(options.resume[2].ok);
  const auto resumed = cp::run_campaign(spec, scenarios, trace, options);
  EXPECT_EQ(resumed.resumed, 3);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ASSERT_TRUE(resumed.results[i].ok) << resumed.results[i].error;
    EXPECT_EQ(resumed.results[i].simulated_time, full.results[i].simulated_time) << i;
    EXPECT_EQ(resumed.results[i].rank_comm_s, full.results[i].rank_comm_s) << i;
    EXPECT_EQ(resumed.results[i].solver_solves, full.results[i].solver_solves) << i;
  }
  // The resumed outcome reports like any other.
  const JsonValue final_report = parse_json(
      cp::report_json(spec, scenarios, resumed).dump(2), "final report");
  EXPECT_EQ(final_report.at("resumed", "r").as_int(), 3);
  const auto& rows = final_report.at("scenarios", "r").items();
  for (const auto& row : rows) EXPECT_TRUE(row.at("ok", "r").as_bool());
}

TEST(CampaignResume, RejectsMismatchedReports) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  const auto spec = parse_spec(R"({
    "name": "resume-guard",
    "platform": {"kind": "flat"},
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 2]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  const JsonValue report = parse_json(
      cp::report_json(spec, scenarios, outcome).dump(2), "report");

  // Different campaign name.
  auto renamed = spec;
  renamed.name = "someone-else";
  EXPECT_THROW(cp::results_from_report(report, renamed, scenarios), ContractError);

  // Different axis values: scenario count survives but labels do not.
  const auto reshaped = parse_spec(R"({
    "name": "resume-guard",
    "platform": {"kind": "flat"},
    "axes": [{"param": "link_latency_scale", "values": [1, 10]}]
  })");
  const auto reshaped_scenarios = cp::enumerate_scenarios(reshaped);
  EXPECT_THROW(cp::results_from_report(report, reshaped, reshaped_scenarios), ContractError);
}

TEST(CampaignResume, RejectsDifferentTraceSourceOrPlatform) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  auto spec = parse_spec(R"({
    "name": "resume-source",
    "platform": {"kind": "flat", "nodes": 2},
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 2]}]
  })");
  spec.trace_dir = dir.str();
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  const JsonValue report = parse_json(
      cp::report_json(spec, scenarios, outcome).dump(2), "report");

  // Same axes, different trace directory: rejected.
  auto retraced = spec;
  retraced.trace_dir = "somewhere_else";
  EXPECT_THROW(cp::results_from_report(report, retraced, scenarios), ContractError);

  // Same axes, different base platform: rejected.
  auto replatformed = spec;
  replatformed.base_nodes = 16;
  EXPECT_THROW(cp::results_from_report(report, replatformed, scenarios), ContractError);

  // Same axes, but the sweep now runs a workload instead of the capture.
  auto reworked = spec;
  reworked.trace_dir.clear();
  reworked.has_workload = true;
  reworked.workload = smpi::workload::WorkloadSpec::parse(
      parse_json(R"({"ranks": 2, "pattern": "ring", "bytes": 64})", "wl"));
  EXPECT_THROW(cp::results_from_report(report, reworked, scenarios), ContractError);

  // The genuine spec still round-trips.
  EXPECT_NO_THROW(cp::results_from_report(report, spec, scenarios));
}

// ---------------------------------------------------------------------------
// Replicated (Monte-Carlo) campaigns
// ---------------------------------------------------------------------------

namespace {

// Small noisy stencil sweep: 2 scenarios (baseline + 1) x 3 replications.
const char* kReplicatedSpec = R"({
  "name": "monte-carlo",
  "workload": {"name": "mc", "ranks": 4, "seed": 1, "pattern": "stencil2d",
               "iterations": 2, "bytes": 4096, "compute": {"flops": 1e6}},
  "platform": {"kind": "flat", "nodes": 4},
  "axes": [{"param": "link_bandwidth_scale", "values": [2]}],
  "noise": {"seed": 9,
            "host_speed": {"dist": "normal", "mean": 1, "sigma": 0.05},
            "message_jitter": {"dist": "normal", "mean": 0, "sigma": 1e-6}},
  "replications": 3
})";

}  // namespace

TEST(CampaignReplication, SpecValidation) {
  EXPECT_THROW(parse_spec(R"({"replications": 3})"), ContractError);  // no noise
  EXPECT_THROW(parse_spec(R"({"replications": 0,
      "noise": {"host_speed": {"dist": "normal", "mean": 1, "sigma": 0.1}}})"),
               ContractError);
  const auto spec = parse_spec(kReplicatedSpec);
  EXPECT_EQ(spec.replications, 3);
  EXPECT_FALSE(spec.noise.empty());
  EXPECT_EQ(spec.noise.seed, 9u);
  // A noise_seed axis needs the campaign-level noise spec to override.
  const auto seedless = parse_spec(R"({
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "noise_seed", "values": [1, 2]}]
  })");
  EXPECT_THROW(cp::materialize(seedless, cp::enumerate_scenarios(seedless)[1], 4),
               ContractError);
}

TEST(CampaignReplication, MaterializePerturbsPerReplication) {
  const auto spec = parse_spec(kReplicatedSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto rep0 = cp::materialize(spec, scenarios[0], 4, 0);
  const auto rep0_again = cp::materialize(spec, scenarios[0], 4, 0);
  const auto rep1 = cp::materialize(spec, scenarios[0], 4, 1);
  bool differs = false;
  for (int h = 0; h < rep0.platform.host_count(); ++h) {
    EXPECT_EQ(rep0.platform.host(h).speed_flops, rep0_again.platform.host(h).speed_flops);
    differs = differs || rep0.platform.host(h).speed_flops != rep1.platform.host(h).speed_flops;
  }
  EXPECT_TRUE(differs) << "replications must draw independent noise worlds";
  // Even replication 0 runs under a sub-seed, and the world config carries it.
  EXPECT_EQ(rep0.config.noise.seed, smpi::noise::replication_seed(9, 0));
  EXPECT_EQ(rep1.config.noise.seed, smpi::noise::replication_seed(9, 1));
}

TEST(CampaignReplication, DeterministicAcrossWorkerCountsAndRuns) {
  const auto spec = parse_spec(kReplicatedSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);

  cp::RunOptions one;
  one.workers = 1;
  const auto serial = cp::run_campaign(spec, scenarios, trace, one);
  cp::RunOptions many;
  many.workers = 2;
  const auto parallel = cp::run_campaign(spec, scenarios, trace, many);

  const std::size_t units = scenarios.size() * 3;
  ASSERT_EQ(serial.results.size(), units);
  ASSERT_EQ(parallel.results.size(), units);
  EXPECT_EQ(serial.replications, 3);
  for (std::size_t i = 0; i < units; ++i) {
    ASSERT_TRUE(serial.results[i].ok) << serial.results[i].error;
    EXPECT_EQ(serial.results[i].id, static_cast<int>(i / 3));
    EXPECT_EQ(serial.results[i].rep, static_cast<int>(i % 3));
    EXPECT_EQ(serial.results[i].simulated_time, parallel.results[i].simulated_time) << i;
    EXPECT_EQ(serial.results[i].solver_solves, parallel.results[i].solver_solves) << i;
  }
  // Replications of one scenario see different noise, so different times.
  EXPECT_NE(serial.results[0].simulated_time, serial.results[1].simulated_time);
  EXPECT_NE(serial.results[1].simulated_time, serial.results[2].simulated_time);
}

TEST(CampaignReplication, ReportCarriesStatsAndRankStability) {
  const auto spec = parse_spec(kReplicatedSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);
  cp::RunOptions options;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  for (const auto& r : outcome.results) ASSERT_TRUE(r.ok) << r.error;

  const JsonValue report =
      parse_json(cp::report_json(spec, scenarios, outcome).dump(2), "report");
  EXPECT_EQ(report.at("replications", "r").as_int(), 3);
  EXPECT_EQ(report.at("noise_seed", "r").as_int(), 9);
  const auto& stability = report.at("rank_stability", "r");
  EXPECT_FALSE(stability.at("verdict", "r").as_string().empty());
  EXPECT_GE(stability.at("fraction", "r").as_number(), 0.0);
  EXPECT_LE(stability.at("fraction", "r").as_number(), 1.0);

  const auto& rows = report.at("scenarios", "r").items();
  ASSERT_EQ(rows.size(), scenarios.size());
  for (const auto& row : rows) {
    const auto& reps = row.at("replications", "r").items();
    ASSERT_EQ(reps.size(), 3u);
    const auto& stats = row.at("stats", "r");
    EXPECT_EQ(stats.at("count", "r").as_int(), 3);
    const double mean = stats.at("mean", "r").as_number();
    EXPECT_GT(mean, 0.0);
    EXPECT_LE(stats.at("min", "r").as_number(), mean);
    EXPECT_GE(stats.at("max", "r").as_number(), mean);
    EXPECT_LE(stats.at("p5", "r").as_number(), stats.at("p95", "r").as_number());
    EXPECT_LE(stats.at("ci_lo", "r").as_number(), stats.at("ci_hi", "r").as_number());
    EXPECT_GT(stats.at("stddev", "r").as_number(), 0.0);
  }

  // CSV: header + one row per unit, with a rep column.
  const std::string csv = cp::report_csv(spec, scenarios, outcome);
  int lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, static_cast<int>(1 + scenarios.size() * 3));
  EXPECT_EQ(csv.find("id,rep,"), 0u);

  const std::string summary = cp::report_summary(spec, scenarios, outcome);
  EXPECT_NE(summary.find("3 replications"), std::string::npos) << summary;
  EXPECT_NE(summary.find("rank stability"), std::string::npos) << summary;
}

TEST(CampaignReplication, ResumeAdoptsIndividualReplications) {
  const auto spec = parse_spec(kReplicatedSpec);
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);
  cp::RunOptions options;
  const auto full = cp::run_campaign(spec, scenarios, trace, options);
  for (const auto& r : full.results) ASSERT_TRUE(r.ok) << r.error;

  // Forge a partial report: one whole scenario row lost one rep, another
  // lost a different one.
  auto partial = full;
  partial.results[1].ok = false;  // scenario 0, rep 1
  partial.results[1].error = "worker died";
  partial.results[5].ok = false;  // scenario 1, rep 2
  partial.results[5].error = "worker died";
  const JsonValue report =
      parse_json(cp::report_json(spec, scenarios, partial).dump(2), "partial report");

  options.resume = cp::results_from_report(report, spec, scenarios);
  ASSERT_EQ(options.resume.size(), full.results.size());
  EXPECT_TRUE(options.resume[0].ok);
  EXPECT_FALSE(options.resume[1].ok);
  EXPECT_TRUE(options.resume[2].ok);
  EXPECT_FALSE(options.resume[5].ok);
  const auto resumed = cp::run_campaign(spec, scenarios, trace, options);
  EXPECT_EQ(resumed.resumed, static_cast<int>(full.results.size()) - 2);
  for (std::size_t i = 0; i < full.results.size(); ++i) {
    ASSERT_TRUE(resumed.results[i].ok) << resumed.results[i].error;
    EXPECT_EQ(resumed.results[i].simulated_time, full.results[i].simulated_time) << i;
    EXPECT_EQ(resumed.results[i].solver_solves, full.results[i].solver_solves) << i;
    EXPECT_EQ(resumed.results[i].rep, static_cast<int>(i % 3));
  }
  // The resumed sweep aggregates identically to the uninterrupted one
  // (wall-clock fields aside): same stats, same rank-stability verdict.
  const JsonValue from_resumed =
      parse_json(cp::report_json(spec, scenarios, resumed).dump(2), "resumed report");
  const JsonValue from_full =
      parse_json(cp::report_json(spec, scenarios, full).dump(2), "full report");
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    EXPECT_EQ(from_resumed.at("scenarios", "r").items()[s].at("stats", "r").dump(2),
              from_full.at("scenarios", "r").items()[s].at("stats", "r").dump(2));
  }
  EXPECT_EQ(from_resumed.at("rank_stability", "r").dump(2),
            from_full.at("rank_stability", "r").dump(2));

  // A report taken under different replication count or noise seed is not
  // resumable into this sweep.
  auto rescaled = spec;
  rescaled.replications = 2;
  EXPECT_THROW(cp::results_from_report(report, rescaled, scenarios), ContractError);
  auto reseeded = spec;
  reseeded.noise.seed = 10;
  EXPECT_THROW(cp::results_from_report(report, reseeded, scenarios), ContractError);
}

TEST(CampaignResume, FullyCompleteResumeSkipsThePoolEntirely) {
  TempDir dir;
  capture_ep(2, dir.str());
  const auto trace = smpi::trace::load_ti_trace(dir.str());
  const auto spec = parse_spec(R"({
    "name": "resume-full",
    "platform": {"kind": "flat"},
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 2]}]
  })");
  const auto scenarios = cp::enumerate_scenarios(spec);
  cp::RunOptions options;
  const auto full = cp::run_campaign(spec, scenarios, trace, options);
  const JsonValue report = parse_json(
      cp::report_json(spec, scenarios, full).dump(2), "report");

  options.resume = cp::results_from_report(report, spec, scenarios);
  const auto resumed = cp::run_campaign(spec, scenarios, trace, options);
  EXPECT_EQ(resumed.resumed, static_cast<int>(scenarios.size()));
  EXPECT_EQ(resumed.workers, 0);  // nothing dispatched, no pool forked
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    ASSERT_TRUE(resumed.results[i].ok);
    EXPECT_EQ(resumed.results[i].simulated_time, full.results[i].simulated_time);
  }
}
