// Campaign report tests over hand-built outcomes (no simulation): the JSON
// report, CSV and summary are pinned byte for byte against fixtures in
// tests/fixtures/, a report read back through results_from_report must
// reproduce itself (so reports written by older builds keep resuming), every
// CSV line must have as many fields as its header, and a report written
// before the retries/p2p/surf/analysis/resources fields existed must still resume,
// while a counter outside its member's range is rejected.
//
// Regenerate the fixtures after an intended format change with
//   SMPI_UPDATE_GOLDEN=1 ./test_campaign_report
// and review the diff: every changed byte is a change to a user-visible file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "workload/generate.hpp"

namespace fs = std::filesystem;
namespace cp = smpi::campaign;
using smpi::util::ContractError;
using smpi::util::JsonValue;
using smpi::util::parse_json;

namespace {

fs::path fixture_path(const std::string& name) {
  return fs::path(__FILE__).parent_path() / "fixtures" / name;
}

// Compares `actual` with the fixture `name`, or rewrites the fixture when
// SMPI_UPDATE_GOLDEN is set.
void expect_fixture(const std::string& name, const std::string& actual) {
  const fs::path path = fixture_path(name);
  if (std::getenv("SMPI_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "fixture " << name << " differs";
}

cp::ScenarioResult ok_result(int id, int rep, double simulated_time, bool analyzed,
                             bool resources) {
  cp::ScenarioResult r;
  r.id = id;
  r.rep = rep;
  r.ok = true;
  r.simulated_time = simulated_time;
  r.wall_s = 0.0123456789 + 0.001 * id + 0.0001 * rep;
  r.records = 1234 + id;
  r.ranks = 4;
  r.arena_bytes = 65536;
  for (int rank = 0; rank < r.ranks; ++rank) {
    r.rank_compute_s.push_back(simulated_time * (0.25 + 0.125 * rank) / 3.0);
    r.rank_comm_s.push_back(simulated_time * (0.5 - 0.0625 * rank) / 7.0);
  }
  r.solver_solves = 321 + static_cast<std::uint64_t>(id);
  r.solver_vars_touched = 4567;
  r.solver_cons_touched = 8910;
  r.p2p.pool_hits = 40;
  r.p2p.pool_misses = 2;
  r.p2p.eager_snapshots = 3;
  r.p2p.eager_copy_elided = 17;
  r.p2p.eager_flush_snapshots = 1;
  r.p2p.bytes_not_copied = 1048576;
  r.surf_observe.solves_attach = 11 + static_cast<std::uint64_t>(id);
  r.surf_observe.solves_release = 12;
  r.surf_observe.solves_capacity = 13;
  r.surf_observe.solves_bound = 14;
  r.surf_observe.saturation_events = 15 + static_cast<std::uint64_t>(rep);
  r.surf_observe.observe_drains = 16;
  if (analyzed) {
    r.analyzed = true;
    r.analysis.wait_fraction = 0.3141592653589793;
    r.analysis.path_length_s = simulated_time;
    r.analysis.cp_compute_s = simulated_time * 0.6;
    r.analysis.cp_comm_s = simulated_time * 0.4;
    r.analysis.dominant_wait_state = id % 2 == 0 ? "late_sender" : "none";
    for (int rank = 0; rank < r.ranks; ++rank) {
      r.rank_wait_s.push_back(simulated_time / (rank + 3.0));
      r.rank_transfer_s.push_back(simulated_time / (rank + 11.0));
    }
  }
  if (resources) {
    r.resources_analyzed = true;
    r.top_bottleneck = id % 2 == 0 ? "node-1_up" : "";
    r.bottleneck_saturated_s = id % 2 == 0 ? simulated_time * 0.2 : 0.0;
    r.max_link_utilization = 0.875;
  }
  return r;
}

cp::ScenarioResult failed_result(int id, int rep, const std::string& error) {
  cp::ScenarioResult r;
  r.id = id;
  r.rep = rep;
  r.error = error;
  return r;
}

cp::ScenarioResult timed_out_result(int id, int rep) {
  cp::ScenarioResult r = failed_result(id, rep, "scenario exceeded the 5 s wall-clock watchdog");
  r.timed_out = true;
  r.worker_exit = "killed by watchdog (killed by signal 9)";
  return r;
}

cp::ScenarioResult crashed_result(int id, int rep) {
  cp::ScenarioResult r = failed_result(
      id, rep, "campaign worker died while running this scenario (retry exhausted)");
  r.retries = 1;
  r.worker_exit = "exited with status 33";
  return r;
}

// A single-run sweep: 7 scenarios covering ok rows with every combination of
// analysis/resources on and off, a retried ok row, and failed, timed-out and
// crashed rows.
struct Sweep {
  cp::CampaignSpec spec;
  std::vector<cp::Scenario> scenarios;
  cp::CampaignOutcome outcome;
};

Sweep single_run_sweep() {
  Sweep s;
  s.spec = cp::CampaignSpec::parse(parse_json(R"({
    "name": "golden-r1",
    "trace": "ti_golden",
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [
      {"param": "link_bandwidth_scale", "values": [0.5, 1, 2]},
      {"param": "coll_bcast", "values": ["binomial", "scatter_ring_allgather"]}
    ]
  })", "golden-r1 spec"));
  s.scenarios = cp::enumerate_scenarios(s.spec);
  s.outcome.workers = 2;
  s.outcome.resumed = 2;
  s.outcome.wall_s = 1.5;
  auto& results = s.outcome.results;
  results.push_back(ok_result(0, 0, 0.0123456789012345, true, true));
  results.push_back(ok_result(1, 0, 0.0234567890123456, false, true));
  results.back().retries = 1;
  results.push_back(ok_result(2, 0, 0.0098765432109876, true, false));
  results.push_back(timed_out_result(3, 0));
  results.push_back(crashed_result(4, 0));
  results.push_back(failed_result(5, 0, "resource failure: host node-3 crashed at t=0.0005"));
  results.push_back(ok_result(6, 0, 0.0111111111111111, false, false));
  return s;
}

// A replicated sweep: 3 scenarios x 3 replications, where the baseline and
// scenario 1 complete and scenario 2 loses one replication to the watchdog
// and one to a crash (so it is left out of the ranking).
Sweep replicated_sweep() {
  Sweep s;
  s.spec = cp::CampaignSpec::parse(parse_json(R"({
    "name": "golden-r3",
    "trace": "ti_golden",
    "platform": {"kind": "hierarchical-gdx", "nodes": 4},
    "axes": [{"param": "host_speed_scale", "values": [1, 4]}],
    "noise": {"seed": 7, "host_speed": {"dist": "normal", "mean": 1, "sigma": 0.05}},
    "replications": 3
  })", "golden-r3 spec"));
  s.scenarios = cp::enumerate_scenarios(s.spec);
  s.outcome.workers = 3;
  s.outcome.replications = 3;
  s.outcome.wall_s = 2.25;
  const double times[3][3] = {{0.0201, 0.0207, 0.0199},
                              {0.0150, 0.0211, 0.0149},
                              {0.0100, 0.0, 0.0}};
  auto& results = s.outcome.results;
  for (int id = 0; id < 3; ++id) {
    for (int rep = 0; rep < 3; ++rep) {
      results.push_back(ok_result(id, rep, times[id][rep], rep != 2, id != 1));
    }
  }
  results[7] = timed_out_result(2, 1);
  results[8] = crashed_result(2, 2);
  return s;
}

// Splits one CSV line into fields the way Python's csv module does: a
// field that opens with a double quote runs to the matching close quote,
// and a doubled quote inside it is one literal quote.
std::vector<std::string> csv_fields(const std::string& line) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  bool at_start = true;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c != '"') {
        fields.back() += c;
      } else if (i + 1 < line.size() && line[i + 1] == '"') {
        fields.back() += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"' && at_start) {
      quoted = true;
    } else if (c == ',') {
      fields.emplace_back();
      at_start = true;
      continue;
    } else {
      fields.back() += c;
    }
    at_start = false;
  }
  return fields;
}

std::vector<std::vector<std::string>> csv_rows(const std::string& csv) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) rows.push_back(csv_fields(line));
  return rows;
}

// The column of `name` in the CSV header.
std::size_t column(const std::vector<std::string>& header, const std::string& name) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  ADD_FAILURE() << "no CSV column " << name;
  return 0;
}

void expect_golden(const Sweep& s, const std::string& stem) {
  const std::string json = cp::report_json(s.spec, s.scenarios, s.outcome).dump(2);
  expect_fixture(stem + ".json", json);
  expect_fixture(stem + ".csv", cp::report_csv(s.spec, s.scenarios, s.outcome));
  expect_fixture(stem + ".txt", cp::report_summary(s.spec, s.scenarios, s.outcome));

  // Read the report back as a resume would: the adopted results must
  // reproduce every byte of the report they came from.
  cp::CampaignOutcome resumed = s.outcome;
  resumed.results = cp::results_from_report(parse_json(json, stem), s.spec, s.scenarios);
  EXPECT_EQ(cp::report_json(s.spec, s.scenarios, resumed).dump(2), json);
  EXPECT_EQ(cp::report_csv(s.spec, s.scenarios, resumed),
            cp::report_csv(s.spec, s.scenarios, s.outcome));
}

}  // namespace

TEST(CampaignReportGolden, SingleRunSweepMatchesFixtures) {
  expect_golden(single_run_sweep(), "campaign_report_r1");
}

TEST(CampaignReportGolden, ReplicatedSweepMatchesFixtures) {
  expect_golden(replicated_sweep(), "campaign_report_r3");
}

TEST(CampaignReportCsv, EveryRowHasTheHeaderFieldCount) {
  for (const Sweep& s : {single_run_sweep(), replicated_sweep()}) {
    const auto rows = csv_rows(cp::report_csv(s.spec, s.scenarios, s.outcome));
    ASSERT_EQ(rows.size(), s.outcome.results.size() + 1);
    const auto& header = rows.front();
    for (std::size_t i = 1; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].size(), header.size()) << s.spec.name << " row " << i;
    }
  }
  // Each diagnostic lands under its own column, whatever the row's shape.
  const Sweep s = single_run_sweep();
  const auto rows = csv_rows(cp::report_csv(s.spec, s.scenarios, s.outcome));
  const auto& header = rows.front();
  for (std::size_t unit = 0; unit < s.outcome.results.size(); ++unit) {
    const cp::ScenarioResult& r = s.outcome.results[unit];
    const auto& row = rows[unit + 1];
    EXPECT_EQ(row[column(header, "ok")], r.ok ? "1" : "0") << unit;
    EXPECT_EQ(row[column(header, "timed_out")], r.timed_out ? "1" : "0") << unit;
    EXPECT_EQ(row[column(header, "worker_exit")], r.worker_exit) << unit;
    EXPECT_EQ(row[column(header, "error")], r.error) << unit;
    EXPECT_EQ(row[column(header, "max_link_utilization")].empty(),
              !r.ok || !r.resources_analyzed)
        << unit;
    EXPECT_EQ(row[column(header, "dominant_wait")], r.ok ? r.analysis.dominant_wait_state : "")
        << unit;
  }
}

TEST(CampaignReportCsv, QuotesInsideTextCellsAreDoubled) {
  Sweep s = single_run_sweep();
  const std::string error = "bad \"x\", y";
  s.outcome.results[5] = failed_result(5, 0, error);
  const std::string csv = cp::report_csv(s.spec, s.scenarios, s.outcome);
  EXPECT_NE(csv.find("\"bad \"\"x\"\", y\""), std::string::npos) << csv;
  const auto rows = csv_rows(csv);
  const auto& header = rows.front();
  const auto& row = rows[6];
  EXPECT_EQ(row.size(), header.size());
  EXPECT_EQ(row[column(header, "error")], error);
  EXPECT_EQ(row[column(header, "label")], s.scenarios[5].label);
}

// A report written before the harness counted retries, before the p2p and
// surf counters, and before the analysis and resources blocks: its ok rows
// resume with those fields zero/false, and only its failed rows re-run.
TEST(CampaignResume, LegacyReportWithoutNewerFieldsResumes) {
  const auto spec = cp::CampaignSpec::parse(parse_json(R"({
    "name": "legacy-resume",
    "workload": {"name": "legacy-ring", "ranks": 4, "seed": 3, "pattern": "ring",
                 "iterations": 2, "bytes": 4096, "compute": {"flops": 1e6}},
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "link_bandwidth_scale", "values": [0.5, 2]}]
  })", "legacy spec"));
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 3u);
  // Sentinel simulated times no replay of this workload produces: an adopted
  // row keeps its, a re-run row replaces it.
  const JsonValue report = parse_json(R"({
    "campaign": "legacy-resume",
    "trace": "",
    "platform": {"kind": "flat", "nodes": 4},
    "workload": {"name": "legacy-ring", "ranks": 4, "seed": 3, "phases": 1},
    "workers": 2,
    "wall_s": 0.5,
    "scenario_count": 3,
    "scenarios": [
      {"id": 0, "label": "baseline", "params": {}, "ok": true,
       "simulated_time": 123.5, "speedup_vs_baseline": 1, "wall_s": 0.01,
       "records": 24, "ranks": 4, "arena_bytes": 4096,
       "breakdown": {"compute_total_s": 4, "comm_total_s": 2, "compute_max_s": 1,
                     "comm_max_s": 0.5, "rank_compute_s": [1, 1, 1, 1],
                     "rank_comm_s": [0.5, 0.5, 0.5, 0.5]},
       "solver": {"solves": 7, "vars_touched": 8, "cons_touched": 9}},
      {"id": 1, "label": "link_bandwidth_scale=0.5", "params": {"link_bandwidth_scale": 0.5},
       "ok": false, "error": "campaign worker died while running this scenario"},
      {"id": 2, "label": "link_bandwidth_scale=2", "params": {"link_bandwidth_scale": 2},
       "ok": true, "simulated_time": 61.75, "speedup_vs_baseline": 2, "wall_s": 0.01,
       "records": 24, "ranks": 4, "arena_bytes": 4096,
       "breakdown": {"compute_total_s": 4, "comm_total_s": 1, "compute_max_s": 1,
                     "comm_max_s": 0.25, "rank_compute_s": [1, 1, 1, 1],
                     "rank_comm_s": [0.25, 0.25, 0.25, 0.25]},
       "solver": {"solves": 5, "vars_touched": 6, "cons_touched": 7}}
    ],
    "ranking_fastest_first": [2, 0]
  })", "legacy report");

  cp::RunOptions options;
  options.workers = 2;
  options.resume = cp::results_from_report(report, spec, scenarios);
  ASSERT_EQ(options.resume.size(), 3u);
  for (int id : {0, 2}) {
    const cp::ScenarioResult& r = options.resume[static_cast<std::size_t>(id)];
    EXPECT_TRUE(r.ok) << id;
    EXPECT_EQ(r.id, id);
    EXPECT_EQ(r.error, "") << id;
    EXPECT_EQ(r.retries, 0) << id;
    EXPECT_FALSE(r.timed_out) << id;
    EXPECT_EQ(r.p2p.pool_hits, 0u) << id;
    EXPECT_EQ(r.p2p.pool_misses, 0u) << id;
    EXPECT_EQ(r.p2p.eager_snapshots, 0u) << id;
    EXPECT_EQ(r.p2p.eager_copy_elided, 0u) << id;
    EXPECT_EQ(r.p2p.eager_flush_snapshots, 0u) << id;
    EXPECT_EQ(r.p2p.bytes_not_copied, 0u) << id;
    EXPECT_EQ(r.surf_observe.solves_attach, 0u) << id;
    EXPECT_EQ(r.surf_observe.observe_drains, 0u) << id;
    EXPECT_FALSE(r.analyzed) << id;
    EXPECT_EQ(r.analysis.wait_fraction, 0.0) << id;
    EXPECT_TRUE(r.rank_wait_s.empty()) << id;
    EXPECT_FALSE(r.resources_analyzed) << id;
    EXPECT_EQ(r.top_bottleneck, "") << id;
    EXPECT_EQ(r.max_link_utilization, 0.0) << id;
  }
  EXPECT_EQ(options.resume[0].simulated_time, 123.5);
  EXPECT_EQ(options.resume[0].solver_cons_touched, 9u);
  EXPECT_EQ(options.resume[2].rank_comm_s, std::vector<double>(4, 0.25));
  EXPECT_FALSE(options.resume[1].ok);
  EXPECT_EQ(options.resume[1].error, "campaign worker died while running this scenario");

  const auto trace = smpi::workload::generate_workload(spec.workload);
  const cp::CampaignOutcome outcome = cp::run_campaign(spec, scenarios, trace, options);
  EXPECT_EQ(outcome.resumed, 2);
  ASSERT_EQ(outcome.results.size(), 3u);
  for (const auto& r : outcome.results) EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(outcome.results[0].simulated_time, 123.5);
  EXPECT_EQ(outcome.results[2].simulated_time, 61.75);
  EXPECT_GT(outcome.results[1].simulated_time, 0.0);
  EXPECT_LT(outcome.results[1].simulated_time, 1.0);
  EXPECT_TRUE(outcome.results[1].analyzed);
  EXPECT_EQ(outcome.results[1].records, trace.total_records());

  // The resumed sweep writes the newer fields for the re-run row only.
  const JsonValue rows =
      parse_json(cp::report_json(spec, scenarios, outcome).dump(2), "resumed report")
          .at("scenarios", "report");
  EXPECT_EQ(rows.items()[0].find("analysis"), nullptr);
  EXPECT_NE(rows.items()[1].find("analysis"), nullptr);
  EXPECT_EQ(rows.items()[2].find("p2p")->at("pool_hits", "p2p").as_int(), 0);
}

// Resume compares the report's platform and workload records with the spec:
// a report of another base platform or another workload is rejected.
TEST(CampaignResume, RejectsReportOfAnotherPlatformOrWorkload) {
  Sweep s;
  s.spec = cp::CampaignSpec::parse(parse_json(R"({
    "name": "resume-identity",
    "workload": {"name": "ring-4", "ranks": 4, "seed": 3, "pattern": "ring", "bytes": 64},
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "link_bandwidth_scale", "values": [2]}]
  })", "identity spec"));
  s.scenarios = cp::enumerate_scenarios(s.spec);
  s.outcome.results = {ok_result(0, 0, 0.5, true, true), ok_result(1, 0, 0.25, true, true)};
  const JsonValue report = parse_json(
      cp::report_json(s.spec, s.scenarios, s.outcome).dump(2), "identity report");
  EXPECT_NO_THROW(cp::results_from_report(report, s.spec, s.scenarios));

  auto renodes = s.spec;
  renodes.base_nodes = 8;
  EXPECT_THROW(cp::results_from_report(report, renodes, s.scenarios), ContractError);
  auto rekind = s.spec;
  rekind.base_kind = cp::CampaignSpec::BaseKind::kGdx;
  EXPECT_THROW(cp::results_from_report(report, rekind, s.scenarios), ContractError);
  auto refile = s.spec;
  refile.platform_file = "cluster.xml";
  EXPECT_THROW(cp::results_from_report(report, refile, s.scenarios), ContractError);
  auto reseed = s.spec;
  reseed.workload.seed = 4;
  EXPECT_THROW(cp::results_from_report(report, reseed, s.scenarios), ContractError);
  auto rename = s.spec;
  rename.workload.name = "ring-5";
  EXPECT_THROW(cp::results_from_report(report, rename, s.scenarios), ContractError);
  auto reranks = s.spec;
  reranks.workload.ranks = 8;
  EXPECT_THROW(cp::results_from_report(report, reranks, s.scenarios), ContractError);
  auto rephase = s.spec;
  rephase.workload.phases.push_back(rephase.workload.phases.front());
  EXPECT_THROW(cp::results_from_report(report, rephase, s.scenarios), ContractError);
}

// Resume refuses a counter its row member cannot hold instead of wrapping
// it: a negative count for an unsigned member, a value outside int for an
// int member, a number outside long long for any counter.
TEST(CampaignResume, RejectsCountersOutsideTheirMemberRange) {
  Sweep s;
  s.spec = cp::CampaignSpec::parse(parse_json(R"({
    "name": "resume-ranges",
    "workload": {"name": "ring-4", "ranks": 4, "seed": 3, "pattern": "ring", "bytes": 64},
    "platform": {"kind": "flat", "nodes": 4},
    "axes": [{"param": "link_bandwidth_scale", "values": [2]}]
  })", "ranges spec"));
  s.scenarios = cp::enumerate_scenarios(s.spec);
  s.outcome.results = {ok_result(0, 0, 0.5, true, true), ok_result(1, 0, 0.25, true, true)};
  const std::string text = cp::report_json(s.spec, s.scenarios, s.outcome).dump(2);
  // The report with the first row's `from` edited to `to`.
  auto doctored = [&](const std::string& from, const std::string& to) {
    std::string edited = text;
    const std::size_t at = edited.find(from, edited.find("\"scenarios\""));
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) edited.replace(at, from.size(), to);
    return parse_json(edited, "doctored report");
  };
  auto expect_rejected = [&](const std::string& from, const std::string& to,
                             const std::string& message) {
    try {
      cp::results_from_report(doctored(from, to), s.spec, s.scenarios);
      ADD_FAILURE() << to << " should be rejected";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos) << e.what();
    }
  };
  expect_rejected("\"ranks\": 4", "\"ranks\": 4294967297", "'ranks' is out of range");
  expect_rejected("\"ranks\": 4", "\"ranks\": -2147483649", "'ranks' is out of range");
  expect_rejected("\"solves\": 321", "\"solves\": -1", "'solver.solves' is out of range");
  expect_rejected("\"pool_hits\": 40", "\"pool_hits\": -1", "'p2p.pool_hits' is out of range");
  expect_rejected("\"arena_bytes\": 65536", "\"arena_bytes\": -65536",
                  "'arena_bytes' is out of range");
  expect_rejected("\"records\": 1234", "\"records\": 1e300", "out of integer range");

  // The edges of each member's range still read back exactly.
  const auto edges = cp::results_from_report(
      doctored("\"ranks\": 4", "\"ranks\": 2147483647"), s.spec, s.scenarios);
  EXPECT_EQ(edges[0].ranks, 2147483647);
  EXPECT_EQ(cp::results_from_report(doctored("\"solves\": 321", "\"solves\": 0"), s.spec,
                                    s.scenarios)[0]
                .solver_solves,
            0u);
}
