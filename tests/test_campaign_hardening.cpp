// Campaign harness hardening: dead workers are retried once on a fresh
// fork, hung scenarios are isolated by the wall-clock watchdog, and the
// fault axes (fault_seed / scales) materialize into per-scenario specs —
// all without perturbing the bit-determinism of the healthy rows.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "workload/generate.hpp"

namespace cp = smpi::campaign;
using smpi::util::ContractError;
using smpi::util::parse_json;

namespace {

cp::CampaignSpec hardening_spec() {
  return cp::CampaignSpec::parse(parse_json(R"({
    "name": "hardening",
    "platform": {"kind": "flat"},
    "workload": {"name": "w", "ranks": 4, "seed": 3, "pattern": "stencil2d",
                 "iterations": 2, "bytes": 4096},
    "axes": [{"param": "cpu_scale", "values": [1, 2, 4]}]
  })",
                                            "test spec"));
}

}  // namespace

TEST(CampaignHardening, DeadWorkerIsRetriedOnceAndSucceeds) {
  const auto spec = hardening_spec();
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 4u);
  const auto trace = smpi::workload::generate_workload(spec.workload);

  cp::RunOptions options;
  options.workers = 2;
  options.crash_scenario = 1;  // that worker _exit()s once mid-scenario
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  ASSERT_EQ(outcome.results.size(), scenarios.size());
  for (const auto& r : outcome.results) EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(outcome.results[1].retries, 1);
  EXPECT_EQ(outcome.results[0].retries, 0);
  EXPECT_EQ(outcome.results[2].retries, 0);
}

TEST(CampaignHardening, PersistentCrashExhaustsTheSingleRetry) {
  const auto spec = hardening_spec();
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);

  cp::RunOptions options;
  options.workers = 2;
  options.crash_scenario = 2;
  options.crash_always = true;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  const auto& dead = outcome.results[2];
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(dead.retries, 1);
  EXPECT_NE(dead.error.find("retry exhausted"), std::string::npos) << dead.error;
  EXPECT_NE(dead.worker_exit.find("exited with status 33"), std::string::npos)
      << dead.worker_exit;
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (i != 2) EXPECT_TRUE(outcome.results[i].ok) << outcome.results[i].error;
  }
}

TEST(CampaignHardening, WatchdogIsolatesHungScenarioDeterministically) {
  const auto spec = hardening_spec();
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);

  // Reference sweep: no hooks, no watchdog.
  const auto clean = cp::run_campaign(spec, scenarios, trace, cp::RunOptions{});

  auto run_with_hang = [&](int workers) {
    cp::RunOptions options;
    options.workers = workers;
    options.timeout_s = 0.25;
    options.hang_scenario = 1;  // that worker sleeps forever
    return cp::run_campaign(spec, scenarios, trace, options);
  };
  const auto one = run_with_hang(1);
  const auto two = run_with_hang(2);

  for (const auto* outcome : {&one, &two}) {
    const auto& hung = outcome->results[1];
    EXPECT_FALSE(hung.ok);
    EXPECT_TRUE(hung.timed_out);
    EXPECT_EQ(hung.retries, 0) << "timeouts must not be retried";
    EXPECT_NE(hung.error.find("watchdog"), std::string::npos) << hung.error;
    EXPECT_NE(hung.worker_exit.find("killed by watchdog"), std::string::npos)
        << hung.worker_exit;
    // The healthy rows stay ok and bit-identical to the clean sweep.
    for (std::size_t i = 0; i < outcome->results.size(); ++i) {
      if (i == 1) continue;
      ASSERT_TRUE(outcome->results[i].ok) << outcome->results[i].error;
      EXPECT_EQ(outcome->results[i].simulated_time, clean.results[i].simulated_time)
          << "scenario " << i;
      EXPECT_FALSE(outcome->results[i].timed_out);
    }
  }
}

TEST(CampaignHardening, FaultAxesMaterializePerScenario) {
  const auto spec = cp::CampaignSpec::parse(parse_json(R"({
    "platform": {"kind": "flat"},
    "faults": {"policy": "abort",
               "events": [{"kind": "host_crash", "time": 0.5, "host": "node-0"}],
               "random": {"seed": 1, "host_crashes": 2, "time_min": 0, "time_max": 1}},
    "timeout_s": 30,
    "axes": [
      {"param": "fault_seed", "values": [7, 8]},
      {"param": "fault_time_scale", "values": [1, 2]},
      {"param": "fault_count_scale", "values": [0, 3]}
    ]
  })",
                                                       "test spec"));
  EXPECT_DOUBLE_EQ(spec.timeout_s, 30.0);
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 9u);  // baseline + 2*2*2

  const auto baseline = cp::materialize(spec, scenarios[0], 4);
  EXPECT_EQ(baseline.config.faults.random.seed, 1u);
  EXPECT_DOUBLE_EQ(baseline.config.faults.events[0].time, 0.5);

  // seed=8, time_scale=2, count_scale=3
  const auto& last = scenarios.back();
  const auto setup = cp::materialize(spec, last, 4);
  EXPECT_EQ(setup.config.faults.random.seed, 8u);
  EXPECT_DOUBLE_EQ(setup.config.faults.events[0].time, 1.0);
  EXPECT_DOUBLE_EQ(setup.config.faults.random.time_max, 2.0);
  EXPECT_EQ(setup.config.faults.random.host_crashes, 6);
}

// One worker runs every unit in turn. Row #1 shrinks the platform under a
// fault naming node-12, so its world fails to build; that must not poison
// the worker for row #2, which runs the baseline's own platform.
TEST(CampaignHardening, FailedWorldDoesNotPoisonTheWorker) {
  const auto spec = cp::CampaignSpec::parse(parse_json(R"({
    "name": "poison",
    "workload": {"name": "w", "ranks": 8, "seed": 3, "pattern": "stencil2d",
                 "iterations": 2, "bytes": 4096},
    "platform": {"kind": "flat", "nodes": 16},
    "faults": {"policy": "abort",
               "events": [{"kind": "host_crash", "time": 100.0, "host": "node-12"}]},
    "axes": [{"param": "topology_nodes", "values": [8, 16]}]
  })",
                                                       "test spec"));
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 3u);
  const auto trace = smpi::workload::generate_workload(spec.workload);

  cp::RunOptions options;
  options.workers = 1;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  ASSERT_EQ(outcome.results.size(), 3u);
  ASSERT_TRUE(outcome.results[0].ok) << outcome.results[0].error;
  EXPECT_FALSE(outcome.results[1].ok);
  EXPECT_NE(outcome.results[1].error.find("unknown host"), std::string::npos)
      << outcome.results[1].error;
  ASSERT_TRUE(outcome.results[2].ok) << outcome.results[2].error;
  EXPECT_EQ(outcome.results[2].simulated_time, outcome.results[0].simulated_time);
}

TEST(CampaignHardening, FaultAxesRejectSpecsWithoutFaults) {
  // fault_seed is only meaningful with a campaign-level random fault block;
  // the contract fires when the scenario is materialized.
  const auto spec = cp::CampaignSpec::parse(parse_json(R"({
    "platform": {"kind": "flat"},
    "axes": [{"param": "fault_seed", "values": [1]}]
  })",
                                                       "test spec"));
  const auto scenarios = cp::enumerate_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_NO_THROW(cp::materialize(spec, scenarios[0], 4));  // baseline: no override
  EXPECT_THROW(cp::materialize(spec, scenarios[1], 4), ContractError);
}

TEST(CampaignHardening, WatchdogFarBeyondAnyRunIsInRange) {
  // A watchdog of ~116 days puts the poll timeout in milliseconds past an
  // int; the runner clamps it instead of overflowing the conversion.
  const auto spec = cp::CampaignSpec::parse(parse_json(R"({
    "name": "long-watchdog",
    "platform": {"kind": "flat"},
    "workload": {"name": "w", "ranks": 4, "seed": 3, "pattern": "stencil2d",
                 "iterations": 2, "bytes": 4096},
    "axes": [{"param": "cpu_scale", "values": [1, 2]}],
    "timeout_s": 1e7
  })",
                                                       "test spec"));
  EXPECT_EQ(spec.timeout_s, 1e7);
  const auto scenarios = cp::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);
  cp::RunOptions options;
  options.workers = 1;
  const auto outcome = cp::run_campaign(spec, scenarios, trace, options);
  ASSERT_EQ(outcome.results.size(), scenarios.size());
  for (const auto& r : outcome.results) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(r.timed_out);
  }

  // A timeout that is not a finite number >= 0 is rejected at parse time.
  for (const char* bad : {"1e400", "-1"}) {
    EXPECT_THROW(cp::CampaignSpec::parse(
                     parse_json(std::string(R"({"platform": {"kind": "flat"}, "timeout_s": )") +
                                    bad + "}",
                                "test spec")),
                 ContractError)
        << bad;
  }
}
