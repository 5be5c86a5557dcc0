// Campaign aggregation: turn scenario result capsules into reports.
//
// Every speedup is relative to scenario 0 (the implicit unmodified-platform
// baseline): speedup > 1 means the what-if finished the application faster
// than the captured platform would have. The JSON report carries the full
// per-rank breakdowns; the CSV flattens one row per run for
// spreadsheet/pandas use; the text summary ranks the best and worst
// scenarios for a terminal reader.
//
// Replicated (Monte-Carlo) campaigns fold each scenario's N noise-seeded
// runs into per-scenario statistics: the JSON row gains a "replications"
// array (one full per-rep result each, speedups paired against the same-rep
// baseline) and a "stats" object (mean/stddev/min/max/p5/p50/p95 and a
// seeded bootstrap CI of the mean over simulated time), the document gains
// "replications", "noise_seed", and a "rank_stability" verdict — how often
// the fastest-by-mean scenario also wins within a single replication.
// Ranking is by mean and only covers scenarios whose every replication
// succeeded. The CSV stays one row per run, with a "rep" column.
#pragma once

#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "util/json.hpp"

namespace smpi::campaign {

// Full report document (serialize with .dump(2) for files).
util::JsonValue report_json(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                            const CampaignOutcome& outcome);

// One header line + one row per run (RFC-4180-ish; labels quoted).
std::string report_csv(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                       const CampaignOutcome& outcome);

// Human-readable ranking: baseline, the `top` best and `top` worst scenarios
// by simulated time, failures last.
std::string report_summary(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                           const CampaignOutcome& outcome, int top = 3);

// One run's result as report-row fields (see the field table in report.cpp):
// a single-run row, a replication entry, and, plus "id" and "rep", the
// capsule a worker sends back. `baseline` is the same-rep baseline; nullptr
// (a capsule) leaves out the derived fields such as speedup_vs_baseline.
void set_result_fields(util::JsonValue& row, const ScenarioResult& r,
                       const ScenarioResult* baseline);

// Inverse of set_result_fields. Fields older reports lack (retries, the
// harness diagnostics, p2p, analysis, resources) read as zero/false; any
// other missing field throws ContractError.
ScenarioResult read_result_fields(const util::JsonValue& row, int id, int rep);

// Inverse of report_json for resuming a sweep: extracts the per-run results
// of a prior report, indexed by unit = scenario_id * replications + rep, for
// RunOptions::resume. The report must belong to the same sweep — campaign
// name, scenario count, replication count and noise seed, trace source
// (trace dir, or workload name/ranks/seed/phase count), base platform, and
// per-row labels are all checked (a stale report silently reused would
// stitch results from two different configurations into one file). Failed
// or missing runs come back with ok == false so exactly they re-run.
std::vector<ScenarioResult> results_from_report(const util::JsonValue& report,
                                                const CampaignSpec& spec,
                                                const std::vector<Scenario>& scenarios);

}  // namespace smpi::campaign
