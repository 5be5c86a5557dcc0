// Campaign execution: a fork-based scenario worker pool.
//
// A simulation is process-global (one SmpiWorld at a time, reached by the C
// MPI entry points through a current-world pointer; raw contexts; the
// self-profiler slot), so the correct unit of parallelism for a sweep is
// the *process*, not the thread: each worker is a fork()ed child that
// constructs a fresh world per scenario and exits without ever sharing
// mutable simulator state. The trace is loaded once in
// the parent before forking, so workers read it through copy-on-write pages
// — a 64-rank trace is parsed exactly once no matter how many scenarios run.
//
// Protocol (all pipes, no shared memory):
//   parent -> worker : {int32 scenario id, int32 flags}; id -1 = shut down
//                      (flags carry the harness-test fault-injection hooks)
//   worker -> parent : uint32 capsule length + capsule bytes
//
// A capsule is the unit's report row plus its id and rep, in JSON, written
// and read by the same field table as the report (see report.hpp), so a dead
// worker can only lose its own in-flight scenario. The parent is hardened against misbehaving workers:
// a worker that dies mid-scenario is reaped (its exit cause recorded on the
// row) and the scenario is retried ONCE on a freshly forked worker after a
// short backoff; a scenario that outlives the wall-clock watchdog gets its
// worker SIGKILLed and is recorded as a timeout without retry (a retry
// would just burn another timeout). The pool is refilled after every loss,
// so one bad scenario cannot drain the sweep's parallelism.
// Scenario results are deterministic by construction — a scenario's child
// process sees identical inputs whatever the worker count — which the
// campaign tests assert bit-for-bit.
//
// Monte-Carlo campaigns (spec.replications = R > 1) multiply the work list:
// the dispatch unit is one (scenario, replication) pair, encoded as
// unit = scenario_id * R + rep. Each replication materializes the scenario
// under its own noise sub-seed and runs as an ordinary unit — watchdog,
// retry-once, and crash isolation all apply per replication, and the
// determinism guarantee holds per unit. CampaignOutcome::results is indexed
// by unit (for R = 1 that is exactly the old scenario indexing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "trace/reader.hpp"

namespace smpi::campaign {

struct ScenarioResult {
  int id = -1;   // scenario id
  int rep = 0;   // replication index in [0, spec.replications)
  bool ok = false;
  std::string error;
  // Harness accounting (parent-side): how many extra dispatches this
  // scenario needed, whether the watchdog killed it, and how its worker
  // exited when it died ("killed by signal 9", "exited with status 33").
  int retries = 0;
  bool timed_out = false;
  std::string worker_exit;
  double simulated_time = 0;
  double wall_s = 0;       // worker-side wall clock for this scenario
  long long records = 0;
  int ranks = 0;
  std::uint64_t arena_bytes = 0;
  // Per-rank simulated-time breakdown (compute vs communication).
  std::vector<double> rank_compute_s;
  std::vector<double> rank_comm_s;
  // Solver work (network + cpu max-min systems).
  std::uint64_t solver_solves = 0;
  std::uint64_t solver_vars_touched = 0;
  std::uint64_t solver_cons_touched = 0;
  // p2p hot-path accounting (pool reuse, zero-copy eager activity).
  core::P2pCounters p2p;
  // Wait-state / critical-path analysis of this run (present when the
  // spec's "analysis" flag was on — the default).
  bool analyzed = false;
  double wait_fraction = 0;    // blocked-on-a-peer share of total MPI+compute time
  double critical_path_s = 0;  // == simulated_time up to fp tolerance
  double cp_compute_s = 0;     // critical path split: local work vs. wire time
  double cp_comm_s = 0;
  std::string dominant_wait;   // "late_sender" | "late_receiver" | "early_arrival" | "none"
  std::vector<double> rank_wait_s;      // per-rank blocked-on-peer time
  std::vector<double> rank_transfer_s;  // per-rank wire-busy time
  // Resource-utilization summary (present when the spec's "resources" flag
  // was on — the default): the link/host with the most saturated seconds
  // and the peak link utilization across the run.
  bool resources_analyzed = false;
  std::string top_bottleneck;        // empty = nothing ever saturated
  double bottleneck_saturated_s = 0;
  double max_link_utilization = 0;   // fraction of capacity, in [0, 1]

  double compute_total_s() const;
  double comm_total_s() const;
  double compute_max_s() const;
  double comm_max_s() const;
};

struct RunOptions {
  int workers = 1;
  // Print one line per finished scenario to stderr as results land.
  bool progress = false;
  // Per-scenario wall-clock watchdog in seconds; 0 = use the spec's
  // timeout_s (which defaults to none). An expired scenario's worker is
  // SIGKILLed and the row is recorded as a timeout.
  double timeout_s = 0;
  // Test hooks: fault injection for the harness itself. The worker that is
  // handed `crash_scenario` _exit()s instead of running it (once, or on
  // every attempt with crash_always); the worker handed `hang_scenario`
  // sleeps forever so the watchdog has something to kill. -1 = disabled.
  int crash_scenario = -1;
  bool crash_always = false;
  int hang_scenario = -1;
  // Resume support: results adopted from a prior report (indexed by unit =
  // scenario_id * replications + rep; shorter-than-units is fine). Entries
  // with ok == true are carried over verbatim and their units are never
  // dispatched; everything else re-runs. Build with results_from_report
  // (report.hpp).
  std::vector<ScenarioResult> resume;
};

struct CampaignOutcome {
  std::vector<ScenarioResult> results;  // indexed by unit = id * replications + rep
  double wall_s = 0;                    // parent-side wall clock for the sweep
  int workers = 0;
  int resumed = 0;       // units adopted from options.resume
  int replications = 1;  // spec.replications, echoed for consumers
};

// Runs every scenario of `scenarios` over `trace` with `options.workers`
// processes. When the campaign's trace source is a workload, `trace` is the
// baseline (unmodified) generation and scenarios carrying workload_*
// overrides regenerate their own variant inside the worker. Throws
// ContractError on protocol-level failures (e.g. every worker died);
// per-scenario simulation errors land in the result capsules.
CampaignOutcome run_campaign(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                             const trace::TiTrace& trace, const RunOptions& options);

}  // namespace smpi::campaign
