// Campaign specifications: a declarative description of a what-if sweep.
//
// A campaign takes ONE trace source — a captured TI trace, or a synthetic
// workload spec compiled to the same records — and re-simulates it across
// the cross-product of parameter axes: platform knobs (link
// bandwidth/latency, host speed, topology size, rank placement), SMPI knobs
// (forced collective algorithms, eager threshold, payload-free mode), and,
// when the source is a workload, workload knobs (rank count, message size,
// compute imbalance, iteration count, seed). Scenario 0 is always the
// implicit baseline (no overrides): every report's speedups are relative to
// it, and it doubles as the capture-equivalence canary (replayed on the
// unmodified platform it must reproduce the online simulated time).
//
// Spec format (JSON):
//
//   {
//     "name": "bw-sweep",
//     "trace": "ti_dir",                     // optional, CLI can override
//     "workload": {...} | "workload.json",   // alternative trace source:
//     //   an inline workload spec (see src/workload/spec.hpp) or a path to
//     //   one; mutually exclusive with "trace"
//     "platform": {"kind": "flat", "nodes": 16},
//     // kind: flat | hierarchical-griffon | hierarchical-gdx | xml
//     //   flat: optional "nodes" (default = trace rank count)
//     //   xml:  "file": "platform.xml"
//     "axes": [
//       {"param": "link_bandwidth_scale", "values": [0.5, 1, 2]},
//       {"param": "host_speed", "host": "node-0", "values": [1e9, 4e9]},
//       {"param": "link_latency", "link": "l-backbone", "values": [5e-5]},
//       {"param": "coll_bcast", "values": ["binomial", "scatter_ring_allgather"]},
//       {"param": "placement", "values": ["round_robin", "block", "stride:2"]},
//       {"param": "payload_free", "values": [true, false]}
//     ]
//   }
//
// Parameters and their values' contract (one row each in spec.cpp's kParams,
// with its effect); numbers are finite, ints are integral numbers:
//   host_speed_scale      x all hosts' flop rate                number > 0
//   link_bandwidth_scale  x all links' bandwidth                number > 0
//   link_latency_scale    x all links' latency                  number >= 0
//   host_speed            absolute flop rate, needs "host"      number > 0
//   link_bandwidth        absolute bytes/s, needs "link"        number > 0
//   link_latency          absolute seconds, needs "link"        number >= 0
//   cpu_scale             SmpiConfig::cpu_scale                 number > 0
//   topology_nodes        rebuild the flat base with N nodes    int in [1, 2^31)
//                         (N < ranks oversubscribes hosts)
//   placement             round_robin | block | stride:<k> (rank->host map; int k >= 1)
//   coll_bcast            auto | binomial | scatter_ring_allgather
//   coll_alltoall         auto | bruck | basic | pairwise
//   coll_allreduce        auto | recursive_doubling | rabenseifner | reduce_bcast
//   coll_allgather        auto | recursive_doubling | ring
//   payload_free          true | false (replay with or without payload motion)
//   eager_threshold       Personality::eager_threshold, bytes   number in [0, 2^64)
//   overhead_send         sender's per-message CPU cost, s      number >= 0
//   overhead_recv         receiver's per-message CPU cost, s    number >= 0
//   copy_cost             eager staging-copy cost, s per byte   number >= 0
//   workload_ranks        regenerate the workload at N ranks    int in [1, 2^31)
//   workload_bytes        every phase's message size, bytes     int in [0, 2^63)
//   workload_iterations   every phase's iteration count         int in [1, 2^31)
//   workload_imbalance    every phase's compute.imbalance       number in [0, 1)
//   workload_seed         the workload RNG seed                 int in [0, 2^63)
//   fault_seed            the fault generator's RNG seed        int in [0, 2^63)
//   fault_time_scale      x all fault times and the random window  number > 0
//   fault_count_scale     x the random fault counts, rounded    number >= 0
//   noise_seed            the noise model's base RNG seed       int in [0, 2^63)
//
// CampaignSpec::parse checks every value against its contract, and that the
// spec holds what the param needs: a top-level "faults" spec for fault_* (an
// inline fault spec or a path to one, see src/sim/fault.hpp) with a "random"
// block for fault_seed and fault_count_scale, a "noise" spec for noise_seed,
// the flat base for topology_nodes. An out-of-contract value thus fails the
// parse before any scenario runs. Host and link names can only be checked
// against the built platform: an unknown one fails its scenario when it is
// materialized (an ignored override would poison the sweep's conclusions).
// The workload_* parameters re-run the generator inside the
// worker, so they need a workload trace source, which the CLI may supply
// after the parse: against a captured trace they fail their scenario.
//
// A top-level "timeout_s" sets the per-scenario wall-clock watchdog the
// runner enforces (0 = none; the CLI can override). A top-level "analysis":
// false turns off the per-scenario wait-state / critical-path analysis (on
// by default; see src/obs/analysis.hpp).
//
// Monte-Carlo campaigns: a top-level "noise" key (an inline noise spec or a
// path to one; see src/noise/noise.hpp) perturbs every scenario's platform
// and per-message latency, and "replications": N re-runs each scenario N
// times under independent per-replication noise sub-seeds
// (noise::replication_seed). Each replication is its own work unit in the
// runner — watchdog, retry, and crash isolation apply per replication — and
// the report folds the N simulated times into per-scenario statistics
// (mean, stddev, p5/p50/p95, bootstrap CI) plus a campaign-level
// rank-stability verdict. The noise_seed axis rebases the noise spec's seed
// per scenario; replications > 1 needs a "noise" spec too — replicating a
// deterministic scenario would measure nothing.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "noise/noise.hpp"
#include "platform/platform.hpp"
#include "smpi/smpi.hpp"
#include "util/json.hpp"
#include "workload/spec.hpp"

namespace smpi::campaign {

struct Axis {
  std::string param;
  std::string target;  // host/link name for the absolute-override params
  std::vector<util::JsonValue> values;

  // "host_speed:node-0" for targeted params, else just the param name.
  std::string key() const { return target.empty() ? param : param + ":" + target; }
};

struct CampaignSpec {
  enum class BaseKind { kFlat, kGriffon, kGdx, kXmlFile };

  std::string name = "campaign";
  std::string trace_dir;  // may be empty (supplied by the CLI)
  // Workload trace source (mutually exclusive with trace_dir; the CLI can
  // supply it too). When set, the campaign generates its baseline trace and
  // workers regenerate per-scenario variants for workload_* overrides.
  bool has_workload = false;
  workload::WorkloadSpec workload;
  BaseKind base_kind = BaseKind::kFlat;
  int base_nodes = 0;  // flat base: 0 = use the trace's rank count
  std::string platform_file;
  // Campaign-level failure model applied to every scenario (fault_* axes
  // modify it per scenario); empty = no faults.
  sim::FaultSpec faults;
  // Campaign-level noise model (noise_seed axis rebases its seed); empty =
  // fully deterministic scenarios.
  noise::NoiseSpec noise;
  int replications = 1;  // runs per scenario, under independent noise sub-seeds
  // Per-scenario wall-clock watchdog in seconds (0 = none).
  double timeout_s = 0;
  // Run the wait-state / critical-path analysis inside every replay (JSON
  // "analysis": false opts out). On by default: every report row then
  // carries its wait fraction and critical-path compute/comm split.
  bool analysis = true;
  // Collect per-resource utilization timelines inside every replay and
  // record the bottleneck summary (top saturated link/host, saturated
  // seconds, peak link utilization) on each row. JSON "resources": false
  // opts out; with it off the replay's solver keeps changed-tracking
  // disabled and its trajectory is bit-identical.
  bool resources = true;
  std::vector<Axis> axes;

  // True when any axis sweeps a workload_* parameter. Every scenario but
  // the baseline then overrides the workload, and the runner regenerates
  // its trace instead of replaying the shared baseline.
  bool sweeps_workload() const;

  static CampaignSpec parse(const util::JsonValue& doc);
  static CampaignSpec parse_file(const std::string& path);
};

// One concrete scenario: the chosen value per axis, in axis order. Scenario
// 0 is the implicit baseline with no parameters.
struct Scenario {
  int id = 0;
  std::vector<std::pair<std::string, util::JsonValue>> params;  // axis key -> value
  std::string label;  // "baseline" or "k1=v1 k2=v2"

  const util::JsonValue* find(const std::string& key) const;
};

// Baseline + full cross-product, row-major (the last axis varies fastest).
std::vector<Scenario> enumerate_scenarios(const CampaignSpec& spec);

// Platform + config for one scenario, ready to hand to replay_trace. Throws
// ContractError on unknown host/link targets.
struct ScenarioSetup {
  platform::Platform platform;
  core::SmpiConfig config;
  bool payload_free = true;
};
// `replication` selects the noise sub-seed (noise::replication_seed) the
// scenario's platform perturbation and message jitter draw from; it is
// ignored when the campaign has no noise spec.
ScenarioSetup materialize(const CampaignSpec& spec, const Scenario& scenario, int nranks,
                          int replication = 0);

// The campaign's workload spec with the scenario's workload_* overrides
// applied to every phase; re-validates grid/root/degree contracts against an
// overridden rank count. Throws ContractError on violations, and when the
// campaign's trace source is a capture.
workload::WorkloadSpec apply_workload_overrides(const CampaignSpec& campaign,
                                                const Scenario& scenario);

}  // namespace smpi::campaign
