// Offline replay: re-simulate a captured TI trace on any platform.
//
// Each rank becomes a replay actor that walks its record list and re-issues
// the recorded operations through the ordinary MPI entry points, so the
// replayed traffic exercises the same collective algorithms, matching
// engine, and surf contention models as the online run — only the
// application code and its memory are gone. All payloads are served from
// one shared scratch arena (sized to the largest single operation, not to
// rank count x message size) and the world runs in payload-free mode, so a
// 1024-rank trace replays without allocating any per-rank application data.
// Collective algorithms also skip their internal staging buffers in this
// mode (see coll.cpp) — a replay moves no payload bytes at all.
//
// The trace-taking overload is the unit the campaign engine multiplies: a
// what-if sweep loads the trace once, then replays the same immutable
// TiTrace under many platform/config variants (one fresh SmpiWorld per
// scenario, so re-entry is clean by construction). Its ReplayResult is the
// campaign row's record: campaign::ScenarioResult derives from it and adds
// only harness fields, so a member added here reaches reports, capsules
// and the CSV through one line of the row's field table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "platform/platform.hpp"
#include "smpi/smpi.hpp"
#include "surf/maxmin.hpp"

namespace smpi::obs {
class ResourceCollector;
class SpanCollector;
}  // namespace smpi::obs

namespace smpi::trace {

class PajeWriter;
struct TiTrace;

struct ReplayOptions {
  // Optional time-stamped timeline of the replay (owned by the caller;
  // begun and finished by the replay's world).
  PajeWriter* paje = nullptr;
  // Pre-computed compute_arena_bytes(trace) result; 0 = compute here. A
  // campaign scans the trace once instead of once per scenario.
  long long arena_bytes_hint = 0;
  // Replay in payload-free mode (the default, and the point of the
  // subsystem). false re-enables every payload copy — simulated time is
  // identical, only the replay's wall-clock cost changes, which makes it a
  // campaign axis for measuring what payload-free buys.
  bool payload_free = true;
  // Collect per-op spans during the replay and run the wait-state /
  // critical-path analysis over them (ReplayResult::analysis). Off by
  // default: with analyze off the replay takes the exact same simulated-time
  // trajectory and the span hooks reduce to a pointer test.
  bool analyze = false;
  // Caller-owned span collector (sized to the trace's rank count) for a
  // caller that needs the spans after the replay, e.g. to export them.
  // Non-null implies `analyze`; null with `analyze` set keeps a collector
  // local to the call.
  obs::SpanCollector* spans = nullptr;
  // Resource-utilization observability (caller-owned, like `paje`): when
  // non-null the replay world's surf models register their links/hosts with
  // it and push exact utilization snapshots at every settle, and
  // ReplayResult's bottleneck summary fields are filled from it. The world
  // finalizes it (intervals closed at the makespan) before replay_trace
  // returns. Null keeps the solver's changed-tracking off — simulated times
  // and solver counters are bit-identical.
  obs::ResourceCollector* resources = nullptr;
};

struct ReplayResult {
  double simulated_time = 0;
  long long records = 0;
  int ranks = 0;
  // Set when a rank aborted the replay (MPI_Abort, or a resource failure
  // under the fault model's abort policy). `failure` carries the first
  // fault diagnostic when the abort came from the failure model.
  bool aborted = false;
  int abort_code = 0;
  std::string failure;
  std::uint64_t arena_bytes = 0;
  // Per-rank simulated-time split, indexed by world rank: time inside
  // compute/sleep records vs. time inside communication records (sends,
  // receives, waits, collectives — blocked on the network or on peers).
  std::vector<double> rank_compute_s;
  std::vector<double> rank_comm_s;
  // Filled only when `analyzed`: rank_comm_s split into time truly blocked
  // on a peer (wait) vs. time the wire was busy (transfer). In that mode
  // rank_compute_s/rank_comm_s are re-derived from the span layer, which
  // fixes the attribution of overlapped nonblocking operations — a transfer
  // that progressed underneath a compute record no longer has its MPI_Wait
  // charged as if the whole interval were communication.
  std::vector<double> rank_wait_s;
  std::vector<double> rank_transfer_s;
  // Cumulative solver work over the whole replay (network + cpu systems);
  // zero under the packet backend.
  std::uint64_t solver_solves = 0;
  std::uint64_t solver_vars_touched = 0;
  std::uint64_t solver_cons_touched = 0;
  // Hot-path accounting: free-list pool effectiveness and zero-copy eager
  // activity (see core::P2pCounters). In payload-free replay the eager
  // copy counters stay zero by construction — no payload moves at all.
  core::P2pCounters p2p;
  // Wait-state / critical-path analysis of this replay; only meaningful
  // when `analyzed` is set (ReplayOptions::analyze was on).
  bool analyzed = false;
  obs::AnalysisResult analysis;
  // Resource-utilization summary (ReplayOptions::resources): the dominant
  // bottleneck by saturated time (empty name: nothing ever saturated) and
  // the peak link utilization across the run. Only meaningful when
  // `resources_analyzed` is set; the full timelines and saturation ledger
  // stay on the caller's collector.
  bool resources_analyzed = false;
  std::string top_bottleneck;
  double bottleneck_saturated_s = 0;
  double max_link_utilization = 0;
  // surf.* observation counters summed over the network and CPU solvers
  // (always filled; feeds obs::collect_surf).
  surf::MaxMinSystem::ObserveCounters surf_observe;
};

// Size of the shared scratch arena a replay of `trace` needs: the largest
// buffer any single recorded operation may span.
long long compute_arena_bytes(const TiTrace& trace);

// Loads `<trace_dir>` and re-simulates it over `platform`. `config` should
// match the capture run's model configuration (network model, personality);
// config.payload_free is overridden by options.payload_free (on by
// default). Throws util::ContractError on a bad trace.
ReplayResult replay_trace(const platform::Platform& platform, core::SmpiConfig config,
                          const std::string& trace_dir, const ReplayOptions& options = {});

// Same, over an already-loaded trace (re-enterable: call as many times as
// you like, with any platform/config per call).
ReplayResult replay_trace(const platform::Platform& platform, core::SmpiConfig config,
                          const TiTrace& trace, const ReplayOptions& options = {});

}  // namespace smpi::trace
