// Flow-level network model (SURF analogue, §4).
//
// A transfer is a *flow*: after a latency phase (sum of route link latencies
// scaled by the piece-wise model's lat_factor) it enters the bandwidth-
// sharing system, where the max-min solver splits each link's capacity among
// the flows crossing it. The flow's rate is additionally capped by
//   - the piece-wise model: bw_factor(size) x bottleneck bandwidth,
//   - a TCP congestion-window bound: window / RTT,
//   - any caller-provided bound (FlowHints).
//
// The model is heap-driven: each active flow owns one completion entry in
// the engine's event calendar, and a solver re-solve reschedules entries
// only for the flows whose allocation actually changed (the solver's
// update-notification list). Remaining bytes are tracked lazily per flow as
// a (rate, last_update) pair — see sim::FluidWork.
//
// Setting `contention = false` reproduces the naive simulators of §2/§7
// (every flow gets its full rate regardless of sharing) — the white bars of
// Figures 7 and 11.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "platform/platform.hpp"
#include "sim/model.hpp"
#include "surf/maxmin.hpp"
#include "surf/piecewise.hpp"

namespace smpi::obs {
class ResourceCollector;
}

namespace smpi::surf {

struct NetworkConfig {
  PiecewiseFactors factors;           // default: affine with factors 1
  double bandwidth_efficiency = 0.92; // achievable fraction of nominal capacity under sharing
  double tcp_window_bytes = 4.0 * 1024 * 1024;  // 0 disables the window bound
  bool contention = true;
  // Solve strategy for the bandwidth-sharing (and, via SmpiWorld, the CPU)
  // system: lazy modified-set propagation (default), whole-component
  // re-solve, or the full reference path for equivalence testing.
  SolveMode solver_mode = SolveMode::kLazy;
  // Stochastic per-message latency jitter hook (noise::MessageJitter):
  // called once per non-loopback flow at creation, its return value (in
  // seconds, must be >= 0) is added to the flow's latency phase. Null — the
  // default — means no call is made and the deterministic path is taken
  // untouched: a run without noise is bit-identical to one before this hook
  // existed.
  std::function<double(int src, int dst)> latency_jitter;
};

class FlowNetworkModel final : public sim::Model, public sim::NetworkBackend {
 public:
  // A non-null `resources` gets one resource per shared link here, and the
  // solver's changed-constraint tracking is turned on for it.
  FlowNetworkModel(const platform::Platform& platform, NetworkConfig config,
                   obs::ResourceCollector* resources = nullptr);
  ~FlowNetworkModel() override;

  // sim::NetworkBackend
  sim::ActivityPtr start_flow(int src_node, int dst_node, double bytes,
                              const sim::FlowHints& hints) override;
  const char* backend_name() const override { return "surf-flow"; }

  // sim::Model
  void on_calendar_event(double now, std::uint64_t tag) override;
  void on_settle(double now) override;

  // The duration a single uncontended transfer of `bytes` would take — the
  // closed-form alpha_k + s/beta_k the piece-wise model predicts. Used by
  // tests and by calibration sanity checks.
  double uncontended_duration(int src_node, int dst_node, double bytes) const;

  const NetworkConfig& config() const { return config_; }
  std::size_t active_flow_count() const { return active_flows_; }
  std::uint64_t total_flows_started() const { return total_flows_; }

  // Property-test hook: total allocated rate through a link's constraint.
  double link_usage(int link_id);

  // --- availability (driven by sim::FaultModel) ----------------------------
  // A down host fails every in-flight flow touching it (kFailed) and rejects
  // new flows from/to it; a down link does the same for flows crossing it.
  // Degrade scales a shared link's effective capacity by `factor` (persists
  // across down/up; fatpipe links have no shared constraint, so degradation
  // is a documented no-op there). All state allocates lazily on first use —
  // a fault-free run touches none of it.
  void set_host_up(int host, bool up);
  void set_link_up(int link, bool up);
  void set_link_degrade(int link, double factor);
  bool host_is_up(int host) const;
  bool link_is_up(int link) const;

  // Perf counter: solver work actually performed (see MaxMinSystem).
  const MaxMinSystem& solver() const { return system_; }

  // Resource observability: drain any still-pending solver changes into the
  // obs::ResourceCollector (the settle path does this implicitly; the world
  // calls it once more after the run so the final completions' usage drop
  // reaches the timeline). No-op without a collector.
  void flush_observations(double now);

 private:
  struct Flow {
    std::uint32_t slot = 0;  // its own index in slots_ (for calendar tags)
    // Generation stamp: bumped when the slot retires, so calendar entries
    // referring to a dead occupant are recognized as stale.
    std::uint32_t gen = 0;
    // Latency phase: the first calendar event promotes the flow into the
    // bandwidth-sharing system instead of completing it. Using the calendar
    // for both phases (rather than an engine timer for the first) keeps the
    // per-message cost at one indexed-heap entry; ordering is unchanged
    // because timers and calendar entries share one (date, seq) order.
    bool in_latency = false;
    double pending_bytes = 0;
    // Endpoints and route, kept for the flow's whole lifetime so the fault
    // layer can find the flows a dead host/link strands. `links` keeps its
    // capacity when the slot is recycled, so steady state does not allocate.
    int src = -1;
    int dst = -1;
    std::vector<int> links;
    sim::ActivityPtr activity;
    sim::FluidWork work;
    int var = -1;  // -1 when not in the solver (no-contention mode)
    int res_flow = -1;  // obs::ResourceCollector attribution id (lazy)
    double bound = 0;
    sim::EventCalendar::Handle event = sim::EventCalendar::kNoEvent;
  };

  // Compute (latency, rate bound) for a transfer along `links`.
  void path_parameters(const std::vector<int>& links, double bytes, double* latency_out,
                       double* bound_out) const;
  // Slot bookkeeping: a live flow is identified by (slot, generation),
  // packed into the calendar tag / latency-timer capture as gen<<32 | slot.
  // Slot storage is stable (unique_ptr) and recycled, so the steady-state
  // per-message cost is two vector pushes/pops — no hashing, no per-flow
  // heap node. An earlier revision kept flows in an id-keyed hash map with
  // extracted-node recycling; the insert/extract shuffle was the single
  // hottest line of a 1024-rank collective profile.
  static std::uint64_t pack_tag(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 32) | slot;
  }
  std::uint32_t acquire_slot();
  void retire_slot(std::uint32_t slot);

  // End of the latency phase: the flow enters the bandwidth-sharing system.
  void promote(Flow& flow);
  // Re-solve if dirty and reschedule completion events for the flows whose
  // rate changed.
  void resettle(double now);
  void reschedule(Flow& flow, double now);
  void complete(Flow& flow, sim::Activity::State state);
  // Lazily size the availability vectors (first fault only).
  void ensure_fault_state();
  // Fail (kFailed) every active flow for which `doomed` is true.
  template <typename Pred>
  void fail_matching_flows(const Pred& doomed);

  // Drain the solver's changed constraints into the resource collector
  // (observing mode only; called at every settle).
  void flush_resource_snapshots(double now);

  const platform::Platform& platform_;
  NetworkConfig config_;
  MaxMinSystem system_;
  std::vector<int> link_constraint_;  // per link id; -1 for fatpipe links
  // Resource observability (null/empty without a collector): constraint id
  // -> collector resource id, plus snapshot scratch so the settle path stays
  // allocation-free in steady state.
  obs::ResourceCollector* resources_ = nullptr;
  std::vector<int> constraint_resource_;
  std::vector<int> changed_scratch_;
  std::vector<std::pair<int, double>> var_shares_scratch_;
  std::vector<std::pair<int, double>> flow_shares_scratch_;
  // Route of the flow being posted, before it has a slot to own it.
  std::vector<int> route_scratch_;
  std::vector<std::unique_ptr<Flow>> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t active_flows_ = 0;
  // Indexed by solver variable id — ids are recycled, so this stays as small
  // as the peak concurrent flow count; nullptr for retired slots.
  std::vector<Flow*> var_to_flow_;
  std::uint64_t total_flows_ = 0;
  // Availability state; empty until the first fault (ensure_fault_state), so
  // fault-free runs pay a single bool check per flow.
  bool faults_enabled_ = false;
  std::vector<char> host_up_;        // per host id
  std::vector<char> link_up_;        // per link id
  std::vector<double> link_degrade_; // per link id; capacity factor in (0, 1]
};

}  // namespace smpi::surf
