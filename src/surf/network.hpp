// Flow-level network model (SURF analogue, §4).
//
// A transfer is a *flow*: after a latency phase (sum of route link latencies
// scaled by the piece-wise model's lat_factor) it enters the bandwidth-
// sharing system, where the max-min solver splits each link's capacity among
// the flows crossing it. The flow's rate is additionally capped by
//   - the piece-wise model: bw_factor(size) x bottleneck bandwidth,
//   - a TCP congestion-window bound: window / RTT.
//
// Flows are the sharing core's actions (surf/sharing.hpp): each active flow
// owns one completion entry in the engine's event calendar, and a re-solve
// reschedules entries only for the flows whose allocation actually changed.
// This model adds routes, the latency phase, link faults and degradation.
//
// Setting `contention = false` reproduces the naive simulators of §2/§7
// (every flow gets its full rate regardless of sharing) — the white bars of
// Figures 7 and 11.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "sim/model.hpp"
#include "surf/piecewise.hpp"
#include "surf/sharing.hpp"

namespace smpi::surf {

struct NetworkConfig {
  PiecewiseFactors factors;           // default: affine with factors 1
  double bandwidth_efficiency = 0.92; // achievable fraction of nominal capacity under sharing
  double tcp_window_bytes = 4.0 * 1024 * 1024;  // 0 disables the window bound
  bool contention = true;
  // Solve strategy for the bandwidth-sharing (and, via SmpiWorld, the CPU)
  // system: lazy modified-set propagation (default) or the full reference
  // re-solve for equivalence testing.
  SolveMode solver_mode = SolveMode::kLazy;
  // Stochastic per-message latency jitter hook (noise::MessageJitter):
  // called once per non-loopback flow at creation, its return value (in
  // seconds, must be >= 0) is added to the flow's latency phase. Null — the
  // default — means no call is made and the deterministic path is taken
  // untouched: a run without noise is bit-identical to one before this hook
  // existed.
  std::function<double(int src, int dst)> latency_jitter;
};

class FlowNetworkModel final : public SharingModel, public sim::NetworkBackend {
 public:
  // A non-null `resources` gets one resource per shared link here, and the
  // solver's changed-constraint tracking is turned on for it.
  FlowNetworkModel(const platform::Platform& platform, NetworkConfig config,
                   obs::ResourceCollector* resources = nullptr);

  // sim::NetworkBackend
  sim::ActivityPtr start_flow(int src_node, int dst_node, double bytes) override;

  // sim::Model
  void on_calendar_event(double now, std::uint64_t tag) override;

  // The duration a single uncontended transfer of `bytes` would take — the
  // closed-form alpha_k + s/beta_k the piece-wise model predicts. Used by
  // tests and by calibration sanity checks.
  double uncontended_duration(int src_node, int dst_node, double bytes) const;

  const NetworkConfig& config() const { return config_; }

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
  bool link_is_up(int link) const;

 private:
  struct Flow : Action {
    // Latency phase: the first calendar event promotes the flow into the
    // bandwidth-sharing system instead of completing it. Using the calendar
    // for both phases (rather than an engine timer for the first) keeps the
    // per-message cost at one indexed-heap entry; ordering is unchanged
    // because timers and calendar entries share one (date, seq) order.
    bool in_latency = false;
    double pending_bytes = 0;
    double bound = 0;
    // Endpoints and route, kept for the flow's whole lifetime so the fault
    // layer can find the flows a dead host/link strands. `links` keeps its
    // capacity when the slot is recycled, so steady state does not allocate.
    int src = -1;
    int dst = -1;
    std::vector<int> links;
  };

  // Compute (latency, rate bound) for a transfer along `links`.
  void path_parameters(const std::vector<int>& links, double bytes, double* latency_out,
                       double* bound_out) const;
  // End of the latency phase: the flow enters the bandwidth-sharing system.
  void promote(Flow& flow);
  // Flow labels are src->dst host names, e.g. "node-0->node-3".
  std::string action_label(const Action& action) const override;
  // Lazily allocates the fault state, link availability included.
  void enable_link_faults();

  NetworkConfig config_;
  std::vector<int> link_constraint_;  // per link id; -1 for fatpipe links
  // Route of the flow being posted, before it has a slot to own it.
  std::vector<int> route_scratch_;
  std::vector<char> link_up_;  // per link id; empty until the first link fault
};

}  // namespace smpi::surf
