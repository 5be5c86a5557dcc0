// CPU model: hosts expose cores x speed flop/s; computations are fluid
// actions sharing the host capacity through the same max-min solver as the
// network (a single process never exceeds one core's speed).
//
// Like the network model, the CPU model is heap-driven: each execution owns
// one completion entry in the engine's event calendar, remaining flops are
// tracked lazily per execution, and a re-solve reschedules only the
// executions whose rate changed.
//
// The MPI layer turns measured CPU-burst durations into flops through
// node_speed(), implementing the host-to-target scaling of §3.1.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "platform/platform.hpp"
#include "sim/model.hpp"
#include "surf/maxmin.hpp"

namespace smpi::obs {
class ResourceCollector;
}

namespace smpi::surf {

class CpuModel final : public sim::Model, public sim::ComputeBackend {
 public:
  // A non-null `resources` gets one resource per host here and a snapshot
  // of every changed host at each settle (see FlowNetworkModel).
  explicit CpuModel(const platform::Platform& platform,
                    SolveMode solver_mode = SolveMode::kLazy,
                    obs::ResourceCollector* resources = nullptr);

  // sim::ComputeBackend
  sim::ActivityPtr execute(int node, double flops) override;
  double node_speed(int node) const override;

  // sim::Model
  void on_calendar_event(double now, std::uint64_t tag) override;
  void on_settle(double now) override;

  std::size_t active_execution_count() const { return executions_.size(); }
  const MaxMinSystem& solver() const { return system_; }

  // Resource observability: final drain into the collector (see
  // FlowNetworkModel::flush_observations). No-op without one.
  void flush_observations(double now);

  // Availability (driven by sim::FaultModel): a down host fails its running
  // executions (kFailed) and rejects new ones; recovery re-enables it. State
  // allocates lazily on the first fault, so fault-free runs pay one bool
  // check per execute().
  void set_host_up(int host, bool up);
  bool host_is_up(int host) const;

 private:
  struct Execution {
    std::uint64_t id = 0;
    int node = -1;
    sim::ActivityPtr activity;
    sim::FluidWork work;
    int var = -1;
    int res_flow = -1;  // obs::ResourceCollector attribution id (lazy)
    sim::EventCalendar::Handle event = sim::EventCalendar::kNoEvent;
  };

  void resettle(double now);
  void reschedule(Execution& exec, double now);
  void flush_resource_snapshots(double now);

  const platform::Platform& platform_;
  MaxMinSystem system_;
  std::vector<int> host_constraint_;
  // Resource observability state (see FlowNetworkModel).
  obs::ResourceCollector* resources_ = nullptr;
  std::vector<int> constraint_resource_;
  std::vector<int> changed_scratch_;
  std::vector<std::pair<int, double>> var_shares_scratch_;
  std::vector<std::pair<int, double>> flow_shares_scratch_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Execution>> executions_;
  // Indexed by solver variable id (recycled, stays dense); nullptr when free.
  std::vector<Execution*> var_to_execution_;
  std::uint64_t next_execution_id_ = 1;
  bool faults_enabled_ = false;
  std::vector<char> host_up_;  // per host id; empty until the first fault
};

}  // namespace smpi::surf
