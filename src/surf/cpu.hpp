// CPU model: hosts expose cores x speed flop/s; computations are fluid
// actions sharing the host capacity through the same max-min solver as the
// network (a single process never exceeds one core's speed).
//
// The action table, the settle loop, the resource drain and the fault
// cascade are the sharing core's (surf/sharing.hpp); this model adds one
// constraint per host and starts executions on it.
#pragma once

#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "surf/sharing.hpp"

namespace smpi::surf {

class CpuModel final : public SharingModel {
 public:
  // A non-null `resources` gets one resource per host here and a snapshot
  // of every changed host at each settle (see SharingModel).
  explicit CpuModel(const platform::Platform& platform,
                    SolveMode solver_mode = SolveMode::kLazy,
                    obs::ResourceCollector* resources = nullptr);

  // Burn `flops` on `node`; completes when done under the CPU-sharing model.
  sim::ActivityPtr execute(int node, double flops);

  // sim::Model
  void on_calendar_event(double now, std::uint64_t tag) override;

  // A down host fails its running executions (kFailed, in start order) and
  // rejects new ones; recovery re-enables it.
  void set_host_up(int host, bool up);

 private:
  struct Execution : Action {
    int node = -1;
  };

  // Execution labels are host#start, e.g. "node-0#12".
  std::string action_label(const Action& action) const override;

  std::vector<int> host_constraint_;
};

}  // namespace smpi::surf
