// The sharing core of the surf models (§5.1: in SURF the CPU and the network
// are the same kind of resource).
//
// An activity of either model is a fluid *action*: a solver variable
// attached to the constraints of the resources it uses, progress tracked
// lazily at the rate the max-min solver gives it (sim::FluidWork), and one
// completion entry in the engine's event calendar. SharingModel holds what
// every such model needs, once:
//   - the MaxMinSystem;
//   - the action table: slots recycled through a free list, each stamped
//     with a generation so stale calendar entries are recognized, plus the
//     solver-variable -> action index;
//   - the settle loop: one re-solve per batch of arrivals and departures,
//     rescheduling only the actions whose rate changed;
//   - resource registration and the snapshot drain into an
//     obs::ResourceCollector;
//   - host availability and the collect-then-fail cascade of a fault.
// A model adds its resources' constraints, starts its actions, handles their
// calendar entries and names them for the resource report (action_label).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "sim/model.hpp"
#include "surf/maxmin.hpp"

namespace smpi::obs {
class ResourceCollector;
enum class ResourceKind : int;
}  // namespace smpi::obs

namespace smpi::surf {

class SharingModel : public sim::Model {
 public:
  // sim::Model: re-solve if dirty, reschedule the actions whose rate
  // changed, then drain the changed constraints into the collector.
  void on_settle(double now) override;

  // Perf counter: solver work actually performed (see MaxMinSystem).
  const MaxMinSystem& solver() const { return system_; }

  // Resource observability: drain any still-pending solver changes into the
  // collector (each settle does this; the world calls it once more after the
  // run so the final completions' usage drop reaches the timeline). No-op
  // without a collector.
  void flush_observations(double now);

  // Availability (driven by sim::FaultModel). The state allocates on the
  // first fault, so a fault-free run pays one bool check per action start.
  bool host_is_up(int host) const;

 protected:
  // Held by the table through this base; a model's action type derives
  // from it.
  struct Action {
    Action() = default;
    Action(const Action&) = delete;
    Action& operator=(const Action&) = delete;
    virtual ~Action() = default;
    std::uint32_t slot = 0;  // its own index in the table (for calendar tags)
    // Bumped when the slot retires, so calendar entries referring to a dead
    // occupant are recognized as stale.
    std::uint32_t gen = 0;
    std::uint64_t start = 0;  // 1-based start counter across the model's actions
    sim::ActivityPtr activity;  // null while the slot is free
    sim::FluidWork work;
    int var = -1;       // solver variable; -1 when not in the solver
    int res_flow = -1;  // obs::ResourceCollector attribution id (lazy)
    sim::EventCalendar::Handle event = sim::EventCalendar::kNoEvent;
  };
  // Order in which a fault fails its victims.
  enum class VictimOrder { kSlot, kStart };

  SharingModel(const platform::Platform& platform, SolveMode solver_mode,
               obs::ResourceCollector* resources);
  ~SharingModel() override;

  // A free slot for a new action of type A (growing the table when none is
  // free), stamped with the next start number. Slot storage is stable and
  // recycled, so the steady-state cost of an action is two vector
  // pushes/pops: no hashing, no per-action heap node. An earlier network
  // revision kept flows in an id-keyed hash map with extracted-node
  // recycling; the insert/extract shuffle was the single hottest line of a
  // 1024-rank collective profile.
  template <typename A>
  A& acquire() {
    if (free_slots_.empty()) add_slot(std::make_unique<A>());
    return static_cast<A&>(take_free_slot());
  }
  // The live action a calendar tag names, or null when its slot retired
  // since; a live one no longer owns a calendar entry.
  Action* fired_action(std::uint64_t tag);
  // Enters `action` into the solver with a rate bound; the caller attaches
  // its constraints.
  void add_variable(Action& action, double bound);
  // Gives the action a calendar entry at `date`, moving its existing one in
  // place when it has a live one.
  void schedule(Action& action, double date);
  // Moves the action's completion entry to its date under the current rate.
  void reschedule(Action& action, double now);
  // Takes the action out (calendar, solver, table), requests a settle so the
  // freed capacity is redistributed in one re-solve, and finishes its
  // activity with `state`. The activity handle is moved out before the slot
  // retires: finish() may run callbacks that start new actions into it.
  void complete(Action& action, sim::Activity::State state);
  // Returns a slot that never entered the solver to the free list.
  void retire(Action& action);

  // Names `constraint` as a collector resource and turns on the solver's
  // changed-constraint tracking. No-op without a collector.
  void add_resource(int constraint, obs::ResourceKind kind, const std::string& name);
  // The action's attribution label in the resource report.
  virtual std::string action_label(const Action& action) const = 0;

  // Allocates the host availability state (idempotent).
  void enable_faults();
  bool faults_enabled() const { return !host_up_.empty(); }
  void set_host_state(int host, bool up);
  // Fails (kFailed) every live action `doomed` accepts. Victims are
  // collected first: failing one retires its slot, and the kFailed
  // callbacks may start fresh actions into recycled slots.
  void fail_actions(const std::function<bool(const Action&)>& doomed, VictimOrder order);

  const platform::Platform& platform_;
  MaxMinSystem system_;

 private:
  static std::uint64_t pack_tag(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 32) | slot;
  }
  void add_slot(std::unique_ptr<Action> action);
  Action& take_free_slot();
  void flush_resource_snapshots(double now);

  std::vector<std::unique_ptr<Action>> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Indexed by solver variable id: ids are recycled, so this stays as small
  // as the peak concurrent action count; null for retired actions.
  std::vector<Action*> var_to_action_;
  std::uint64_t started_ = 0;
  // Resource observability (null/empty without a collector): constraint id
  // -> collector resource id, plus snapshot scratch so the settle path stays
  // allocation-free in steady state.
  obs::ResourceCollector* resources_ = nullptr;
  std::vector<int> constraint_resource_;
  std::vector<int> changed_scratch_;
  std::vector<std::pair<int, double>> var_shares_scratch_;
  std::vector<std::pair<int, double>> flow_shares_scratch_;
  std::vector<char> host_up_;  // per host id; empty until the first fault
};

}  // namespace smpi::surf
