#include "surf/sharing.hpp"

#include <algorithm>

#include "obs/resource.hpp"
#include "util/check.hpp"

namespace smpi::surf {

SharingModel::SharingModel(const platform::Platform& platform, SolveMode solver_mode,
                           obs::ResourceCollector* resources)
    : platform_(platform), resources_(resources) {
  system_.set_mode(solver_mode);
}

SharingModel::~SharingModel() = default;

void SharingModel::add_slot(std::unique_ptr<Action> action) {
  action->slot = static_cast<std::uint32_t>(slots_.size());
  free_slots_.push_back(action->slot);
  slots_.push_back(std::move(action));
}

SharingModel::Action& SharingModel::take_free_slot() {
  Action& action = *slots_[free_slots_.back()];
  free_slots_.pop_back();
  action.start = ++started_;
  return action;
}

SharingModel::Action* SharingModel::fired_action(std::uint64_t tag) {
  Action& action = *slots_[static_cast<std::uint32_t>(tag)];
  if (action.gen != static_cast<std::uint32_t>(tag >> 32)) return nullptr;
  action.event = sim::EventCalendar::kNoEvent;
  return &action;
}

void SharingModel::add_variable(Action& action, double bound) {
  action.var = system_.new_variable(1.0, bound);
  const auto var = static_cast<std::size_t>(action.var);
  if (var_to_action_.size() <= var) var_to_action_.resize(var + 1, nullptr);
  var_to_action_[var] = &action;
}

void SharingModel::on_settle(double now) {
  if (system_.dirty()) {
    system_.solve();
    for (int var : system_.last_solved_variables()) {
      Action* action = static_cast<std::size_t>(var) < var_to_action_.size()
                           ? var_to_action_[static_cast<std::size_t>(var)]
                           : nullptr;
      if (action == nullptr) continue;
      const double rate = system_.value(var);
      if (rate == action->work.rate()) continue;  // allocation unchanged: keep the entry
      action->work.set_rate(rate, now);
      reschedule(*action, now);
    }
  }
  // Flush even when no solve fired: a completion releasing its share on an
  // unsaturated constraint changed its usage without seeding a re-solve.
  flush_observations(now);
}

void SharingModel::schedule(Action& action, double date) {
  // Move the existing heap entry in place; schedule afresh only when the
  // action has none (first date) or it already fired.
  if (action.event == sim::EventCalendar::kNoEvent || !calendar().update(action.event, date)) {
    action.event = calendar().schedule(date, this, pack_tag(action.slot, action.gen));
  }
}

void SharingModel::reschedule(Action& action, double now) {
  SMPI_ENSURE(action.work.rate() > 0, "active action with zero rate");
  schedule(action, std::max(now, action.work.completion_date(now)));
}

void SharingModel::complete(Action& action, sim::Activity::State state) {
  sim::ActivityPtr activity = std::move(action.activity);
  calendar().cancel(action.event);
  if (action.var >= 0) {
    system_.release_variable(action.var);
    var_to_action_[static_cast<std::size_t>(action.var)] = nullptr;
  }
  retire(action);
  // Deferred: simultaneous completions redistribute the freed shares in one
  // re-solve when the engine settles, so completion callbacks still observe
  // a consistent system.
  request_settle();
  activity->finish(state);
}

void SharingModel::retire(Action& action) {
  ++action.gen;
  action.activity.reset();
  action.var = -1;
  action.res_flow = -1;
  action.event = sim::EventCalendar::kNoEvent;
  free_slots_.push_back(action.slot);
}

void SharingModel::add_resource(int constraint, obs::ResourceKind kind,
                                const std::string& name) {
  if (resources_ == nullptr) return;
  system_.set_observing(true);
  const auto index = static_cast<std::size_t>(constraint);
  if (constraint_resource_.size() <= index) constraint_resource_.resize(index + 1, -1);
  constraint_resource_[index] =
      resources_->add_resource(kind, name, system_.constraint_capacity(constraint));
}

void SharingModel::flush_observations(double now) {
  if (resources_ != nullptr) flush_resource_snapshots(now);
}

void SharingModel::flush_resource_snapshots(double now) {
  changed_scratch_.clear();
  system_.drain_changed_constraints(changed_scratch_);
  for (int constraint : changed_scratch_) {
    const int resource = constraint_resource_[static_cast<std::size_t>(constraint)];
    if (resource < 0) continue;
    var_shares_scratch_.clear();
    const auto state = system_.constraint_observe(constraint, var_shares_scratch_);
    flow_shares_scratch_.clear();
    for (const auto& [var, value] : var_shares_scratch_) {
      Action* action = var_to_action_[static_cast<std::size_t>(var)];
      if (action == nullptr) continue;
      if (action->res_flow < 0) action->res_flow = resources_->add_flow(action_label(*action));
      flow_shares_scratch_.emplace_back(action->res_flow, value);
    }
    resources_->snapshot(resource, now, state.usage, state.capacity, state.saturated,
                         flow_shares_scratch_);
  }
}

void SharingModel::enable_faults() {
  if (host_up_.empty()) host_up_.assign(static_cast<std::size_t>(platform_.host_count()), 1);
}

void SharingModel::set_host_state(int host, bool up) {
  SMPI_REQUIRE(host >= 0 && host < platform_.host_count(), "set_host_up on unknown host");
  enable_faults();
  host_up_[static_cast<std::size_t>(host)] = up ? 1 : 0;
}

bool SharingModel::host_is_up(int host) const {
  return host_up_.empty() || host_up_[static_cast<std::size_t>(host)] != 0;
}

void SharingModel::fail_actions(const std::function<bool(const Action&)>& doomed,
                                VictimOrder order) {
  struct Victim {
    std::uint64_t start;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  std::vector<Victim> victims;
  for (const auto& action : slots_) {
    if (action->activity != nullptr && doomed(*action)) {
      victims.push_back({action->start, action->slot, action->gen});
    }
  }
  if (order == VictimOrder::kStart) {
    std::sort(victims.begin(), victims.end(),
              [](const Victim& a, const Victim& b) { return a.start < b.start; });
  }
  for (const Victim& victim : victims) {
    Action& action = *slots_[victim.slot];
    if (action.gen == victim.gen) complete(action, sim::Activity::State::kFailed);
  }
}

}  // namespace smpi::surf
