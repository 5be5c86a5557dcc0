#include "surf/cpu.hpp"

#include <algorithm>
#include <string>

#include "obs/resource.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"

namespace smpi::surf {
namespace {
// Completion dust tolerance in flops; see the network model's kRemainingEps.
constexpr double kRemainingEps = 1e-3;
}  // namespace

CpuModel::CpuModel(const platform::Platform& platform, SolveMode solver_mode,
                   obs::ResourceCollector* resources)
    : platform_(platform), resources_(resources) {
  system_.set_mode(solver_mode);
  host_constraint_.reserve(static_cast<std::size_t>(platform_.host_count()));
  for (int id = 0; id < platform_.host_count(); ++id) {
    const auto& host = platform_.host(id);
    host_constraint_.push_back(system_.new_constraint(host.speed_flops * host.cores));
  }
  if (resources_ != nullptr) {
    system_.set_observing(true);
    constraint_resource_.assign(system_.constraint_count(), -1);
    for (int id = 0; id < platform_.host_count(); ++id) {
      const int constraint = host_constraint_[static_cast<std::size_t>(id)];
      constraint_resource_[static_cast<std::size_t>(constraint)] =
          resources_->add_resource(obs::ResourceKind::kHost, platform_.host(id).name,
                                   system_.constraint_capacity(constraint));
    }
  }
}

double CpuModel::node_speed(int node) const {
  return platform_.host(node).speed_flops;
}

sim::ActivityPtr CpuModel::execute(int node, double flops) {
  SMPI_REQUIRE(node >= 0 && node < platform_.host_count(), "execute on unknown node");
  SMPI_REQUIRE(flops >= 0, "negative computation");
  auto* engine = sim::Engine::current();
  SMPI_REQUIRE(engine != nullptr, "execute outside a simulation");
  auto activity = sim::new_activity("exec");
  if (faults_enabled_ && host_up_[static_cast<std::size_t>(node)] == 0) {
    activity->finish(sim::Activity::State::kFailed);
    return activity;
  }
  if (flops <= 0) {
    activity->finish(sim::Activity::State::kDone);
    return activity;
  }
  const double now = engine->now();
  auto exec = std::make_shared<Execution>();
  exec->id = next_execution_id_++;
  exec->node = node;
  exec->activity = activity;
  exec->work.start(flops, now);
  exec->var = system_.new_variable(1.0, platform_.host(node).speed_flops);
  Execution* raw = exec.get();
  executions_.emplace(exec->id, std::move(exec));
  if (var_to_execution_.size() <= static_cast<std::size_t>(raw->var)) {
    var_to_execution_.resize(static_cast<std::size_t>(raw->var) + 1, nullptr);
  }
  var_to_execution_[static_cast<std::size_t>(raw->var)] = raw;
  system_.attach(raw->var, host_constraint_[static_cast<std::size_t>(node)]);
  // Deferred: batched with any other executions starting at this date.
  request_settle();
  return activity;
}

void CpuModel::on_settle(double now) { resettle(now); }

void CpuModel::resettle(double now) {
  if (system_.dirty()) {
    system_.solve();
    for (int var : system_.last_solved_variables()) {
      Execution* entry = static_cast<std::size_t>(var) < var_to_execution_.size()
                             ? var_to_execution_[static_cast<std::size_t>(var)]
                             : nullptr;
      if (entry == nullptr) continue;
      Execution& exec = *entry;
      const double rate = system_.value(var);
      if (rate == exec.work.rate()) continue;
      exec.work.set_rate(rate, now);
      reschedule(exec, now);
    }
  }
  if (resources_ != nullptr) flush_resource_snapshots(now);
}

void CpuModel::flush_observations(double now) {
  if (resources_ != nullptr) flush_resource_snapshots(now);
}

void CpuModel::flush_resource_snapshots(double now) {
  changed_scratch_.clear();
  system_.drain_changed_constraints(changed_scratch_);
  for (int constraint : changed_scratch_) {
    const int resource = constraint_resource_[static_cast<std::size_t>(constraint)];
    if (resource < 0) continue;
    var_shares_scratch_.clear();
    const auto state = system_.constraint_observe(constraint, var_shares_scratch_);
    flow_shares_scratch_.clear();
    for (const auto& [var, value] : var_shares_scratch_) {
      Execution* exec = var_to_execution_[static_cast<std::size_t>(var)];
      if (exec == nullptr) continue;
      if (exec->res_flow < 0) {
        exec->res_flow =
            resources_->add_flow(platform_.host(exec->node).name + "#" + std::to_string(exec->id));
      }
      flow_shares_scratch_.emplace_back(exec->res_flow, value);
    }
    resources_->snapshot(resource, now, state.usage, state.capacity, state.saturated,
                         flow_shares_scratch_);
  }
}

void CpuModel::reschedule(Execution& exec, double now) {
  SMPI_ENSURE(exec.work.rate() > 0, "active execution with zero rate");
  const double date = std::max(now, exec.work.completion_date(now));
  if (exec.event == sim::EventCalendar::kNoEvent || !calendar().update(exec.event, date)) {
    exec.event = calendar().schedule(date, this, exec.id);
  }
}

void CpuModel::on_calendar_event(double now, std::uint64_t tag) {
  auto it = executions_.find(tag);
  if (it == executions_.end()) return;  // already retired
  Execution& exec = *it->second;
  exec.event = sim::EventCalendar::kNoEvent;
  SMPI_ENSURE(exec.work.remaining_at(now) <= kRemainingEps,
              "completion event fired with flops left");
  sim::ActivityPtr activity = exec.activity;
  const std::uint64_t id = exec.id;  // `exec` dies with the erase below
  system_.release_variable(exec.var);
  var_to_execution_[static_cast<std::size_t>(exec.var)] = nullptr;
  executions_.erase(id);
  // Deferred: simultaneous completions redistribute the freed capacity in
  // one re-solve when the engine settles.
  request_settle();
  activity->finish(sim::Activity::State::kDone);
}

void CpuModel::set_host_up(int host, bool up) {
  SMPI_REQUIRE(host >= 0 && host < platform_.host_count(), "set_host_up on unknown host");
  if (!faults_enabled_) {
    faults_enabled_ = true;
    host_up_.assign(static_cast<std::size_t>(platform_.host_count()), 1);
  }
  host_up_[static_cast<std::size_t>(host)] = up ? 1 : 0;
  if (up) return;
  // Fail the host's running executions. Collect first: the kFailed
  // completion callbacks may start new executions and mutate the map.
  std::vector<std::uint64_t> victims;
  for (const auto& [id, exec] : executions_) {
    if (exec->node == host) victims.push_back(id);
  }
  // Map order is implementation-defined; fail in id (start) order so the
  // callback cascade is deterministic.
  std::sort(victims.begin(), victims.end());
  for (std::uint64_t id : victims) {
    auto it = executions_.find(id);
    if (it == executions_.end()) continue;
    Execution& exec = *it->second;
    sim::ActivityPtr activity = exec.activity;
    calendar().cancel(exec.event);
    system_.release_variable(exec.var);
    var_to_execution_[static_cast<std::size_t>(exec.var)] = nullptr;
    executions_.erase(it);
    request_settle();
    activity->finish(sim::Activity::State::kFailed);
  }
}

bool CpuModel::host_is_up(int host) const {
  return !faults_enabled_ || host_up_[static_cast<std::size_t>(host)] != 0;
}

}  // namespace smpi::surf
