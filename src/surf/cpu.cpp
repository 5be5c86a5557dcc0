#include "surf/cpu.hpp"

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
    : SharingModel(platform, solver_mode, resources) {
  host_constraint_.reserve(static_cast<std::size_t>(platform_.host_count()));
  for (int id = 0; id < platform_.host_count(); ++id) {
    const auto& host = platform_.host(id);
    host_constraint_.push_back(system_.new_constraint(host.speed_flops * host.cores));
    add_resource(host_constraint_.back(), obs::ResourceKind::kHost, host.name);
  }
}

sim::ActivityPtr CpuModel::execute(int node, double flops) {
  SMPI_REQUIRE(node >= 0 && node < platform_.host_count(), "execute on unknown node");
  SMPI_REQUIRE(flops >= 0, "negative computation");
  auto* engine = sim::Engine::current();
  SMPI_REQUIRE(engine != nullptr, "execute outside a simulation");
  auto activity = sim::new_activity("exec");
  if (!host_is_up(node)) {
    activity->finish(sim::Activity::State::kFailed);
    return activity;
  }
  if (flops <= 0) {
    activity->finish(sim::Activity::State::kDone);
    return activity;
  }
  Execution& exec = acquire<Execution>();
  exec.node = node;
  exec.activity = activity;
  exec.work.start(flops, engine->now());
  add_variable(exec, platform_.host(node).speed_flops);
  system_.attach(exec.var, host_constraint_[static_cast<std::size_t>(node)]);
  // Deferred: batched with any other executions starting at this date.
  request_settle();
  return activity;
}

std::string CpuModel::action_label(const Action& action) const {
  const auto& exec = static_cast<const Execution&>(action);
  return platform_.host(exec.node).name + "#" + std::to_string(exec.start);
}

void CpuModel::on_calendar_event(double now, std::uint64_t tag) {
  Action* exec = fired_action(tag);
  if (exec == nullptr) return;  // already retired
  SMPI_ENSURE(exec->work.remaining_at(now) <= kRemainingEps,
              "completion event fired with flops left");
  complete(*exec, sim::Activity::State::kDone);
}

void CpuModel::set_host_up(int host, bool up) {
  set_host_state(host, up);
  if (up) return;
  fail_actions(
      [host](const Action& action) { return static_cast<const Execution&>(action).node == host; },
      VictimOrder::kStart);
}

}  // namespace smpi::surf
