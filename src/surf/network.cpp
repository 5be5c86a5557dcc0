#include "surf/network.hpp"

#include <algorithm>
#include <cmath>

#include "obs/resource.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace smpi::surf {

SMPI_LOG_CATEGORY(log_surf, "surf");

namespace {
// Completion tolerance: a fired completion event may observe up to this much
// residual work — floating-point dust from folding progress at rate changes,
// far below one byte even for terabyte flows. Anything larger means the
// completion date was mis-scheduled.
constexpr double kRemainingEps = 1.0;
}  // namespace

FlowNetworkModel::FlowNetworkModel(const platform::Platform& platform, NetworkConfig config,
                                   obs::ResourceCollector* resources)
    : SharingModel(platform, config.solver_mode, resources), config_(std::move(config)) {
  link_constraint_.resize(static_cast<std::size_t>(platform_.link_count()), -1);
  for (int id = 0; id < platform_.link_count(); ++id) {
    const auto& link = platform_.link(id);
    // A fatpipe link is unconstrained: no constraint, nothing to watch.
    if (link.sharing != platform::LinkSharing::kShared) continue;
    const int constraint =
        system_.new_constraint(link.bandwidth_bps * config_.bandwidth_efficiency);
    link_constraint_[static_cast<std::size_t>(id)] = constraint;
    add_resource(constraint, obs::ResourceKind::kLink, link.name);
  }
}

void FlowNetworkModel::path_parameters(const std::vector<int>& links, double bytes,
                                       double* latency_out, double* bound_out) const {
  // Same summation order as Platform::route_latency.
  double latency = 0;
  double bottleneck = platform_.link(links.front()).bandwidth_bps;
  for (int id : links) {
    const auto& link = platform_.link(id);
    latency += link.latency_s;
    bottleneck = std::min(bottleneck, link.bandwidth_bps);
  }
  double bound = bottleneck * config_.factors.bw_factor(bytes);
  if (config_.tcp_window_bytes > 0 && latency > 0) {
    bound = std::min(bound, config_.tcp_window_bytes / (2.0 * latency));
  }
  *latency_out = latency * config_.factors.lat_factor(bytes);
  *bound_out = bound;
}

double FlowNetworkModel::uncontended_duration(int src_node, int dst_node, double bytes) const {
  if (src_node == dst_node) return 0;
  const std::vector<int> links = platform_.route(src_node, dst_node);
  double latency = 0, bound = 0;
  path_parameters(links, bytes, &latency, &bound);
  double rate = bound;
  if (config_.contention) {
    // Alone on the route, the solver still caps the flow at each shared
    // link's effective capacity.
    for (int link : links) {
      if (platform_.link(link).sharing == platform::LinkSharing::kShared) {
        rate = std::min(rate, platform_.link(link).bandwidth_bps * config_.bandwidth_efficiency);
      }
    }
  }
  return latency + (bytes > 0 ? bytes / rate : 0.0);
}

sim::ActivityPtr FlowNetworkModel::start_flow(int src_node, int dst_node, double bytes) {
  SMPI_REQUIRE(bytes >= 0, "negative flow size");
  auto* engine = sim::Engine::current();
  SMPI_REQUIRE(engine != nullptr, "start_flow outside a simulation");

  auto activity = sim::new_activity("flow");
  if (src_node == dst_node) {
    // Loopback: modeled as instantaneous (memcpy cost is charged by the MPI
    // layer's personality overheads, not the network); fails with its host.
    activity->finish(host_is_up(src_node) ? sim::Activity::State::kDone
                                          : sim::Activity::State::kFailed);
    return activity;
  }
  platform_.route(src_node, dst_node, route_scratch_);
  if (faults_enabled()) {
    // A dead endpoint or route fails the transfer at the post; the MPI layer
    // maps the kFailed activity to its failure policy.
    const bool up = host_is_up(src_node) && host_is_up(dst_node) &&
                    std::all_of(route_scratch_.begin(), route_scratch_.end(),
                                [this](int link) { return link_is_up(link); });
    if (!up) {
      activity->finish(sim::Activity::State::kFailed);
      return activity;
    }
  }

  double latency = 0, bound = 0;
  path_parameters(route_scratch_, bytes, &latency, &bound);
  if (config_.latency_jitter) latency += config_.latency_jitter(src_node, dst_node);
  SMPI_ENSURE(bound > 0, "flow rate bound must be positive");

  if (bytes <= 0) {
    // Pure-latency message: completes at the end of the latency phase.
    engine->add_timer(engine->now() + latency,
                      [activity] { activity->finish(sim::Activity::State::kDone); });
    return activity;
  }

  Flow& flow = acquire<Flow>();
  flow.activity = activity;
  flow.bound = bound;
  flow.in_latency = true;
  flow.pending_bytes = bytes;
  flow.src = src_node;
  flow.dst = dst_node;
  flow.links.assign(route_scratch_.begin(), route_scratch_.end());
  schedule(flow, engine->now() + latency);
  SMPI_LOG_DEBUG(log_surf, "flow " << src_node << "->" << dst_node << " size=" << bytes
                                   << " lat=" << latency << " bound=" << bound);
  return activity;
}

void FlowNetworkModel::promote(Flow& flow) {
  if (flow.activity->completed()) {
    // Canceled during the latency phase: the flow never enters the
    // bandwidth-sharing system.
    retire(flow);
    return;
  }
  const double now = sim::Engine::current()->now();
  flow.work.start(flow.pending_bytes, now);
  if (config_.contention) {
    add_variable(flow, flow.bound);
    for (int link : flow.links) {
      const int constraint = link_constraint_[static_cast<std::size_t>(link)];
      if (constraint >= 0) system_.attach(flow.var, constraint);
    }
    // Deferred: when a collective promotes many flows at one date, the
    // engine settles (one re-solve) once for the whole batch.
    request_settle();
  } else {
    flow.work.set_rate(flow.bound, now);
    reschedule(flow, now);
  }
}

std::string FlowNetworkModel::action_label(const Action& action) const {
  const auto& flow = static_cast<const Flow&>(action);
  return platform_.host(flow.src).name + "->" + platform_.host(flow.dst).name;
}

void FlowNetworkModel::on_calendar_event(double now, std::uint64_t tag) {
  auto* flow = static_cast<Flow*>(fired_action(tag));
  if (flow == nullptr) return;  // flow already retired
  if (flow->in_latency) {
    // End of the latency phase: enter the bandwidth-sharing system.
    flow->in_latency = false;
    promote(*flow);
    return;
  }
  SMPI_ENSURE(flow->work.remaining_at(now) <= kRemainingEps,
              "completion event fired with work left");
  complete(*flow, sim::Activity::State::kDone);
}

void FlowNetworkModel::enable_link_faults() {
  enable_faults();
  if (link_up_.empty()) link_up_.assign(static_cast<std::size_t>(platform_.link_count()), 1);
}

void FlowNetworkModel::set_host_up(int host, bool up) {
  set_host_state(host, up);
  if (up) return;
  fail_actions(
      [host](const Action& action) {
        const auto& flow = static_cast<const Flow&>(action);
        return flow.src == host || flow.dst == host;
      },
      VictimOrder::kSlot);
}

void FlowNetworkModel::set_link_up(int link, bool up) {
  SMPI_REQUIRE(link >= 0 && link < platform_.link_count(), "set_link_up on unknown link");
  enable_link_faults();
  link_up_[static_cast<std::size_t>(link)] = up ? 1 : 0;
  if (up) return;
  fail_actions(
      [link](const Action& action) {
        const auto& links = static_cast<const Flow&>(action).links;
        return std::find(links.begin(), links.end(), link) != links.end();
      },
      VictimOrder::kSlot);
}

void FlowNetworkModel::set_link_degrade(int link, double factor) {
  SMPI_REQUIRE(link >= 0 && link < platform_.link_count(), "set_link_degrade on unknown link");
  SMPI_REQUIRE(factor > 0 && factor <= 1, "link degrade factor must be in (0, 1]");
  const int constraint = link_constraint_[static_cast<std::size_t>(link)];
  if (constraint < 0) return;  // fatpipe: no shared constraint to scale
  system_.set_capacity(constraint, platform_.link(link).bandwidth_bps *
                                       config_.bandwidth_efficiency * factor);
  // The flows on the link keep running at the reduced share; one settle
  // re-solves the whole component and reschedules their completions.
  request_settle();
}

bool FlowNetworkModel::link_is_up(int link) const {
  return link_up_.empty() || link_up_[static_cast<std::size_t>(link)] != 0;
}

}  // namespace smpi::surf
