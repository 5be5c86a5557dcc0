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
    : platform_(platform), config_(std::move(config)), resources_(resources) {
  system_.set_mode(config_.solver_mode);
  link_constraint_.resize(static_cast<std::size_t>(platform_.link_count()), -1);
  for (int id = 0; id < platform_.link_count(); ++id) {
    const auto& link = platform_.link(id);
    if (link.sharing == platform::LinkSharing::kShared) {
      link_constraint_[static_cast<std::size_t>(id)] =
          system_.new_constraint(link.bandwidth_bps * config_.bandwidth_efficiency);
    }
  }
  if (resources_ != nullptr) {
    // Resource observability: name every shared link's constraint with the
    // collector and turn on the solver's changed-constraint tracking.
    system_.set_observing(true);
    constraint_resource_.assign(system_.constraint_count(), -1);
    for (int id = 0; id < platform_.link_count(); ++id) {
      const int constraint = link_constraint_[static_cast<std::size_t>(id)];
      if (constraint < 0) continue;  // fatpipe: unconstrained, nothing to watch
      constraint_resource_[static_cast<std::size_t>(constraint)] =
          resources_->add_resource(obs::ResourceKind::kLink, platform_.link(id).name,
                                   system_.constraint_capacity(constraint));
    }
  }
}

FlowNetworkModel::~FlowNetworkModel() = default;

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

sim::ActivityPtr FlowNetworkModel::start_flow(int src_node, int dst_node, double bytes,
                                              const sim::FlowHints& hints) {
  SMPI_REQUIRE(bytes >= 0, "negative flow size");
  auto* engine = sim::Engine::current();
  SMPI_REQUIRE(engine != nullptr, "start_flow outside a simulation");
  ++total_flows_;

  auto activity = sim::new_activity("flow");
  if (src_node == dst_node) {
    // Loopback: modeled as instantaneous (memcpy cost is charged by the MPI
    // layer's personality overheads, not the network); fails with its host.
    activity->finish(host_is_up(src_node) ? sim::Activity::State::kDone
                                          : sim::Activity::State::kFailed);
    return activity;
  }
  platform_.route(src_node, dst_node, route_scratch_);
  if (faults_enabled_) {
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
  if (hints.rate_bound > 0) bound = std::min(bound, hints.rate_bound);
  SMPI_ENSURE(bound > 0, "flow rate bound must be positive");

  if (bytes <= 0) {
    // Pure-latency message: completes at the end of the latency phase.
    engine->add_timer(engine->now() + latency,
                      [activity] { activity->finish(sim::Activity::State::kDone); });
    return activity;
  }

  const std::uint32_t slot = acquire_slot();
  Flow& flow = *slots_[slot];
  flow.activity = activity;
  flow.bound = bound;
  flow.in_latency = true;
  flow.pending_bytes = bytes;
  flow.src = src_node;
  flow.dst = dst_node;
  flow.links.assign(route_scratch_.begin(), route_scratch_.end());
  flow.event = calendar().schedule(engine->now() + latency, this, pack_tag(slot, flow.gen));
  SMPI_LOG_DEBUG(log_surf, "flow " << src_node << "->" << dst_node << " size=" << bytes
                                   << " lat=" << latency << " bound=" << bound);
  return activity;
}

std::uint32_t FlowNetworkModel::acquire_slot() {
  ++active_flows_;
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(slots_.size());
  slots_.push_back(std::make_unique<Flow>());
  slots_.back()->slot = slot;
  return slot;
}

void FlowNetworkModel::retire_slot(std::uint32_t slot) {
  Flow& flow = *slots_[slot];
  ++flow.gen;  // invalidate any stale calendar reference
  flow.activity.reset();
  flow.var = -1;
  flow.res_flow = -1;
  flow.in_latency = false;
  flow.src = -1;
  flow.dst = -1;
  flow.links.clear();
  flow.event = sim::EventCalendar::kNoEvent;
  free_slots_.push_back(slot);
  --active_flows_;
}

void FlowNetworkModel::promote(Flow& flow) {
  if (flow.activity->completed()) {
    // Canceled during the latency phase: the flow never enters the
    // bandwidth-sharing system.
    retire_slot(flow.slot);
    return;
  }
  const double now = sim::Engine::current()->now();
  flow.work.start(flow.pending_bytes, now);
  if (config_.contention) {
    flow.var = system_.new_variable(1.0, flow.bound);
    if (var_to_flow_.size() <= static_cast<std::size_t>(flow.var)) {
      var_to_flow_.resize(static_cast<std::size_t>(flow.var) + 1, nullptr);
    }
    var_to_flow_[static_cast<std::size_t>(flow.var)] = &flow;
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

void FlowNetworkModel::on_settle(double now) { resettle(now); }

void FlowNetworkModel::resettle(double now) {
  if (system_.dirty()) {
    system_.solve();
    for (int var : system_.last_solved_variables()) {
      Flow* entry = static_cast<std::size_t>(var) < var_to_flow_.size()
                        ? var_to_flow_[static_cast<std::size_t>(var)]
                        : nullptr;
      if (entry == nullptr) continue;  // not one of ours (shouldn't happen)
      Flow& flow = *entry;
      const double rate = system_.value(var);
      if (rate == flow.work.rate()) continue;  // allocation unchanged: keep the entry
      flow.work.set_rate(rate, now);
      reschedule(flow, now);
    }
  }
  // Flush even when no solve fired: a completion releasing its share on an
  // unsaturated link changed that link's usage without seeding a re-solve.
  if (resources_ != nullptr) flush_resource_snapshots(now);
}

void FlowNetworkModel::flush_observations(double now) {
  if (resources_ != nullptr) flush_resource_snapshots(now);
}

void FlowNetworkModel::flush_resource_snapshots(double now) {
  changed_scratch_.clear();
  system_.drain_changed_constraints(changed_scratch_);
  for (int constraint : changed_scratch_) {
    const int resource = constraint_resource_[static_cast<std::size_t>(constraint)];
    if (resource < 0) continue;
    var_shares_scratch_.clear();
    const auto state = system_.constraint_observe(constraint, var_shares_scratch_);
    flow_shares_scratch_.clear();
    for (const auto& [var, value] : var_shares_scratch_) {
      Flow* flow = var_to_flow_[static_cast<std::size_t>(var)];
      if (flow == nullptr) continue;
      if (flow->res_flow < 0) {
        flow->res_flow = resources_->add_flow(platform_.host(flow->src).name + "->" +
                                              platform_.host(flow->dst).name);
      }
      flow_shares_scratch_.emplace_back(flow->res_flow, value);
    }
    resources_->snapshot(resource, now, state.usage, state.capacity, state.saturated,
                         flow_shares_scratch_);
  }
}

void FlowNetworkModel::reschedule(Flow& flow, double now) {
  SMPI_ENSURE(flow.work.rate() > 0, "active flow with zero rate");
  const double date = std::max(now, flow.work.completion_date(now));
  // Move the existing heap entry in place; schedule afresh only when the
  // flow has none (first rate) or it already fired.
  if (flow.event == sim::EventCalendar::kNoEvent || !calendar().update(flow.event, date)) {
    flow.event = calendar().schedule(date, this, pack_tag(flow.slot, flow.gen));
  }
}

void FlowNetworkModel::on_calendar_event(double now, std::uint64_t tag) {
  const std::uint32_t slot = static_cast<std::uint32_t>(tag);
  const std::uint32_t gen = static_cast<std::uint32_t>(tag >> 32);
  Flow& flow = *slots_[slot];
  if (flow.gen != gen) return;  // flow already retired
  flow.event = sim::EventCalendar::kNoEvent;
  if (flow.in_latency) {
    // End of the latency phase: enter the bandwidth-sharing system.
    flow.in_latency = false;
    promote(flow);
    return;
  }
  SMPI_ENSURE(flow.work.remaining_at(now) <= kRemainingEps,
              "completion event fired with work left");
  complete(flow, sim::Activity::State::kDone);
}

void FlowNetworkModel::complete(Flow& flow, sim::Activity::State state) {
  // Move the activity handle out before retiring: finish() may run
  // completion callbacks that start new flows into this very slot.
  sim::ActivityPtr activity = std::move(flow.activity);
  calendar().cancel(flow.event);
  if (flow.var >= 0) {
    system_.release_variable(flow.var);
    var_to_flow_[static_cast<std::size_t>(flow.var)] = nullptr;
  }
  retire_slot(flow.slot);
  // Deferred: simultaneous completions redistribute the freed shares in one
  // re-solve when the engine settles. Completion callbacks never read rates
  // synchronously (link_usage re-solves on demand), so they still observe a
  // consistent system.
  request_settle();
  activity->finish(state);
}

void FlowNetworkModel::ensure_fault_state() {
  if (faults_enabled_) return;
  faults_enabled_ = true;
  host_up_.assign(static_cast<std::size_t>(platform_.host_count()), 1);
  link_up_.assign(static_cast<std::size_t>(platform_.link_count()), 1);
  link_degrade_.assign(static_cast<std::size_t>(platform_.link_count()), 1.0);
}

template <typename Pred>
void FlowNetworkModel::fail_matching_flows(const Pred& doomed) {
  // Collect first: failing a flow retires its slot, and the kFailed
  // completion callbacks may start fresh flows into recycled slots.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> victims;
  for (const auto& slot : slots_) {
    if (slot->activity == nullptr) continue;  // free slot
    if (doomed(*slot)) victims.emplace_back(slot->slot, slot->gen);
  }
  for (const auto& [slot, gen] : victims) {
    Flow& flow = *slots_[slot];
    if (flow.gen != gen || flow.activity == nullptr) continue;
    complete(flow, sim::Activity::State::kFailed);
  }
}

void FlowNetworkModel::set_host_up(int host, bool up) {
  SMPI_REQUIRE(host >= 0 && host < platform_.host_count(), "set_host_up on unknown host");
  ensure_fault_state();
  host_up_[static_cast<std::size_t>(host)] = up ? 1 : 0;
  if (!up) {
    fail_matching_flows([host](const Flow& flow) { return flow.src == host || flow.dst == host; });
  }
}

void FlowNetworkModel::set_link_up(int link, bool up) {
  SMPI_REQUIRE(link >= 0 && link < platform_.link_count(), "set_link_up on unknown link");
  ensure_fault_state();
  link_up_[static_cast<std::size_t>(link)] = up ? 1 : 0;
  if (!up) {
    fail_matching_flows([link](const Flow& flow) {
      return std::find(flow.links.begin(), flow.links.end(), link) != flow.links.end();
    });
  }
}

void FlowNetworkModel::set_link_degrade(int link, double factor) {
  SMPI_REQUIRE(link >= 0 && link < platform_.link_count(), "set_link_degrade on unknown link");
  SMPI_REQUIRE(factor > 0 && factor <= 1, "link degrade factor must be in (0, 1]");
  ensure_fault_state();
  link_degrade_[static_cast<std::size_t>(link)] = factor;
  const int constraint = link_constraint_[static_cast<std::size_t>(link)];
  if (constraint < 0) return;  // fatpipe: no shared constraint to scale
  system_.set_capacity(constraint, platform_.link(link).bandwidth_bps *
                                       config_.bandwidth_efficiency * factor);
  // The flows on the link keep running at the reduced share; one settle
  // re-solves the whole component and reschedules their completions.
  request_settle();
}

bool FlowNetworkModel::host_is_up(int host) const {
  return !faults_enabled_ || host_up_[static_cast<std::size_t>(host)] != 0;
}

bool FlowNetworkModel::link_is_up(int link) const {
  return !faults_enabled_ || link_up_[static_cast<std::size_t>(link)] != 0;
}

double FlowNetworkModel::link_usage(int link_id) {
  auto* engine = sim::Engine::current();
  SMPI_REQUIRE(engine != nullptr, "link_usage outside a simulation");
  resettle(engine->now());
  const int constraint = link_constraint_[static_cast<std::size_t>(link_id)];
  if (constraint < 0) return 0;
  return system_.constraint_usage(constraint);
}

}  // namespace smpi::surf
