#include "pnet/packetnet.hpp"

#include <algorithm>
#include <cmath>

#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace smpi::pnet {

SMPI_LOG_CATEGORY(log_pnet, "pnet");

namespace {
constexpr double kPayloadEps = 1e-6;
}  // namespace

PacketNetworkModel::PacketNetworkModel(const platform::Platform& platform,
                                       PacketNetConfig config)
    : platform_(platform), config_(config) {
  SMPI_REQUIRE(config_.mtu_bytes > config_.header_bytes, "MTU must exceed header size");
  SMPI_REQUIRE(config_.initial_window_bytes > 0, "initial window must be positive");
  SMPI_REQUIRE(config_.max_window_bytes >= config_.initial_window_bytes,
               "max window below initial window");
  link_busy_until_.assign(static_cast<std::size_t>(platform_.link_count()), 0.0);
}

double PacketNetworkModel::frame_bytes(const Packet& packet) const {
  return packet.ack ? config_.ack_bytes : packet.payload + config_.header_bytes;
}

sim::ActivityPtr PacketNetworkModel::start_flow(int src_node, int dst_node, double bytes) {
  SMPI_REQUIRE(bytes >= 0, "negative flow size");
  auto* engine = sim::Engine::current();
  SMPI_REQUIRE(engine != nullptr, "start_flow outside a simulation");

  auto activity = sim::new_activity("pnet-flow");
  if (src_node == dst_node) {
    activity->finish(sim::Activity::State::kDone);
    return activity;
  }

  Flow flow;
  flow.id = next_flow_id_++;
  flow.activity = activity;
  flow.forward_links = platform_.route(src_node, dst_node);
  flow.reverse_links = platform_.route(dst_node, src_node);
  flow.total = bytes;
  flow.cwnd = config_.slow_start ? config_.initial_window_bytes : config_.max_window_bytes;
  const int id = flow.id;
  flows_.emplace(id, std::move(flow));
  try_inject(flows_.at(id), engine->now());
  sync_calendar();
  return activity;
}

void PacketNetworkModel::try_inject(Flow& flow, double date) {
  const double mss = config_.mss();
  bool injected_any = false;
  while (flow.in_flight < flow.cwnd - kPayloadEps || flow.sent == 0) {
    if (flow.sent >= flow.total && flow.sent > 0) break;
    const double payload = std::min(mss, std::max(0.0, flow.total - flow.sent));
    Packet packet;
    packet.flow_id = flow.id;
    packet.payload = payload;
    packet.ack = false;
    packet.hop = 0;
    flow.sent += payload;
    flow.in_flight += payload;
    ++total_frames_;
    schedule(date, packet);
    injected_any = true;
    if (payload <= 0) break;  // zero-byte message: exactly one frame
    if (flow.sent >= flow.total) break;
  }
  (void)injected_any;
}

void PacketNetworkModel::schedule(double date, Packet packet) {
  events_.push(Event{date, packet_seq_++, packet});
}

void PacketNetworkModel::sync_calendar() {
  const double top = events_.empty() ? sim::kNever : events_.top().date;
  if (top == calendar_date_ && calendar_entry_ != sim::EventCalendar::kNoEvent) return;
  calendar().cancel(calendar_entry_);
  calendar_entry_ = sim::EventCalendar::kNoEvent;
  calendar_date_ = -1;
  if (std::isfinite(top)) {
    calendar_entry_ = calendar().schedule(top, this, 0);
    calendar_date_ = top;
  }
}

void PacketNetworkModel::on_calendar_event(double now, std::uint64_t /*tag*/) {
  calendar_entry_ = sim::EventCalendar::kNoEvent;
  calendar_date_ = -1;
  // Drain every internal frame event due by `now`; processing usually
  // schedules follow-up events (next hop, acks, window refills).
  while (!events_.empty() && events_.top().date <= now) {
    const Event event = events_.top();
    events_.pop();
    ++total_events_;
    process(event);
  }
  sync_calendar();
}

void PacketNetworkModel::process(const Event& event) {
  auto it = flows_.find(event.packet.flow_id);
  if (it == flows_.end()) return;  // flow fully retired; stale ack in flight
  Flow& flow = it->second;
  const auto& route = event.packet.ack ? flow.reverse_links : flow.forward_links;
  if (event.packet.hop < route.size()) {
    hop_forward(event.packet, event.date);
    return;
  }
  if (event.packet.ack) {
    deliver_ack(flow, event.packet, event.date);
  } else {
    deliver_data(flow, event.packet, event.date);
  }
}

void PacketNetworkModel::hop_forward(const Packet& packet, double date) {
  auto& flow = flows_.at(packet.flow_id);
  const auto& route = packet.ack ? flow.reverse_links : flow.forward_links;
  const int link_id = route[packet.hop];
  const auto& link = platform_.link(link_id);
  auto& busy_until = link_busy_until_[static_cast<std::size_t>(link_id)];
  const double start = std::max(date, busy_until);
  const double serialization = frame_bytes(packet) / link.bandwidth_bps;
  busy_until = start + serialization;
  const double arrival = busy_until + link.latency_s;
  Packet next = packet;
  next.hop = packet.hop + 1;
  schedule(arrival, next);
}

void PacketNetworkModel::deliver_data(Flow& flow, const Packet& packet, double date) {
  flow.delivered += packet.payload;
  const bool complete = flow.delivered >= flow.total - kPayloadEps;
  if (complete && !flow.activity->completed()) {
    flow.activity->finish(sim::Activity::State::kDone);
  }
  // Ack after host processing; acks keep flowing so the sender window drains.
  Packet ack;
  ack.flow_id = flow.id;
  ack.payload = packet.payload;
  ack.ack = true;
  ack.hop = 0;
  ++total_frames_;
  schedule(date + config_.receive_overhead_s, ack);
}

void PacketNetworkModel::deliver_ack(Flow& flow, const Packet& packet, double date) {
  flow.acked += packet.payload;
  flow.in_flight = std::max(0.0, flow.in_flight - packet.payload);
  if (config_.slow_start) {
    flow.cwnd = std::min(flow.cwnd + config_.mss(), config_.max_window_bytes);
  }
  if (flow.acked >= flow.total - kPayloadEps && flow.sent >= flow.total) {
    // Everything delivered and acknowledged: retire the flow.
    SMPI_ENSURE(flow.activity->completed(), "flow acked before delivery completed");
    flows_.erase(flow.id);
    return;
  }
  try_inject(flow, date);
}

}  // namespace smpi::pnet
