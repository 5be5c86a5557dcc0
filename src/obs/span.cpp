#include "obs/span.hpp"

namespace smpi::obs {

const char* wait_class_name(WaitClass cls) {
  switch (cls) {
    case WaitClass::kLocal:
      return "local";
    case WaitClass::kLateSender:
      return "late_sender";
    case WaitClass::kLateReceiver:
      return "late_receiver";
    case WaitClass::kEarlyArrival:
      return "early_arrival";
    case WaitClass::kCount:
      break;
  }
  return "?";
}

SpanCollector::SpanCollector(int nranks)
    : streams_(static_cast<std::size_t>(nranks < 0 ? 0 : nranks)) {}

void SpanCollector::on_enter(int rank, const char* op, double now) {
  auto& stream = streams_[static_cast<std::size_t>(rank)];
  Span span;
  span.op = op;
  span.t_start = now;
  span.t_end = now;
  stream.open = static_cast<int>(stream.spans.size());
  stream.spans.push_back(span);
}

void SpanCollector::on_exit(int rank, double now) {
  auto& stream = streams_[static_cast<std::size_t>(rank)];
  if (stream.open < 0) return;
  stream.spans[static_cast<std::size_t>(stream.open)].t_end = now;
  stream.open = -1;
}

void SpanCollector::annotate_peer(int rank, int peer_world) {
  auto& stream = streams_[static_cast<std::size_t>(rank)];
  if (stream.open < 0) return;
  stream.spans[static_cast<std::size_t>(stream.open)].peer = peer_world;
}

void SpanCollector::add_bytes(int rank, std::uint64_t bytes) {
  auto& stream = streams_[static_cast<std::size_t>(rank)];
  if (stream.open < 0) return;
  stream.spans[static_cast<std::size_t>(stream.open)].bytes += bytes;
}

void SpanCollector::on_blocked(int rank, double t0, double t1, double flow_start,
                               double peer_ready, int peer_world, std::uint64_t bytes,
                               WaitClass cls) {
  if (t1 <= t0) return;  // zero-length block: nothing observable happened
  auto& stream = streams_[static_cast<std::size_t>(rank)];
  BlockedInterval interval;
  interval.t0 = t0;
  interval.t1 = t1;
  interval.flow_start = flow_start;
  interval.peer_ready = peer_ready;
  interval.peer = peer_world;
  interval.bytes = bytes;
  interval.cls = cls;
  interval.span = stream.open;
  stream.intervals.push_back(interval);
  if (stream.open >= 0) {
    Span& span = stream.spans[static_cast<std::size_t>(stream.open)];
    span.wait_s += interval.wait_s();
    span.transfer_s += interval.transfer_s();
  }
}

}  // namespace smpi::obs
