// Packet-level discrete-event network simulator.
//
// This is the repository's stand-in for the paper's real testbed (Grid'5000
// + TCP over switched Ethernet): where the paper measures SKaMPI/OpenMPI/
// MPICH2 on real clusters, we run the same MPI programs against this model
// and treat its results as ground truth. It deliberately simulates the
// phenomena the flow model abstracts away, the same role the GTNetS
// packet simulator plays in the SimGrid validation papers [25,26]:
//
//   * MTU framing — every frame carries `header_bytes` of protocol overhead,
//     so small messages see per-frame quantization and large ones an
//     effective goodput below nominal bandwidth;
//   * store-and-forward switches — each hop fully serializes a frame before
//     forwarding, so multi-switch routes add per-frame latency;
//   * FIFO output queues — concurrent flows interleave frame by frame;
//     contention appears as queueing delay, not as an analytical share;
//   * ack-clocked sliding windows with optional slow start — transfers are
//     window-limited on long paths.
//
// Packet-level simulation is orders of magnitude slower than the flow model
// (one event per frame per hop); Figure 17's speed comparison relies on
// exactly this gap.
#pragma once

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "platform/platform.hpp"
#include "sim/model.hpp"

namespace smpi::pnet {

struct PacketNetConfig {
  double mtu_bytes = 1500;    // frame size on the wire
  double header_bytes = 54;   // Ethernet + IP + TCP overhead per frame
  double ack_bytes = 66;      // ACK frame size
  // Warm-connection TCP: MPI keeps connections open, so transfers start at a
  // healthy window; the cap bounds how much a sender can queue ahead, which
  // sets the granularity at which concurrent flows interleave.
  double initial_window_bytes = 64 * 1024;
  double max_window_bytes = 256.0 * 1024;
  bool slow_start = true;          // cwnd += mss per ACK until max
  double receive_overhead_s = 5e-7;  // host processing before acking a frame

  double mss() const { return mtu_bytes - header_bytes; }
};

class PacketNetworkModel final : public sim::Model, public sim::NetworkBackend {
 public:
  PacketNetworkModel(const platform::Platform& platform, PacketNetConfig config = {});

  // sim::NetworkBackend
  sim::ActivityPtr start_flow(int src_node, int dst_node, double bytes) override;

  // sim::Model — fires when the earliest internal frame event comes due.
  void on_calendar_event(double now, std::uint64_t tag) override;

  std::uint64_t total_frames_sent() const { return total_frames_; }
  std::uint64_t total_events_processed() const { return total_events_; }
  std::size_t active_flow_count() const { return flows_.size(); }

 private:
  struct Packet {
    int flow_id = -1;
    double payload = 0;
    bool ack = false;
    std::size_t hop = 0;  // index into the packet's route
  };

  struct Event {
    double date;
    std::uint64_t seq;
    Packet packet;
    bool operator>(const Event& other) const {
      return date != other.date ? date > other.date : seq > other.seq;
    }
  };

  struct Flow {
    int id = -1;
    sim::ActivityPtr activity;
    std::vector<int> forward_links;
    std::vector<int> reverse_links;
    double total = 0;
    double sent = 0;       // payload bytes injected
    double delivered = 0;  // payload bytes that reached the destination
    double acked = 0;      // payload bytes acknowledged back at the source
    double in_flight = 0;
    double cwnd = 0;
  };

  void schedule(double date, Packet packet);
  // Keeps exactly one engine-calendar entry mirroring the earliest internal
  // event, so the engine never polls this model.
  void sync_calendar();
  void process(const Event& event);
  void deliver_data(Flow& flow, const Packet& packet, double date);
  void deliver_ack(Flow& flow, const Packet& packet, double date);
  void try_inject(Flow& flow, double date);
  void hop_forward(const Packet& packet, double date);
  double frame_bytes(const Packet& packet) const;

  const platform::Platform& platform_;
  PacketNetConfig config_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::uint64_t packet_seq_ = 0;
  sim::EventCalendar::Handle calendar_entry_ = sim::EventCalendar::kNoEvent;
  double calendar_date_ = -1;
  std::unordered_map<int, Flow> flows_;
  int next_flow_id_ = 0;
  std::vector<double> link_busy_until_;
  std::uint64_t total_frames_ = 0;
  std::uint64_t total_events_ = 0;
};

}  // namespace smpi::pnet
