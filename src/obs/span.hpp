// Span layer: per-MPI-call observability stream underneath the analysis
// subsystem.
//
// Every application-level MPI call (the outermost ApiScope on a rank) opens
// one Span: (op, peer, bytes, t_start, t_end) in simulated time. While the
// span is open, the wait sites (wait_request and friends in smpi/p2p.cpp)
// record BlockedIntervals — the stretches the rank actually sat blocked —
// annotated with when the underlying data flow started (`flow_start`) and
// when the peer enabled the transfer (`peer_ready`). The interval splits
// into wait = [t0, flow_start) (idle, waiting for the peer or protocol) and
// transfer = [flow_start, t1) (the network doing work); everything of the
// span not covered by an interval is compute/local overhead. By
// construction compute + transfer + wait == elapsed per span, exactly.
//
// `peer_ready` is the cross-rank dependency edge the critical-path walk
// follows: the simulated date at which the peer performed the action that
// enabled this interval to end (posted the eager envelope, matched the
// rendezvous). The peer was running — not blocked — at that date, which is
// what makes the backward walk well-founded.
//
// A collector is one of the world's observers (core::Observers::spans). It
// is zero-cost when absent: every hook guards on the world's span pointer,
// and recording never creates engine timers or activities — simulated
// times are bit-identical with spans on or off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace smpi::obs {

enum class WaitClass : int {
  kLocal = 0,      // poll/compute: no cross-rank dependency recorded
  kLateSender,     // receive blocked on a sender that had not posted yet
  kLateReceiver,   // rendezvous send blocked on a receiver that had not posted
  kEarlyArrival,   // blocked inside a collective waiting for other ranks
  kCount,
};

const char* wait_class_name(WaitClass cls);

struct Span {
  const char* op = "?";  // ApiScope state literal ("send", "bcast", "computing", ...)
  int peer = -1;         // world rank of the peer (app-level p2p), -1 otherwise
  std::uint64_t bytes = 0;
  double t_start = 0;
  double t_end = 0;
  double wait_s = 0;      // summed over the span's blocked intervals
  double transfer_s = 0;  // summed over the span's blocked intervals
  double elapsed() const { return t_end - t_start; }
};

struct BlockedInterval {
  double t0 = 0;           // block start (simulated)
  double t1 = 0;           // block end
  double flow_start = -1;  // when the data flow began; < t0 means "before we blocked"
  double peer_ready = -1;  // when the peer enabled this transfer; < 0 = no edge
  int peer = -1;           // peer world rank; -1 = no cross-rank edge
  std::uint64_t bytes = 0;
  WaitClass cls = WaitClass::kLocal;
  int span = -1;  // index of the owning span in the rank's stream (-1 = none)
  double wait_s() const {
    const double fs = flow_start < t0 ? t0 : (flow_start > t1 ? t1 : flow_start);
    return fs - t0;
  }
  double transfer_s() const { return (t1 - t0) - wait_s(); }
};

class SpanCollector {
 public:
  explicit SpanCollector(int nranks);

  int nranks() const { return static_cast<int>(streams_.size()); }
  const std::vector<Span>& spans(int rank) const {
    return streams_[static_cast<std::size_t>(rank)].spans;
  }
  const std::vector<BlockedInterval>& intervals(int rank) const {
    return streams_[static_cast<std::size_t>(rank)].intervals;
  }

  // --- hooks (called from the smpi layer during the world's run) ----------
  void on_enter(int rank, const char* op, double now);
  void on_exit(int rank, double now);
  // Attach peer/bytes to the open span (app-level p2p posts). Collective
  // spans accumulate bytes from their internal sends but keep peer == -1.
  void annotate_peer(int rank, int peer_world);
  void add_bytes(int rank, std::uint64_t bytes);
  void on_blocked(int rank, double t0, double t1, double flow_start, double peer_ready,
                  int peer_world, std::uint64_t bytes, WaitClass cls);

 private:
  struct RankStream {
    std::vector<Span> spans;
    std::vector<BlockedInterval> intervals;  // t1-ordered (ranks are sequential)
    int open = -1;                           // index of the open span, -1 when idle
  };
  std::vector<RankStream> streams_;
};

}  // namespace smpi::obs
