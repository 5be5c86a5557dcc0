#include "trace/check.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "trace/reader.hpp"

namespace smpi::trace {

namespace {

// Per-destination p2p accounting. Exact buckets are (source, tag); wildcard
// receives are only tallied (they can absorb anything, so per-bucket
// comparison is off for ranks that post them).
struct RankTraffic {
  std::map<std::pair<long long, long long>, long long> sends_in;   // (src, tag) -> count
  std::map<std::pair<long long, long long>, long long> recvs;      // exact receives
  long long wildcard_recvs = 0;  // ANY_SOURCE and/or ANY_TAG
  long long total_in = 0;        // messages peers send to this rank
  long long total_recvs = 0;     // receives this rank posts
};

std::string plural(long long n, const char* noun) {
  return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
}

}  // namespace

TraceCheckReport check_trace(const TiTrace& trace) {
  TraceCheckReport report;
  const int nranks = trace.nranks;
  auto in_world = [nranks](long long rank) { return rank >= 0 && rank < nranks; };

  std::vector<RankTraffic> traffic(static_cast<std::size_t>(nranks));
  std::vector<std::vector<TiOp>> collectives(static_cast<std::size_t>(nranks));

  for (int rank = 0; rank < nranks; ++rank) {
    for (const TiRecord& r : trace.ranks[static_cast<std::size_t>(rank)]) {
      const bool send_side = r.op == TiOp::kSend || r.op == TiOp::kIsend ||
                             r.op == TiOp::kSendrecv;
      const bool recv_side = r.op == TiOp::kRecv || r.op == TiOp::kIrecv;
      if (send_side && r.peer != kPeerNull) {
        if (!in_world(r.peer)) {
          report.findings.push_back(
              {rank, "rank " + std::to_string(rank) + ": " + ti_op_name(r.op) +
                         " targets rank " + std::to_string(r.peer) + " outside the " +
                         std::to_string(nranks) + "-rank trace"});
        } else {
          RankTraffic& dst = traffic[static_cast<std::size_t>(r.peer)];
          ++dst.sends_in[{rank, r.tag}];
          ++dst.total_in;
        }
      }
      if ((recv_side && r.peer != kPeerNull) ||
          (r.op == TiOp::kSendrecv && r.peer2 != kPeerNull)) {
        const long long src = r.op == TiOp::kSendrecv ? r.peer2 : r.peer;
        const long long tag = r.op == TiOp::kSendrecv ? r.tag2 : r.tag;
        RankTraffic& self = traffic[static_cast<std::size_t>(rank)];
        if (src == kPeerAny || tag == kTagAny) {
          ++self.wildcard_recvs;
        } else if (!in_world(src)) {
          report.findings.push_back(
              {rank, "rank " + std::to_string(rank) + ": receive from rank " +
                         std::to_string(src) + " outside the " + std::to_string(nranks) +
                         "-rank trace"});
        } else {
          ++self.recvs[{src, tag}];
        }
        ++self.total_recvs;
      }
      if (ti_op_is_collective(r.op)) {
        collectives[static_cast<std::size_t>(rank)].push_back(r.op);
      }
    }
  }

  // p2p balance. The aggregate check is always sound; the per-(source, tag)
  // breakdown only when the rank posted no wildcard receives.
  for (int rank = 0; rank < nranks; ++rank) {
    const RankTraffic& t = traffic[static_cast<std::size_t>(rank)];
    if (t.total_in != t.total_recvs) {
      report.findings.push_back(
          {rank, "rank " + std::to_string(rank) + ": peers send " +
                     plural(t.total_in, "message") + " but it posts " +
                     plural(t.total_recvs, "receive")});
    }
    if (t.wildcard_recvs > 0) continue;
    for (const auto& [key, sent] : t.sends_in) {
      const auto it = t.recvs.find(key);
      const long long received = it == t.recvs.end() ? 0 : it->second;
      if (sent > received) {
        report.findings.push_back(
            {rank, "rank " + std::to_string(rank) + ": " +
                       plural(sent - received, "message") + " from rank " +
                       std::to_string(key.first) + " tag " + std::to_string(key.second) +
                       " without a matching receive"});
      }
    }
    for (const auto& [key, received] : t.recvs) {
      const auto it = t.sends_in.find(key);
      const long long sent = it == t.sends_in.end() ? 0 : it->second;
      if (received > sent) {
        report.findings.push_back(
            {rank, "rank " + std::to_string(rank) + ": " +
                       plural(received - sent, "receive") + " from rank " +
                       std::to_string(key.first) + " tag " + std::to_string(key.second) +
                       " without a matching send"});
      }
    }
  }

  // Collectives: every rank must enter the same ops in the same order —
  // rank 0 is the reference, divergences are reported at the first index.
  for (int rank = 1; rank < nranks; ++rank) {
    const auto& reference = collectives[0];
    const auto& mine = collectives[static_cast<std::size_t>(rank)];
    if (mine.size() != reference.size()) {
      report.findings.push_back(
          {rank, "rank " + std::to_string(rank) + ": enters " +
                     plural(static_cast<long long>(mine.size()), "collective") +
                     " but rank 0 enters " +
                     std::to_string(reference.size())});
    }
    const std::size_t common = std::min(mine.size(), reference.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (mine[i] == reference[i]) continue;
      report.findings.push_back(
          {rank, "rank " + std::to_string(rank) + ": collective #" + std::to_string(i) +
                     " is " + ti_op_name(mine[i]) + " but rank 0 enters " +
                     ti_op_name(reference[i])});
      break;  // everything after the first divergence is noise
    }
  }
  return report;
}

}  // namespace smpi::trace
