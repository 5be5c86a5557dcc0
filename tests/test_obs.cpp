// Observability subsystem tests: wait-state classification on micro-traces
// with analytically known answers, critical-path extraction (length ==
// makespan, ring chains vs. star fan-outs), the per-span accounting
// invariant compute + transfer + wait == elapsed, the zero-overhead canary
// (bit-identical simulated times and counters with analysis off), the
// per-rank attribution fix for overlapped nonblocking operations, and the
// simulator self-profiler.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "obs/span.hpp"
#include "smpi_test_util.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "workload/generate.hpp"
#include "workload/spec.hpp"

namespace obs = smpi::obs;
namespace tr = smpi::trace;
using namespace smpi_test;

namespace {

// Runs `body` on `nprocs` ranks with `spans` as the world's span collector.
double run_with_spans(obs::SpanCollector& spans, int nprocs, const std::function<void()>& body) {
  smpi::core::Observers observers;
  observers.spans = &spans;
  return run_mpi(nprocs, body, fast_config(), observers);
}

// Every span stream must satisfy the exact accounting identity and the
// critical path must tile [0, makespan].
void expect_analysis_invariants(const obs::AnalysisResult& a) {
  for (int r = 0; r < a.nranks; ++r) {
    const obs::RankBreakdown& b = a.ranks[static_cast<std::size_t>(r)];
    EXPECT_NEAR(b.compute_s + b.transfer_s + b.wait_s, b.elapsed_s,
                1e-9 * std::max(1.0, b.elapsed_s))
        << "rank " << r;
    EXPECT_GE(b.wait_s, 0.0) << "rank " << r;
    EXPECT_GE(b.transfer_s, 0.0) << "rank " << r;
  }
  EXPECT_GE(a.wait_fraction, 0.0);
  EXPECT_LE(a.wait_fraction, 1.0);
  EXPECT_TRUE(a.path_complete);
  EXPECT_NEAR(a.path_length_s, a.makespan, 1e-9 * std::max(1.0, a.makespan));
  EXPECT_NEAR(a.cp_compute_s + a.cp_comm_s, a.path_length_s,
              1e-9 * std::max(1.0, a.path_length_s));
  // The segments tile [0, makespan]: contiguous, forward-ordered, no gaps.
  ASSERT_FALSE(a.path.empty());
  EXPECT_NEAR(a.path.front().t0, 0.0, 1e-12);
  EXPECT_NEAR(a.path.back().t1, a.makespan, 1e-9 * std::max(1.0, a.makespan));
  for (std::size_t i = 1; i < a.path.size(); ++i) {
    EXPECT_NEAR(a.path[i].t0, a.path[i - 1].t1, 1e-12) << "segment " << i;
  }
}

std::set<int> path_ranks(const obs::AnalysisResult& a) {
  std::set<int> ranks;
  for (const auto& seg : a.path) ranks.insert(seg.rank);
  return ranks;
}

// 2-rank overlap micro-trace: rank 1 prepost an Irecv, computes while the
// rendezvous transfer runs underneath, then waits out the remainder.
tr::TiTrace overlap_trace(double overlap_flops) {
  tr::TiTrace trace;
  trace.nranks = 2;
  trace.app = "overlap";
  trace.ranks.resize(2);
  auto rec = [](tr::TiOp op) {
    tr::TiRecord r;
    r.op = op;
    return r;
  };
  // rank 0: send 1 MB (rendezvous: > 64 KiB eager threshold).
  trace.ranks[0].push_back(rec(tr::TiOp::kInit));
  {
    tr::TiRecord r = rec(tr::TiOp::kSend);
    r.peer = 1;
    r.count = 1000000;
    r.elem = 1;
    trace.ranks[0].push_back(r);
  }
  trace.ranks[0].push_back(rec(tr::TiOp::kFinalize));
  // rank 1: irecv; compute; wait.
  trace.ranks[1].push_back(rec(tr::TiOp::kInit));
  {
    tr::TiRecord r = rec(tr::TiOp::kIrecv);
    r.peer = 0;
    r.count = 1000000;
    r.elem = 1;
    r.req = 0;
    trace.ranks[1].push_back(r);
  }
  {
    tr::TiRecord r = rec(tr::TiOp::kCompute);
    r.value = overlap_flops;
    trace.ranks[1].push_back(r);
  }
  {
    tr::TiRecord r = rec(tr::TiOp::kWait);
    r.req = 0;
    trace.ranks[1].push_back(r);
  }
  trace.ranks[1].push_back(rec(tr::TiOp::kFinalize));
  return trace;
}

tr::TiTrace stencil_trace(int ranks) {
  smpi::workload::WorkloadSpec spec;
  spec.name = "obs-stencil";
  spec.ranks = ranks;
  spec.seed = 7;
  smpi::workload::PhaseSpec phase;
  phase.pattern = smpi::workload::Pattern::kStencil2d;
  phase.iterations = 3;
  phase.bytes = {4096};
  phase.compute.flops = 2e5;
  phase.compute.imbalance = 0.3;
  spec.phases.push_back(phase);
  return smpi::workload::generate_workload(spec);
}

}  // namespace

// ---------------------------------------------------------------------------
// Wait-state classification on analytically known micro-benchmarks
// ---------------------------------------------------------------------------

// Rank 0 computes exactly 3 ms (3e6 flops at 1e9 flop/s) before posting an
// eager send; rank 1 is already blocked in MPI_Recv. The receiver's idle
// stretch is a late-sender wait of exactly 3 ms: both ranks leave MPI_Init
// at the same date, so block start and flow start differ by the compute
// alone.
TEST(ObsWaitStates, LateSenderOfExactlyThreeMs) {
  obs::SpanCollector collector(2);
  run_with_spans(collector, 2, [] {
    char buf[8] = {0};
    if (my_rank() == 0) {
      smpi_execute_flops(3e6);
      MPI_Send(buf, 8, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf, 8, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
  });
  const obs::AnalysisResult a = obs::analyze(collector);
  expect_analysis_invariants(a);
  EXPECT_NEAR(a.ranks[1].late_sender_s, 0.003, 1e-9);
  EXPECT_DOUBLE_EQ(a.ranks[1].late_receiver_s, 0.0);
  // Rank 0 never waits on a peer outside the finalize barrier.
  EXPECT_DOUBLE_EQ(a.ranks[0].late_sender_s, 0.0);
  EXPECT_EQ(a.dominant_wait_state, "late_sender");
  EXPECT_GT(a.total_wait_s, 0.0029);
}

// The mirror image through the rendezvous protocol: a 128 KiB send (above
// the eager threshold) cannot move data until the receive is posted, so a
// receiver that computes 3 ms first leaves the sender in a late-receiver
// wait of exactly 3 ms.
TEST(ObsWaitStates, LateReceiverViaRendezvous) {
  obs::SpanCollector collector(2);
  run_with_spans(collector, 2, [] {
    std::vector<char> buf(128 * 1024);
    if (my_rank() == 0) {
      MPI_Send(buf.data(), static_cast<int>(buf.size()), MPI_CHAR, 1, 0, MPI_COMM_WORLD);
    } else {
      smpi_execute_flops(3e6);
      MPI_Recv(buf.data(), static_cast<int>(buf.size()), MPI_CHAR, 0, 0, MPI_COMM_WORLD,
               MPI_STATUS_IGNORE);
    }
  });
  const obs::AnalysisResult a = obs::analyze(collector);
  expect_analysis_invariants(a);
  EXPECT_NEAR(a.ranks[0].late_receiver_s, 0.003, 1e-9);
  EXPECT_DOUBLE_EQ(a.ranks[0].late_sender_s, 0.0);
  EXPECT_EQ(a.dominant_wait_state, "late_receiver");
}

// Load imbalance at a collective sync point surfaces as early-arrival time
// on the fast ranks and none on the straggler.
TEST(ObsWaitStates, EarlyArrivalAtBarrier) {
  obs::SpanCollector collector(4);
  run_with_spans(collector, 4, [] {
    if (my_rank() == 3) smpi_execute_flops(4e6);  // 4 ms straggler
    MPI_Barrier(MPI_COMM_WORLD);
  });
  const obs::AnalysisResult a = obs::analyze(collector);
  expect_analysis_invariants(a);
  for (int r = 0; r < 3; ++r) {
    EXPECT_GT(a.ranks[static_cast<std::size_t>(r)].early_arrival_s, 0.003) << "rank " << r;
  }
  EXPECT_EQ(a.dominant_wait_state, "early_arrival");
  EXPECT_GT(a.compute_imbalance, 1.0);  // one rank does all the flops
}

// ---------------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------------

// A token passed around the ring serializes every rank: the critical path
// must visit all of them, and its length must equal the makespan exactly.
TEST(ObsCriticalPath, RingVisitsEveryRank) {
  constexpr int kRanks = 4;
  obs::SpanCollector collector(kRanks);
  run_with_spans(collector, kRanks, [] {
    char token[64] = {0};
    const int rank = my_rank();
    if (rank > 0) {
      MPI_Recv(token, 64, MPI_CHAR, rank - 1, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    smpi_execute_flops(1e6);  // 1 ms of work per hop
    if (rank < world_size() - 1) {
      MPI_Send(token, 64, MPI_CHAR, rank + 1, 0, MPI_COMM_WORLD);
    }
  });
  const obs::AnalysisResult a = obs::analyze(collector);
  expect_analysis_invariants(a);
  EXPECT_EQ(static_cast<int>(path_ranks(a).size()), kRanks);
  // Four serialized 1 ms compute hops dominate the makespan.
  EXPECT_GT(a.makespan, 0.004);
  EXPECT_GT(a.cp_compute_s, 0.0039);
}

// A star fan-out has no chain: the path stays on the hub and the last spoke,
// and the makespan is far below the ring's serialized sum.
TEST(ObsCriticalPath, StarStaysShort) {
  constexpr int kRanks = 4;
  obs::SpanCollector collector(kRanks);
  const double star_time = run_with_spans(collector, kRanks, [] {
    char buf[64] = {0};
    if (my_rank() == 0) {
      for (int peer = 1; peer < world_size(); ++peer) {
        MPI_Send(buf, 64, MPI_CHAR, peer, 0, MPI_COMM_WORLD);
      }
    } else {
      MPI_Recv(buf, 64, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
  });
  const obs::AnalysisResult a = obs::analyze(collector);
  expect_analysis_invariants(a);
  EXPECT_NEAR(a.path_length_s, star_time, 1e-9);
  EXPECT_LT(a.makespan, 0.004);  // no serialized compute chain
}

// ---------------------------------------------------------------------------
// Replay integration: invariants, attribution fix, zero-overhead canary
// ---------------------------------------------------------------------------

// A generated 16-rank stencil replayed with analysis on: the accounting
// identity holds per rank, the path length equals the replay makespan, and
// the per-rank usage split is consistent with the span-derived breakdown.
TEST(ObsReplay, StencilInvariantsReconcile) {
  const tr::TiTrace trace = stencil_trace(16);
  const auto platform = test_cluster(16);
  tr::ReplayOptions options;
  options.analyze = true;
  const tr::ReplayResult result = tr::replay_trace(platform, fast_config(), trace, options);
  ASSERT_TRUE(result.analyzed);
  const obs::AnalysisResult& a = result.analysis;
  EXPECT_EQ(a.nranks, 16);
  expect_analysis_invariants(a);
  EXPECT_GT(a.total_wait_s + a.total_transfer_s, 0.0);
  ASSERT_EQ(result.rank_compute_s.size(), 16u);
  ASSERT_EQ(result.rank_comm_s.size(), 16u);
  ASSERT_EQ(result.rank_wait_s.size(), 16u);
  ASSERT_EQ(result.rank_transfer_s.size(), 16u);
  for (std::size_t r = 0; r < 16; ++r) {
    const obs::RankBreakdown& b = a.ranks[r];
    const double wait_s = result.rank_wait_s[r];
    const double transfer_s = result.rank_transfer_s[r];
    EXPECT_DOUBLE_EQ(wait_s, b.wait_s) << "rank " << r;
    EXPECT_DOUBLE_EQ(transfer_s, b.transfer_s) << "rank " << r;
    EXPECT_NEAR(result.rank_comm_s[r], wait_s + transfer_s, 1e-12) << "rank " << r;
    EXPECT_NEAR(result.rank_compute_s[r] + result.rank_comm_s[r], b.elapsed_s,
                1e-9 * std::max(1.0, b.elapsed_s))
        << "rank " << r;
  }
}

// The attribution fix for overlapped nonblocking operations: rank 1
// preposts a 1 MB Irecv (rendezvous), computes 5 ms while the ~10 ms
// transfer runs underneath, then waits out the tail. The tail is wire time,
// not idle time — wait_s must be ~0 and the overlapped compute must stay
// attributed to compute (the old record-based split could not tell a
// blocked-on-peer wait from a wire-busy wait at all).
TEST(ObsReplay, OverlappedNonblockingAttribution) {
  const tr::TiTrace trace = overlap_trace(/*overlap_flops=*/5e6);
  const auto platform = test_cluster(2);
  tr::ReplayOptions options;
  options.analyze = true;
  const tr::ReplayResult result = tr::replay_trace(platform, fast_config(), trace, options);
  ASSERT_TRUE(result.analyzed);
  expect_analysis_invariants(result.analysis);
  // The transfer started before the wait began, so none of the blocked tail
  // is a true wait state.
  EXPECT_NEAR(result.rank_wait_s[1], 0.0, 1e-9);
  // ~10 ms transfer minus the 5 ms hidden under the compute record.
  EXPECT_GT(result.rank_transfer_s[1], 0.004);
  EXPECT_LT(result.rank_transfer_s[1], 0.007);
  // The overlapped compute is compute, not communication.
  EXPECT_GT(result.rank_compute_s[1], 0.005 - 1e-9);
  EXPECT_EQ(result.analysis.ranks[1].late_sender_s, 0.0);
}

// Zero-overhead canary: the same replay with analysis on and off must take
// the exact same simulated-time trajectory — bit-identical simulated time,
// solver counters, and p2p hot-path counters.
TEST(ObsReplay, AnalysisOffIsBitIdentical) {
  const tr::TiTrace trace = stencil_trace(8);
  const auto platform = test_cluster(8);
  tr::ReplayOptions off;
  tr::ReplayOptions on;
  on.analyze = true;
  const tr::ReplayResult plain = tr::replay_trace(platform, fast_config(), trace, off);
  const tr::ReplayResult analyzed = tr::replay_trace(platform, fast_config(), trace, on);
  EXPECT_FALSE(plain.analyzed);
  ASSERT_TRUE(analyzed.analyzed);
  EXPECT_EQ(plain.simulated_time, analyzed.simulated_time);  // bit-identical
  EXPECT_EQ(plain.solver_solves, analyzed.solver_solves);
  EXPECT_EQ(plain.solver_vars_touched, analyzed.solver_vars_touched);
  EXPECT_EQ(plain.solver_cons_touched, analyzed.solver_cons_touched);
  EXPECT_EQ(plain.p2p.pool_hits, analyzed.p2p.pool_hits);
  EXPECT_EQ(plain.p2p.pool_misses, analyzed.p2p.pool_misses);
  EXPECT_EQ(plain.p2p.eager_snapshots, analyzed.p2p.eager_snapshots);
  EXPECT_EQ(plain.p2p.eager_copy_elided, analyzed.p2p.eager_copy_elided);
  EXPECT_EQ(plain.p2p.eager_flush_snapshots, analyzed.p2p.eager_flush_snapshots);
  EXPECT_EQ(plain.p2p.bytes_not_copied, analyzed.p2p.bytes_not_copied);
  // And the analyzed run's critical path still reconciles with that time.
  EXPECT_NEAR(analyzed.analysis.path_length_s, analyzed.analysis.makespan,
              1e-9 * std::max(1.0, analyzed.analysis.makespan));
}

// ---------------------------------------------------------------------------
// Resource-utilization timelines, saturation ledger, bottleneck ranking
// ---------------------------------------------------------------------------

namespace {

// Rank 0 isends `bytes` to every other rank at the same simulated instant
// and waits them all out; receivers just post the matching Recv. Every flow
// crosses rank 0's uplink, which makes the expected shares analytic.
tr::TiTrace fanout_trace(int receivers, long long bytes) {
  tr::TiTrace trace;
  trace.nranks = receivers + 1;
  trace.app = "fanout";
  trace.ranks.resize(static_cast<std::size_t>(trace.nranks));
  auto rec = [](tr::TiOp op) {
    tr::TiRecord r;
    r.op = op;
    return r;
  };
  trace.ranks[0].push_back(rec(tr::TiOp::kInit));
  for (int peer = 1; peer <= receivers; ++peer) {
    tr::TiRecord r = rec(tr::TiOp::kIsend);
    r.peer = peer;
    r.count = bytes;
    r.elem = 1;
    r.req = peer;
    trace.ranks[0].push_back(r);
  }
  for (int peer = 1; peer <= receivers; ++peer) {
    tr::TiRecord r = rec(tr::TiOp::kWait);
    r.req = peer;
    trace.ranks[0].push_back(r);
  }
  trace.ranks[0].push_back(rec(tr::TiOp::kFinalize));
  for (int peer = 1; peer <= receivers; ++peer) {
    auto& stream = trace.ranks[static_cast<std::size_t>(peer)];
    stream.push_back(rec(tr::TiOp::kInit));
    tr::TiRecord r = rec(tr::TiOp::kRecv);
    r.peer = 0;
    r.count = bytes;
    r.elem = 1;
    stream.push_back(r);
    stream.push_back(rec(tr::TiOp::kFinalize));
  }
  return trace;
}

// Every rank sends `bytes` to its successor: a closed ring where all
// uplinks carry exactly one flow — perfectly symmetric, no dominant link.
tr::TiTrace ring_trace(int ranks, long long bytes) {
  tr::TiTrace trace;
  trace.nranks = ranks;
  trace.app = "ring";
  trace.ranks.resize(static_cast<std::size_t>(ranks));
  auto rec = [](tr::TiOp op) {
    tr::TiRecord r;
    r.op = op;
    return r;
  };
  for (int rank = 0; rank < ranks; ++rank) {
    auto& stream = trace.ranks[static_cast<std::size_t>(rank)];
    stream.push_back(rec(tr::TiOp::kInit));
    tr::TiRecord send = rec(tr::TiOp::kIsend);
    send.peer = (rank + 1) % ranks;
    send.count = bytes;
    send.elem = 1;
    send.req = 0;
    stream.push_back(send);
    tr::TiRecord recv = rec(tr::TiOp::kRecv);
    recv.peer = (rank + ranks - 1) % ranks;
    recv.count = bytes;
    recv.elem = 1;
    stream.push_back(recv);
    tr::TiRecord wait = rec(tr::TiOp::kWait);
    wait.req = 0;
    stream.push_back(wait);
    stream.push_back(rec(tr::TiOp::kFinalize));
  }
  return trace;
}

int find_resource(const obs::ResourceCollector& resources, const std::string& name) {
  for (int r = 0; r < static_cast<int>(resources.resource_count()); ++r) {
    if (resources.timeline(r).name == name) return r;
  }
  return -1;
}

}  // namespace

// Two equal eager flows launched at the same instant over rank 0's uplink:
// max-min gives each exactly half the capacity, and the link is saturated
// for precisely the duration of the shared transfer.
TEST(ObsResources, TwoFlowsShareOneLinkFiftyFifty) {
  constexpr long long kBytes = 32 * 1024;  // eager: the flow starts at the send
  const tr::TiTrace trace = fanout_trace(2, kBytes);
  const auto platform = test_cluster(3);
  obs::ResourceCollector resources;
  tr::ReplayOptions options;
  options.resources = &resources;
  const tr::ReplayResult result = tr::replay_trace(platform, fast_config(), trace, options);
  ASSERT_TRUE(result.resources_analyzed);

  const int uplink = find_resource(resources, "up-node-0");
  ASSERT_GE(uplink, 0) << "rank 0's uplink was not registered";
  const obs::ResourceTimeline& tl = resources.timeline(uplink);
  const double capacity = tl.steps.front().capacity;
  ASSERT_GT(capacity, 0.0);

  // Exactly one saturated interval: both flows present, each at capacity/2.
  ASSERT_EQ(tl.saturated.size(), 1u);
  const obs::SaturationInterval& interval = tl.saturated.front();
  ASSERT_EQ(interval.shares.size(), 2u);
  EXPECT_NEAR(interval.shares[0].second, capacity / 2, 1e-9 * capacity);
  EXPECT_NEAR(interval.shares[1].second, capacity / 2, 1e-9 * capacity);
  // At cap/2 each, draining `kBytes` per flow takes 2*kBytes/capacity.
  EXPECT_NEAR(interval.t1 - interval.t0, 2.0 * static_cast<double>(kBytes) / capacity,
              1e-9);
  EXPECT_EQ(resources.distinct_flows(uplink), 2);
  EXPECT_NEAR(resources.saturated_seconds(uplink),
              2.0 * static_cast<double>(kBytes) / capacity, 1e-9);
  // Both flows' payload crossed the link: the exact utilization-timeline
  // integral (usage x dt) reconciles with the bytes at 1e-9 relative.
  EXPECT_NEAR(resources.utilization_integral(uplink), 2.0 * static_cast<double>(kBytes),
              1e-9 * 2.0 * static_cast<double>(kBytes));
  EXPECT_NEAR(resources.max_utilization(uplink), 1.0, 1e-12);
}

// The timeline integral is exact on a single flow too: one message, one
// link, integral == bytes and saturated time == bytes / capacity.
TEST(ObsResources, UtilizationIntegralReconcilesWithBytes) {
  constexpr long long kBytes = 1000000;
  const tr::TiTrace trace = fanout_trace(1, kBytes);
  const auto platform = test_cluster(2);
  obs::ResourceCollector resources;
  tr::ReplayOptions options;
  options.resources = &resources;
  tr::replay_trace(platform, fast_config(), trace, options);
  for (const char* name : {"up-node-0", "down-node-1"}) {
    const int link = find_resource(resources, name);
    ASSERT_GE(link, 0) << name;
    EXPECT_NEAR(resources.utilization_integral(link), static_cast<double>(kBytes),
                1e-9 * static_cast<double>(kBytes))
        << name;
    const double capacity = resources.timeline(link).steps.front().capacity;
    EXPECT_NEAR(resources.saturated_seconds(link), static_cast<double>(kBytes) / capacity,
                1e-9)
        << name;
  }
  // Links the message never crossed stay flat at zero.
  const int other = find_resource(resources, "down-node-0");
  ASSERT_GE(other, 0);
  EXPECT_EQ(resources.utilization_integral(other), 0.0);
  EXPECT_EQ(resources.saturated_seconds(other), 0.0);
}

// Bottleneck attribution tells a star from a ring: the star's shared
// downlink tops the ranking with every flow on it, while the symmetric
// ring has no dominant resource at all.
TEST(ObsResources, StarVersusRingBottleneckRanking) {
  constexpr int kRanks = 6;
  constexpr long long kBytes = 32 * 1024;
  const auto platform = test_cluster(kRanks);

  // Star: everyone sends to rank 0 — its downlink carries all 5 flows.
  tr::TiTrace star;
  star.nranks = kRanks;
  star.app = "star";
  star.ranks.resize(kRanks);
  auto rec = [](tr::TiOp op) {
    tr::TiRecord r;
    r.op = op;
    return r;
  };
  star.ranks[0].push_back(rec(tr::TiOp::kInit));
  for (int peer = 1; peer < kRanks; ++peer) {
    tr::TiRecord r = rec(tr::TiOp::kRecv);
    r.peer = peer;
    r.count = kBytes;
    r.elem = 1;
    star.ranks[0].push_back(r);
  }
  star.ranks[0].push_back(rec(tr::TiOp::kFinalize));
  for (int rank = 1; rank < kRanks; ++rank) {
    auto& stream = star.ranks[static_cast<std::size_t>(rank)];
    stream.push_back(rec(tr::TiOp::kInit));
    tr::TiRecord r = rec(tr::TiOp::kSend);
    r.peer = 0;
    r.count = kBytes;
    r.elem = 1;
    stream.push_back(r);
    stream.push_back(rec(tr::TiOp::kFinalize));
  }
  obs::ResourceCollector star_resources;
  tr::ReplayOptions star_options;
  star_options.resources = &star_resources;
  tr::replay_trace(platform, fast_config(), star, star_options);
  const auto star_ranked = star_resources.bottlenecks();
  ASSERT_FALSE(star_ranked.empty());
  EXPECT_EQ(star_resources.timeline(star_ranked[0].resource).name, "down-node-0");
  EXPECT_EQ(star_ranked[0].flows, kRanks - 1);
  // The hot downlink saturates strictly longer than any per-sender uplink.
  for (std::size_t i = 1; i < star_ranked.size(); ++i) {
    EXPECT_GT(star_ranked[0].saturated_s, star_ranked[i].saturated_s * 1.5)
        << star_resources.timeline(star_ranked[i].resource).name;
  }
  EXPECT_EQ(star_resources.summary().top_bottleneck, "down-node-0");

  // Ring: one flow per uplink, all symmetric — saturated time is equal on
  // every used link and no resource stands out.
  obs::ResourceCollector ring_collector;
  tr::ReplayOptions ring_options;
  ring_options.resources = &ring_collector;
  tr::replay_trace(platform, fast_config(), ring_trace(kRanks, kBytes), ring_options);
  const auto ring_ranked = ring_collector.bottlenecks();
  ASSERT_GE(ring_ranked.size(), 2u);
  EXPECT_NEAR(ring_ranked.front().saturated_s, ring_ranked.back().saturated_s, 1e-9);
  EXPECT_EQ(ring_ranked.front().flows, 1);
}

// Zero-overhead canary for the resource layer: a replay with the collector
// attached takes the exact same simulated-time trajectory as one without —
// bit-identical time, solver counters, and p2p counters.
TEST(ObsResources, ResourcesOffIsBitIdentical) {
  const tr::TiTrace trace = stencil_trace(8);
  const auto platform = test_cluster(8);
  tr::ReplayOptions off;
  tr::ReplayOptions on;
  obs::ResourceCollector resources;
  on.resources = &resources;
  const tr::ReplayResult plain = tr::replay_trace(platform, fast_config(), trace, off);
  const tr::ReplayResult observed = tr::replay_trace(platform, fast_config(), trace, on);
  EXPECT_FALSE(plain.resources_analyzed);
  ASSERT_TRUE(observed.resources_analyzed);
  EXPECT_EQ(plain.simulated_time, observed.simulated_time);  // bit-identical
  EXPECT_EQ(plain.solver_solves, observed.solver_solves);
  EXPECT_EQ(plain.solver_vars_touched, observed.solver_vars_touched);
  EXPECT_EQ(plain.solver_cons_touched, observed.solver_cons_touched);
  EXPECT_EQ(plain.p2p.pool_hits, observed.p2p.pool_hits);
  EXPECT_EQ(plain.p2p.pool_misses, observed.p2p.pool_misses);
  EXPECT_EQ(plain.p2p.eager_snapshots, observed.p2p.eager_snapshots);
  EXPECT_EQ(plain.surf_observe.solves_attach, observed.surf_observe.solves_attach);
  EXPECT_EQ(plain.surf_observe.solves_release, observed.surf_observe.solves_release);
  EXPECT_EQ(plain.surf_observe.saturation_events, observed.surf_observe.saturation_events);
  // The un-observed run never drained a snapshot; the observed one did.
  EXPECT_EQ(plain.surf_observe.observe_drains, 0u);
  EXPECT_GT(observed.surf_observe.observe_drains, 0u);
  EXPECT_GT(resources.snapshot_count(), 0u);
}

// ---------------------------------------------------------------------------
// Self-profiler
// ---------------------------------------------------------------------------

// With a profiler installed, every instrumented hot path reports calls; with
// none installed the hooks are a load + branch (smoke-checked by the suite
// above running un-instrumented).
TEST(ObsProfiler, HotPathsReportCalls) {
  obs::Profiler profiler;
  obs::install_profiler(&profiler);
  run_mpi(4, [] {
    std::vector<char> buf(1 << 16);
    MPI_Allreduce(MPI_IN_PLACE, buf.data(), static_cast<int>(buf.size() / 8), MPI_DOUBLE, MPI_SUM,
                  MPI_COMM_WORLD);
  });
  obs::clear_profiler();
  EXPECT_GT(profiler.stats(obs::ProfKey::kSolverSolve).calls, 0u);
  EXPECT_GT(profiler.stats(obs::ProfKey::kCalendarAdvance).calls, 0u);
  EXPECT_GT(profiler.stats(obs::ProfKey::kContextSwitch).calls, 0u);
  EXPECT_GT(profiler.stats(obs::ProfKey::kPoolOp).calls, 0u);
  for (int k = 0; k < static_cast<int>(obs::ProfKey::kCount); ++k) {
    EXPECT_GE(profiler.stats(static_cast<obs::ProfKey>(k)).seconds, 0.0);
  }
}
