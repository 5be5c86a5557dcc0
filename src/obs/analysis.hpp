// Wait-state classification and critical-path extraction over a span stream.
//
// Wait states follow the Scalasca taxonomy, reduced to what the simulator
// can attribute exactly:
//   late_sender    — a receive sat idle because the matching send had not
//                    been posted yet (wait portion of a recv-side block);
//   late_receiver  — a rendezvous send sat idle because the receive had not
//                    been posted (the data cannot flow until it is);
//   early_arrival  — a rank blocked inside a collective waiting for other
//                    ranks (the collective-internal recv/send waits);
//   transfer       — the network actually moving bytes (not a wait state);
//   compute        — span time not covered by any blocked interval.
// Per-phase load imbalance surfaces two ways: early_arrival time at the
// collective sync points, and the per-rank compute spread (imbalance).
//
// The critical path is extracted by a backward time-continuous walk from the
// rank that finishes last: local (unblocked) stretches are attributed as
// compute, blocked stretches as communication, and whenever an interval was
// enabled by a peer action *after* the block began (peer_ready > t0) the
// walk jumps to that peer at that date. Segments tile [0, makespan] with no
// gaps or overlaps, so the path length equals the makespan exactly (to
// floating-point summation error, < 1e-9 relative).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace smpi::obs {

struct RankBreakdown {
  double end_s = 0;      // date of the rank's last span end
  double elapsed_s = 0;  // sum of span elapsed times
  double compute_s = 0;  // the world's per-rank compute (~ elapsed - transfer - wait)
  double transfer_s = 0;
  double wait_s = 0;
  double late_sender_s = 0;
  double late_receiver_s = 0;
  double early_arrival_s = 0;
};

// Aggregate over every span with the same op name.
struct OpStat {
  std::string op;
  std::uint64_t count = 0;
  double elapsed_s = 0;
  double wait_s = 0;
  double transfer_s = 0;
  std::uint64_t bytes = 0;
};

struct PathSegment {
  int rank = -1;
  double t0 = 0;
  double t1 = 0;
  bool comm = false;        // true: blocked/communication, false: local work
  const char* op = nullptr;  // owning span's op for comm segments (may be null)
};

struct AnalysisResult {
  int nranks = 0;
  double makespan = 0;  // max rank end date
  std::vector<RankBreakdown> ranks;
  std::vector<OpStat> ops;  // sorted by elapsed, descending

  // Whole-run totals.
  double total_elapsed_s = 0;
  double total_compute_s = 0;
  double total_transfer_s = 0;
  double total_wait_s = 0;
  double wait_fraction = 0;      // total wait / total elapsed
  double compute_imbalance = 0;  // max rank compute / mean rank compute - 1
  std::string dominant_wait_state;  // late_sender | late_receiver | early_arrival | none

  // Critical path (forward order, tiling [0, makespan]).
  std::vector<PathSegment> path;
  double path_length_s = 0;
  double cp_compute_s = 0;
  double cp_comm_s = 0;
  bool path_complete = false;  // walk reached date 0 (always, absent cycles at one date)
};

// `rank_compute_s` is each rank's compute time, the world's per-rank account
// (core::RunResult::rank_compute_s): the analysis reports that one number
// rather than re-deriving it from the spans.
AnalysisResult analyze(const SpanCollector& spans, const std::vector<double>& rank_compute_s);

// Human-readable report (smpirun --analyze).
std::string analysis_text(const AnalysisResult& result);

// Paje timeline colored by wait-state class: each rank's states are
// "compute", "transfer", or the wait-state class name, post-hoc from the
// span stream (globally date-sorted, as the Paje format requires). Returns
// the number of events written.
std::uint64_t export_classified_paje(const SpanCollector& spans, const std::string& path,
                                     double finish_time);

}  // namespace smpi::obs
