#include "obs/analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "trace/paje.hpp"
#include "util/check.hpp"

namespace smpi::obs {

namespace {

// Index of the last interval with t1 <= t, or -1. Intervals are t1-ordered
// (ranks are sequential; waits complete in program order).
int last_interval_before(const std::vector<BlockedInterval>& intervals, double t) {
  int lo = 0, hi = static_cast<int>(intervals.size()) - 1, best = -1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (intervals[static_cast<std::size_t>(mid)].t1 <= t) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

}  // namespace

AnalysisResult analyze(const SpanCollector& spans, const std::vector<double>& rank_compute_s) {
  AnalysisResult result;
  result.nranks = spans.nranks();
  SMPI_REQUIRE(rank_compute_s.size() == static_cast<std::size_t>(result.nranks),
               "analyze needs one compute time per rank");
  result.ranks.resize(static_cast<std::size_t>(result.nranks));

  // --- per-rank and per-op aggregation -----------------------------------
  std::map<std::string, OpStat> by_op;
  std::size_t total_intervals = 0;
  for (int r = 0; r < result.nranks; ++r) {
    RankBreakdown& rank = result.ranks[static_cast<std::size_t>(r)];
    rank.compute_s = rank_compute_s[static_cast<std::size_t>(r)];
    for (const Span& span : spans.spans(r)) {
      rank.end_s = std::max(rank.end_s, span.t_end);
      rank.elapsed_s += span.elapsed();
      rank.wait_s += span.wait_s;
      rank.transfer_s += span.transfer_s;
      OpStat& op = by_op[span.op];
      op.op = span.op;
      ++op.count;
      op.elapsed_s += span.elapsed();
      op.wait_s += span.wait_s;
      op.transfer_s += span.transfer_s;
      op.bytes += span.bytes;
    }
    for (const BlockedInterval& interval : spans.intervals(r)) {
      const double wait = interval.wait_s();
      switch (interval.cls) {
        case WaitClass::kLateSender:
          rank.late_sender_s += wait;
          break;
        case WaitClass::kLateReceiver:
          rank.late_receiver_s += wait;
          break;
        case WaitClass::kEarlyArrival:
          rank.early_arrival_s += wait;
          break;
        default:
          break;
      }
    }
    total_intervals += spans.intervals(r).size();
    result.makespan = std::max(result.makespan, rank.end_s);
    result.total_elapsed_s += rank.elapsed_s;
    result.total_compute_s += rank.compute_s;
    result.total_transfer_s += rank.transfer_s;
    result.total_wait_s += rank.wait_s;
  }
  for (auto& entry : by_op) result.ops.push_back(std::move(entry.second));
  std::sort(result.ops.begin(), result.ops.end(),
            [](const OpStat& a, const OpStat& b) { return a.elapsed_s > b.elapsed_s; });

  if (result.total_elapsed_s > 0) {
    result.wait_fraction = result.total_wait_s / result.total_elapsed_s;
  }
  double max_compute = 0;
  for (const RankBreakdown& rank : result.ranks) max_compute = std::max(max_compute, rank.compute_s);
  const double mean_compute =
      result.nranks > 0 ? result.total_compute_s / result.nranks : 0;
  if (mean_compute > 0) result.compute_imbalance = max_compute / mean_compute - 1.0;

  double late_sender = 0, late_receiver = 0, early_arrival = 0;
  for (const RankBreakdown& rank : result.ranks) {
    late_sender += rank.late_sender_s;
    late_receiver += rank.late_receiver_s;
    early_arrival += rank.early_arrival_s;
  }
  const double dominant = std::max({late_sender, late_receiver, early_arrival});
  if (dominant <= 0) {
    result.dominant_wait_state = "none";
  } else if (dominant == late_sender) {
    result.dominant_wait_state = "late_sender";
  } else if (dominant == late_receiver) {
    result.dominant_wait_state = "late_receiver";
  } else {
    result.dominant_wait_state = "early_arrival";
  }

  // --- critical path: backward time-continuous walk ----------------------
  if (result.makespan > 0) {
    int rank = 0;
    for (int r = 1; r < result.nranks; ++r) {
      if (result.ranks[static_cast<std::size_t>(r)].end_s >
          result.ranks[static_cast<std::size_t>(rank)].end_s) {
        rank = r;
      }
    }
    double t = result.ranks[static_cast<std::size_t>(rank)].end_s;
    // Cycle guard for degenerate zero-latency same-date jumps; any real walk
    // consumes one interval (or terminates) per step.
    std::size_t budget = 2 * total_intervals + static_cast<std::size_t>(result.nranks) + 16;
    while (budget-- > 0) {
      const auto& intervals = spans.intervals(rank);
      const int idx = last_interval_before(intervals, t);
      if (idx < 0) {
        if (t > 0) result.path.push_back({rank, 0, t, false, nullptr});
        result.path_complete = true;
        break;
      }
      const BlockedInterval& b = intervals[static_cast<std::size_t>(idx)];
      if (b.t1 < t) result.path.push_back({rank, b.t1, t, false, nullptr});
      const bool jump = b.peer >= 0 && b.peer_ready > b.t0;
      const double join = jump ? std::min(std::max(b.t0, b.peer_ready), b.t1) : b.t0;
      const char* op = nullptr;
      if (b.span >= 0 &&
          static_cast<std::size_t>(b.span) < spans.spans(rank).size()) {
        op = spans.spans(rank)[static_cast<std::size_t>(b.span)].op;
      }
      if (b.t1 > join) result.path.push_back({rank, join, b.t1, true, op});
      if (jump) {
        rank = b.peer;
        t = std::min(b.peer_ready, b.t1);
      } else {
        t = b.t0;
      }
    }
    std::reverse(result.path.begin(), result.path.end());
    for (const PathSegment& seg : result.path) {
      const double len = seg.t1 - seg.t0;
      result.path_length_s += len;
      if (seg.comm) {
        result.cp_comm_s += len;
      } else {
        result.cp_compute_s += len;
      }
    }
  } else {
    result.path_complete = true;
  }
  return result;
}

std::string analysis_text(const AnalysisResult& result) {
  std::string out;
  char line[256];
  const auto pct = [](double part, double whole) {
    return whole > 0 ? 100.0 * part / whole : 0.0;
  };
  std::snprintf(line, sizeof(line),
                "wait-state analysis: %d ranks, makespan %.9f s, wait fraction %.1f%%\n",
                result.nranks, result.makespan, 100.0 * result.wait_fraction);
  out += line;
  std::snprintf(line, sizeof(line),
                "  time split: compute %.1f%%  transfer %.1f%%  wait %.1f%%  "
                "(compute imbalance %.1f%%)\n",
                pct(result.total_compute_s, result.total_elapsed_s),
                pct(result.total_transfer_s, result.total_elapsed_s),
                pct(result.total_wait_s, result.total_elapsed_s),
                100.0 * result.compute_imbalance);
  out += line;
  double late_sender = 0, late_receiver = 0, early_arrival = 0;
  for (const RankBreakdown& rank : result.ranks) {
    late_sender += rank.late_sender_s;
    late_receiver += rank.late_receiver_s;
    early_arrival += rank.early_arrival_s;
  }
  std::snprintf(line, sizeof(line),
                "  wait states: late_sender %.6f s  late_receiver %.6f s  "
                "early_arrival %.6f s  (dominant: %s)\n",
                late_sender, late_receiver, early_arrival, result.dominant_wait_state.c_str());
  out += line;
  std::snprintf(line, sizeof(line),
                "  critical path: length %.9f s (%s), compute %.6f s (%.1f%%), "
                "comm %.6f s (%.1f%%), %zu segments\n",
                result.path_length_s, result.path_complete ? "complete" : "truncated",
                result.cp_compute_s, pct(result.cp_compute_s, result.path_length_s),
                result.cp_comm_s, pct(result.cp_comm_s, result.path_length_s),
                result.path.size());
  out += line;
  const std::size_t top = std::min<std::size_t>(result.ops.size(), 8);
  for (std::size_t i = 0; i < top; ++i) {
    const OpStat& op = result.ops[i];
    std::snprintf(line, sizeof(line),
                  "  op %-14s count %8llu  elapsed %.6f s  wait %.6f s  transfer %.6f s\n",
                  op.op.c_str(), static_cast<unsigned long long>(op.count), op.elapsed_s,
                  op.wait_s, op.transfer_s);
    out += line;
  }
  return out;
}

std::uint64_t export_classified_paje(const SpanCollector& spans, const std::string& path,
                                     double finish_time) {
  struct Event {
    double date;
    int rank;
    bool push;  // false = pop
    const char* state;
  };
  std::vector<Event> events;
  for (int r = 0; r < spans.nranks(); ++r) {
    // Group this rank's intervals by owning span (both streams are in
    // program order, so one forward scan suffices).
    const auto& intervals = spans.intervals(r);
    std::size_t next = 0;
    const auto& rank_spans = spans.spans(r);
    for (std::size_t s = 0; s < rank_spans.size(); ++s) {
      const Span& span = rank_spans[s];
      double cursor = span.t_start;
      const auto emit = [&](double t0, double t1, const char* state) {
        if (t1 <= t0) return;
        events.push_back({t0, r, true, state});
        events.push_back({t1, r, false, state});
      };
      while (next < intervals.size() && intervals[next].span <= static_cast<int>(s)) {
        const BlockedInterval& b = intervals[next];
        if (b.span != static_cast<int>(s)) {  // orphan (no open span): skip
          ++next;
          continue;
        }
        emit(cursor, b.t0, "compute");
        const double fs = b.t0 + b.wait_s();
        emit(b.t0, fs, wait_class_name(b.cls));
        emit(fs, b.t1, "transfer");
        cursor = std::max(cursor, b.t1);
        ++next;
      }
      emit(cursor, span.t_end, "compute");
    }
  }
  // Paje wants globally non-decreasing dates. Events were appended rank-major
  // in per-rank order; a stable sort by date preserves each rank's pop-
  // before-push sequencing at shared dates.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.date < b.date; });
  trace::PajeWriter writer(path);
  writer.begin(spans.nranks());
  for (const Event& event : events) {
    if (event.push) {
      writer.push_state(event.rank, event.state, event.date);
    } else {
      writer.pop_state(event.rank, event.date);
    }
  }
  writer.finish(std::max(finish_time, events.empty() ? 0.0 : events.back().date));
  return writer.events();
}

}  // namespace smpi::obs
