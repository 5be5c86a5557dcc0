// Resource-centric observability: exact utilization timelines and contention
// attribution for the platform's links and hosts.
//
// The max-min solver computes, at every solve, exactly which constraint is
// saturated and how its capacity splits across flows — and then drops it.
// This layer keeps it: the surf models drain the solver's changed-constraint
// set at every settle (MaxMinSystem::drain_changed_constraints) and push one
// snapshot per changed resource. Allocations are piecewise-constant between
// solver events, so the resulting timelines are *exact*, not sampled: the
// integral of a link's usage over the run reconciles with the bytes it
// carried at 1e-9.
//
// Three products per resource:
//   - a utilization timeline: (t, usage, capacity) steps, each valid until
//     the next step;
//   - a saturation ledger: maximal intervals where usage == capacity (within
//     the solver's 1e-9 epsilon) with an unchanged flow set and share split.
//     Every interval keeps its bounds; only two keep their per-flow shares
//     (contention attribution): the open one and the longest closed one, the
//     only interval report() prints shares for;
//   - aggregates: saturated-seconds, distinct contending flows, max
//     utilization — folded into a "top bottlenecks" ranking.
//
// Storing only what is reported keeps a saturated snapshot at O(its share
// count), plus O(route length) per flow new to the resource, with no sort
// and no allocation in steady state: a share set that changes under
// contention (every attach or release on a busy link) overwrites one reused
// buffer instead of storing a sorted copy per interval.
//
// A collector is one of the world's observers (core::Observers::resources):
// the world hands it to the surf models it builds, which register their
// links/hosts in their constructors, and finalizes it when the run ends.
// Zero-cost when absent: one pointer test on the settle path, no engine
// timers or activities, and the solver's changed-tracking stays off —
// simulated times and solver counters are bit-identical either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace smpi::obs {

enum class ResourceKind : int {
  kLink = 0,
  kHost,
};

const char* resource_kind_name(ResourceKind kind);

// One step of a piecewise-constant utilization timeline: `usage` out of
// `capacity` from `t` until the next step (or the end of the run).
struct UtilStep {
  double t = 0;
  double usage = 0;
  double capacity = 0;
};

// A maximal interval during which the resource was saturated with an
// unchanged flow set and share split.
struct SaturationInterval {
  double t0 = 0;
  double t1 = -1;  // -1 while still open; finalize() closes it
};

// Share lists hold (flow id, allocation) pairs in the order the snapshot
// listed them; resolve ids to labels through ResourceCollector::flow_label().
using ShareList = std::vector<std::pair<int, double>>;

struct ResourceTimeline {
  ResourceKind kind = ResourceKind::kLink;
  std::string name;
  std::vector<UtilStep> steps;
  std::vector<SaturationInterval> saturated;
  // Shares of the open interval (the last of `saturated` while its t1 < 0).
  ShareList open_shares;
  // The longest closed interval (the first of equal length) and its shares;
  // longest.t1 < 0 until an interval closes.
  SaturationInterval longest;
  ShareList longest_shares;
  std::size_t distinct_flows = 0;  // flows ever stored in this ledger
};

class ResourceCollector {
 public:
  // --- registration (surf models, at construction) -------------------------
  int add_resource(ResourceKind kind, std::string name, double capacity);
  // Returns an attribution id for a flow/execution; labels are owned here so
  // snapshots stay allocation-light (id + double pairs only).
  int add_flow(std::string label);
  const std::string& flow_label(int flow) const {
    return flow_labels_[static_cast<std::size_t>(flow)];
  }

  // --- snapshot hook (surf models, every settle, nondecreasing `now`) ------
  // The exact post-settle state of the resource's constraint. Consecutive
  // identical snapshots fold away; a snapshot at the same instant as the
  // previous one overwrites it (several mutations can settle at one date).
  void snapshot(int resource, double now, double usage, double capacity, bool saturated,
                const ShareList& shares);

  // Close open saturation intervals and stamp the end of the observed window.
  void finalize(double end_time);

  // --- queries -------------------------------------------------------------
  std::size_t resource_count() const { return timelines_.size(); }
  const ResourceTimeline& timeline(int resource) const {
    return timelines_[static_cast<std::size_t>(resource)];
  }
  double end_time() const { return end_time_; }
  std::uint64_t snapshot_count() const { return snapshot_count_; }

  // Integral of usage over [0, end_time]: for a link, total bytes carried
  // times 1/bandwidth_efficiency-free — i.e. bytes/s * s == bytes.
  double utilization_integral(int resource) const;
  // Max over the timeline of usage/capacity (0 when the resource was idle).
  double max_utilization(int resource) const;
  double saturated_seconds(int resource) const;
  std::size_t distinct_flows(int resource) const {
    return timelines_[static_cast<std::size_t>(resource)].distinct_flows;
  }

  struct Bottleneck {
    int resource = -1;
    double saturated_s = 0;
    std::size_t flows = 0;
  };
  // All resources with saturated time, ranked by saturated-seconds (ties:
  // more distinct flows, then registration order).
  std::vector<Bottleneck> bottlenecks() const;

  // Campaign/replay summary columns.
  struct Summary {
    std::string top_bottleneck;    // empty when nothing ever saturated
    double bottleneck_saturated_s = 0;
    double max_link_utilization = 0;  // across kLink resources only
  };
  Summary summary() const;

  // Human-readable report for `smpirun --resources`.
  std::string report(std::size_t top_n = 5) const;

 private:
  // Closes `tl`'s open interval at `t1` (> its t0) and keeps its shares if
  // it is the longest so far.
  static void close_open(ResourceTimeline& tl, double t1);
  // Whether `shares` equals the open interval's share set, in any order.
  // Leaves every open-set flow stamped with the current epoch.
  bool same_as_open(const ResourceTimeline& tl, const ShareList& shares);
  // Counts the flows of `shares` not yet counted on `resource`.
  void count_flows(int resource, bool open, const ShareList& shares);

  std::vector<ResourceTimeline> timelines_;
  std::vector<std::string> flow_labels_;
  // Per-flow state, indexed by flow id. `flow_marks_` stamps the open share
  // set for the order-independent comparison; `counted_on_` lists the
  // resources each flow is counted on (at most its route length).
  struct FlowMark {
    std::uint64_t epoch = 0;
    double share = 0;
  };
  std::vector<FlowMark> flow_marks_;
  std::vector<std::vector<int>> counted_on_;
  std::uint64_t epoch_ = 0;
  double end_time_ = 0;
  std::uint64_t snapshot_count_ = 0;
};

}  // namespace smpi::obs
