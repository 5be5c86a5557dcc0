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
//     the solver's 1e-9 epsilon), each carrying the exact flow set and the
//     per-flow shares pinned there — contention attribution;
//   - aggregates: saturated-seconds, distinct contending flows, max
//     utilization — folded into a "top bottlenecks" ranking.
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
// unchanged flow set and share split. `shares` holds (flow id, allocation)
// pairs; resolve ids to labels through ResourceCollector::flow_label().
struct SaturationInterval {
  double t0 = 0;
  double t1 = -1;  // -1 while still open; finalize() closes it
  std::vector<std::pair<int, double>> shares;
};

struct ResourceTimeline {
  ResourceKind kind = ResourceKind::kLink;
  std::string name;
  std::vector<UtilStep> steps;
  std::vector<SaturationInterval> saturated;
  std::vector<int> flows_seen;  // sorted distinct flow ids from saturated intervals
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
                const std::vector<std::pair<int, double>>& shares);

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
    return timelines_[static_cast<std::size_t>(resource)].flows_seen.size();
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
  std::vector<ResourceTimeline> timelines_;
  std::vector<std::string> flow_labels_;
  // Reused across snapshots so the hot path allocates only when a share set
  // is actually stored into the ledger (interval open or membership change).
  std::vector<std::pair<int, double>> sorted_scratch_;
  double end_time_ = 0;
  std::uint64_t snapshot_count_ = 0;
};

}  // namespace smpi::obs
