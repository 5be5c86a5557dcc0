// Unified metrics registry: one ordered name -> value store that
// smpirun --verbose/--analyze renders from, replacing the ad-hoc printf
// plumbing of P2pCounters / RankUsage / solver counters. Campaign rows do
// not use it: they have their own field table (campaign/report.cpp). Collectors read the existing
// counter structs — they never replace or reset them, so the underlying
// values stay bit-identical to the pre-registry paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace smpi::util {
class JsonValue;
}

namespace smpi::core {
struct P2pCounters;
}

namespace smpi::obs {

struct AnalysisResult;
class Profiler;

struct Metric {
  std::string name;
  double value = 0;
  bool integer = false;  // render without a decimal point
};

class MetricsRegistry {
 public:
  void set(const std::string& name, double value);
  void set_counter(const std::string& name, std::uint64_t value);

  const std::vector<Metric>& metrics() const { return metrics_; }
  // nullptr when absent.
  const Metric* find(const std::string& name) const;

  // "  name = value" lines, insertion-ordered; `prefix_filter` keeps only
  // names starting with the prefix (empty = all).
  std::string text(const std::string& prefix_filter = "") const;
  util::JsonValue json() const;

 private:
  std::vector<Metric> metrics_;
};

// Collectors from the existing subsystem counters.
void collect_p2p(MetricsRegistry& registry, const core::P2pCounters& counters);
void collect_solver(MetricsRegistry& registry, std::uint64_t solves, std::uint64_t vars_touched,
                    std::uint64_t cons_touched);
void collect_analysis(MetricsRegistry& registry, const AnalysisResult& analysis);
void collect_profile(MetricsRegistry& registry, const Profiler& profiler);
// surf.* namespace: solver trigger classes plus observation-hook counters,
// summed across the network and CPU solvers (MaxMinSystem::ObserveCounters).
void collect_surf(MetricsRegistry& registry, std::uint64_t solves_attach,
                  std::uint64_t solves_release, std::uint64_t solves_capacity,
                  std::uint64_t solves_bound, std::uint64_t saturation_events,
                  std::uint64_t snapshot_drains);

}  // namespace smpi::obs
