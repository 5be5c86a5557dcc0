// Counter registry behind smpirun --verbose: one ordered name -> count store
// that the p2p.*, solver.* and surf.* blocks render from, replacing ad-hoc
// printf plumbing of P2pCounters, solver totals and the surf observation
// counters. Campaign rows do not use it: their schema is the field table in
// campaign/report.cpp over trace::ReplayResult. Collectors read the existing
// counter structs — they never replace or reset them, so the printed values
// are exactly the subsystems' own.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "surf/maxmin.hpp"

namespace smpi::core {
struct P2pCounters;
}

namespace smpi::obs {

class MetricsRegistry {
 public:
  // Appends one counter (names are unique by construction of the collectors).
  void add(std::string name, std::uint64_t value);

  // "  name value" lines, insertion-ordered; `prefix_filter` keeps only
  // names starting with the prefix (empty = all).
  std::string text(const std::string& prefix_filter = "") const;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
};

// Collectors from the existing subsystem counters.
void collect_p2p(MetricsRegistry& registry, const core::P2pCounters& counters);
void collect_solver(MetricsRegistry& registry, std::uint64_t solves, std::uint64_t vars_touched,
                    std::uint64_t cons_touched);
// surf.* namespace: solver trigger classes plus observation-hook counters,
// summed across the network and CPU solvers.
void collect_surf(MetricsRegistry& registry, const surf::MaxMinSystem::ObserveCounters& counters);

}  // namespace smpi::obs
