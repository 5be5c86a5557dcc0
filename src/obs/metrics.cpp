#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdio>

#include "smpi/smpi.hpp"

namespace smpi::obs {

void MetricsRegistry::add(std::string name, std::uint64_t value) {
  counters_.emplace_back(std::move(name), value);
}

std::string MetricsRegistry::text(const std::string& prefix_filter) const {
  std::string out;
  char line[192];
  for (const auto& [name, value] : counters_) {
    if (name.compare(0, prefix_filter.size(), prefix_filter) != 0) continue;
    std::snprintf(line, sizeof(line), "  %-32s %" PRIu64 "\n", name.c_str(), value);
    out += line;
  }
  return out;
}

void collect_p2p(MetricsRegistry& registry, const core::P2pCounters& counters) {
  registry.add("p2p.pool_hits", counters.pool_hits);
  registry.add("p2p.pool_misses", counters.pool_misses);
  registry.add("p2p.eager_snapshots", counters.eager_snapshots);
  registry.add("p2p.eager_copy_elided", counters.eager_copy_elided);
  registry.add("p2p.eager_flush_snapshots", counters.eager_flush_snapshots);
  registry.add("p2p.bytes_not_copied", counters.bytes_not_copied);
}

void collect_solver(MetricsRegistry& registry, std::uint64_t solves, std::uint64_t vars_touched,
                    std::uint64_t cons_touched) {
  registry.add("solver.solves", solves);
  registry.add("solver.vars_touched", vars_touched);
  registry.add("solver.cons_touched", cons_touched);
}

void collect_surf(MetricsRegistry& registry, const surf::MaxMinSystem::ObserveCounters& counters) {
  registry.add("surf.solves_attach", counters.solves_attach);
  registry.add("surf.solves_release", counters.solves_release);
  registry.add("surf.solves_capacity", counters.solves_capacity);
  registry.add("surf.solves_bound", counters.solves_bound);
  registry.add("surf.saturation_events", counters.saturation_events);
  registry.add("surf.snapshot_drains", counters.observe_drains);
}

}  // namespace smpi::obs
