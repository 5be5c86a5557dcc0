#include "obs/resource.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/check.hpp"

namespace smpi::obs {

const char* resource_kind_name(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kLink: return "link";
    case ResourceKind::kHost: return "host";
  }
  return "?";
}

int ResourceCollector::add_resource(ResourceKind kind, std::string name, double capacity) {
  ResourceTimeline tl;
  tl.kind = kind;
  tl.name = std::move(name);
  // Every resource starts idle at t = 0; the first real snapshot extends the
  // piecewise-constant history from there.
  tl.steps.push_back({0.0, 0.0, capacity});
  timelines_.push_back(std::move(tl));
  return static_cast<int>(timelines_.size()) - 1;
}

int ResourceCollector::add_flow(std::string label) {
  flow_labels_.push_back(std::move(label));
  return static_cast<int>(flow_labels_.size()) - 1;
}

void ResourceCollector::snapshot(int resource, double now, double usage, double capacity,
                                 bool saturated,
                                 const std::vector<std::pair<int, double>>& shares) {
  SMPI_REQUIRE(resource >= 0 && resource < static_cast<int>(timelines_.size()),
               "snapshot on unregistered resource");
  ++snapshot_count_;
  auto& tl = timelines_[static_cast<std::size_t>(resource)];

  // Timeline step: overwrite same-instant snapshots (several mutations can
  // settle at one simulated date — only the final state is the history),
  // fold away no-op steps.
  if (!tl.steps.empty() && tl.steps.back().t == now) {
    tl.steps.back().usage = usage;
    tl.steps.back().capacity = capacity;
  } else if (tl.steps.empty() || tl.steps.back().usage != usage ||
             tl.steps.back().capacity != capacity) {
    tl.steps.push_back({now, usage, capacity});
  }

  // Saturation ledger. Shares are compared order-independently: constraint
  // membership lists reorder on release, which must not split an interval.
  const bool open = !tl.saturated.empty() && tl.saturated.back().t1 < 0;
  if (!saturated && !open) return;  // idle resource: no ledger work at all
  if (!saturated) {
    auto& cur = tl.saturated.back();
    if (cur.t0 == now) {
      tl.saturated.pop_back();  // zero-length: saturation never lasted
    } else {
      cur.t1 = now;
    }
    return;
  }

  // Shares are compared order-independently: constraint membership lists
  // reorder on release, which must not split an interval. The steady state
  // (component re-solve, same flows at the same rates) is recognized with a
  // binary-search probe against the stored sorted set before any copy or
  // sort happens — the hot path allocates nothing.
  auto same_share_set = [&](const std::vector<std::pair<int, double>>& stored) {
    if (stored.size() != shares.size()) return false;
    for (const auto& entry : shares) {
      auto it = std::lower_bound(
          stored.begin(), stored.end(), entry.first,
          [](const std::pair<int, double>& a, int flow) { return a.first < flow; });
      if (it == stored.end() || it->first != entry.first || it->second != entry.second) {
        return false;
      }
    }
    return true;
  };
  auto note_flows = [&](const std::vector<std::pair<int, double>>& set) {
    for (const auto& [flow, share] : set) {
      (void)share;
      auto it = std::lower_bound(tl.flows_seen.begin(), tl.flows_seen.end(), flow);
      if (it == tl.flows_seen.end() || *it != flow) tl.flows_seen.insert(it, flow);
    }
  };

  if (open && same_share_set(tl.saturated.back().shares)) return;
  sorted_scratch_.assign(shares.begin(), shares.end());
  std::sort(sorted_scratch_.begin(), sorted_scratch_.end());
  if (open) {
    auto& cur = tl.saturated.back();
    if (cur.t0 == now) {
      cur.shares = sorted_scratch_;
      note_flows(cur.shares);
    } else {
      cur.t1 = now;
      SaturationInterval next;
      next.t0 = now;
      next.shares = sorted_scratch_;
      note_flows(next.shares);
      tl.saturated.push_back(std::move(next));
    }
  } else {
    SaturationInterval next;
    next.t0 = now;
    next.shares = sorted_scratch_;
    note_flows(next.shares);
    tl.saturated.push_back(std::move(next));
  }
}

void ResourceCollector::finalize(double end_time) {
  end_time_ = end_time;
  for (auto& tl : timelines_) {
    if (!tl.saturated.empty() && tl.saturated.back().t1 < 0) {
      auto& cur = tl.saturated.back();
      if (cur.t0 >= end_time) {
        tl.saturated.pop_back();
      } else {
        cur.t1 = end_time;
      }
    }
  }
}

double ResourceCollector::utilization_integral(int resource) const {
  const auto& tl = timelines_[static_cast<std::size_t>(resource)];
  double integral = 0;
  for (std::size_t i = 0; i < tl.steps.size(); ++i) {
    const double t1 = i + 1 < tl.steps.size() ? tl.steps[i + 1].t : end_time_;
    if (t1 > tl.steps[i].t) integral += tl.steps[i].usage * (t1 - tl.steps[i].t);
  }
  return integral;
}

double ResourceCollector::max_utilization(int resource) const {
  const auto& tl = timelines_[static_cast<std::size_t>(resource)];
  double max_util = 0;
  for (const auto& step : tl.steps) {
    if (step.capacity > 0) max_util = std::max(max_util, step.usage / step.capacity);
  }
  return max_util;
}

double ResourceCollector::saturated_seconds(int resource) const {
  const auto& tl = timelines_[static_cast<std::size_t>(resource)];
  double total = 0;
  for (const auto& iv : tl.saturated) {
    const double t1 = iv.t1 < 0 ? end_time_ : iv.t1;
    if (t1 > iv.t0) total += t1 - iv.t0;
  }
  return total;
}

std::vector<ResourceCollector::Bottleneck> ResourceCollector::bottlenecks() const {
  std::vector<Bottleneck> ranked;
  for (int r = 0; r < static_cast<int>(timelines_.size()); ++r) {
    const double sat = saturated_seconds(r);
    if (sat <= 0) continue;
    ranked.push_back({r, sat, distinct_flows(r)});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Bottleneck& a, const Bottleneck& b) {
    if (a.saturated_s != b.saturated_s) return a.saturated_s > b.saturated_s;
    if (a.flows != b.flows) return a.flows > b.flows;
    return a.resource < b.resource;
  });
  return ranked;
}

ResourceCollector::Summary ResourceCollector::summary() const {
  Summary s;
  const auto ranked = bottlenecks();
  if (!ranked.empty()) {
    s.top_bottleneck = timeline(ranked.front().resource).name;
    s.bottleneck_saturated_s = ranked.front().saturated_s;
  }
  for (int r = 0; r < static_cast<int>(timelines_.size()); ++r) {
    if (timeline(r).kind == ResourceKind::kLink) {
      s.max_link_utilization = std::max(s.max_link_utilization, max_utilization(r));
    }
  }
  return s;
}

std::string ResourceCollector::report(std::size_t top_n) const {
  std::ostringstream out;
  out << "resource utilization: " << timelines_.size() << " resources, " << snapshot_count_
      << " snapshots over " << std::fixed << std::setprecision(9) << end_time_ << " s\n";
  const auto ranked = bottlenecks();
  if (ranked.empty()) {
    out << "  no resource ever saturated\n";
  } else {
    out << "  top bottlenecks (by saturated time):\n";
    for (std::size_t i = 0; i < ranked.size() && i < top_n; ++i) {
      const auto& b = ranked[i];
      const auto& tl = timeline(b.resource);
      out << "    " << (i + 1) << ". " << resource_kind_name(tl.kind) << " " << tl.name
          << ": saturated " << std::setprecision(6) << b.saturated_s << " s ("
          << tl.saturated.size() << " intervals, " << b.flows << " flows), max util "
          << std::setprecision(1) << max_utilization(b.resource) * 100 << "%\n";
    }
    // Attribution for the dominant bottleneck: who was pinned on its longest
    // saturated interval, and at what share.
    const auto& top = timeline(ranked.front().resource);
    const SaturationInterval* longest = nullptr;
    for (const auto& iv : top.saturated) {
      const double t1 = iv.t1 < 0 ? end_time_ : iv.t1;
      if (!longest ||
          t1 - iv.t0 > (longest->t1 < 0 ? end_time_ : longest->t1) - longest->t0) {
        longest = &iv;
      }
    }
    if (longest != nullptr) {
      out << "  attribution on " << top.name << " [" << std::setprecision(6) << longest->t0
          << ", " << (longest->t1 < 0 ? end_time_ : longest->t1) << ") s:";
      std::size_t shown = 0;
      for (const auto& [flow, share] : longest->shares) {
        if (shown++ == 6) {
          out << " … +" << (longest->shares.size() - 6) << " more";
          break;
        }
        out << " " << flow_label(flow) << "=" << std::setprecision(3) << std::scientific
            << share << std::fixed;
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace smpi::obs
