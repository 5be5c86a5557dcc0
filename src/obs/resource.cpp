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
  flow_marks_.emplace_back();
  counted_on_.emplace_back();
  return static_cast<int>(flow_labels_.size()) - 1;
}

void ResourceCollector::snapshot(int resource, double now, double usage, double capacity,
                                 bool saturated, const ShareList& shares) {
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

  // Saturation ledger.
  const bool open = !tl.saturated.empty() && tl.saturated.back().t1 < 0;
  if (!saturated && !open) return;  // idle resource: no ledger work at all
  if (!saturated) {
    if (tl.saturated.back().t0 == now) {
      tl.saturated.pop_back();  // zero-length: saturation never lasted
      tl.open_shares.clear();
    } else {
      close_open(tl, now);
    }
    return;
  }
  if (open && same_as_open(tl, shares)) return;
  count_flows(resource, open, shares);
  // A change at the open interval's own instant rewrites its shares; a later
  // one closes it and opens the next.
  if (!open || tl.saturated.back().t0 != now) {
    if (open) close_open(tl, now);
    tl.saturated.push_back({now, -1});
  }
  tl.open_shares.assign(shares.begin(), shares.end());
}

void ResourceCollector::close_open(ResourceTimeline& tl, double t1) {
  SaturationInterval& cur = tl.saturated.back();
  cur.t1 = t1;
  // Strictly longer only: the first of equally long intervals stays.
  if (tl.longest.t1 < 0 || cur.t1 - cur.t0 > tl.longest.t1 - tl.longest.t0) {
    tl.longest = cur;
    tl.open_shares.swap(tl.longest_shares);  // both buffers are reused
  }
  tl.open_shares.clear();
}

bool ResourceCollector::same_as_open(const ResourceTimeline& tl, const ShareList& shares) {
  // Fast path: a component re-solve with the same flows at the same rates
  // lists them in the same order.
  if (tl.open_shares == shares) return true;
  // Otherwise compare order-independently: constraint membership lists
  // reorder on release, which must not split an interval.
  ++epoch_;
  for (const auto& [flow, share] : tl.open_shares) {
    flow_marks_[static_cast<std::size_t>(flow)] = {epoch_, share};
  }
  if (tl.open_shares.size() != shares.size()) return false;
  for (const auto& [flow, share] : shares) {
    SMPI_REQUIRE(flow >= 0 && flow < static_cast<int>(flow_marks_.size()),
                 "snapshot share for an unregistered flow");
    const FlowMark& mark = flow_marks_[static_cast<std::size_t>(flow)];
    if (mark.epoch != epoch_ || mark.share != share) return false;
  }
  return true;
}

void ResourceCollector::count_flows(int resource, bool open, const ShareList& shares) {
  auto& tl = timelines_[static_cast<std::size_t>(resource)];
  for (const auto& entry : shares) {
    const int flow = entry.first;
    SMPI_REQUIRE(flow >= 0 && flow < static_cast<int>(counted_on_.size()),
                 "snapshot share for an unregistered flow");
    // same_as_open() stamped the open set, whose flows are counted already.
    if (open && flow_marks_[static_cast<std::size_t>(flow)].epoch == epoch_) continue;
    auto& counted = counted_on_[static_cast<std::size_t>(flow)];
    if (std::find(counted.begin(), counted.end(), resource) != counted.end()) continue;
    counted.push_back(resource);
    ++tl.distinct_flows;
  }
}

void ResourceCollector::finalize(double end_time) {
  end_time_ = end_time;
  for (auto& tl : timelines_) {
    if (!tl.saturated.empty() && tl.saturated.back().t1 < 0) {
      if (tl.saturated.back().t0 >= end_time) {
        tl.saturated.pop_back();
        tl.open_shares.clear();
      } else {
        close_open(tl, end_time);
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
          << tl.saturated.size() << " intervals, " << b.flows
          << (tl.kind == ResourceKind::kHost ? " executions" : " flows") << "), max util "
          << std::setprecision(1) << max_utilization(b.resource) * 100 << "%\n";
    }
    // Attribution for the dominant bottleneck: who was pinned on its longest
    // saturated interval, and at what share. An interval still open (a
    // report before finalize) wins only when strictly longer.
    const auto& top = timeline(ranked.front().resource);
    const SaturationInterval* longest = top.longest.t1 < 0 ? nullptr : &top.longest;
    const ShareList* longest_shares = &top.longest_shares;
    if (!top.saturated.empty() && top.saturated.back().t1 < 0) {
      const SaturationInterval& cur = top.saturated.back();
      if (!longest || end_time_ - cur.t0 > longest->t1 - longest->t0) {
        longest = &cur;
        longest_shares = &top.open_shares;
      }
    }
    if (longest != nullptr) {
      ShareList shares = *longest_shares;
      std::sort(shares.begin(), shares.end());
      out << "  attribution on " << top.name << " [" << std::setprecision(6) << longest->t0
          << ", " << (longest->t1 < 0 ? end_time_ : longest->t1) << ") s:";
      std::size_t shown = 0;
      for (const auto& [flow, share] : shares) {
        if (shown++ == 6) {
          out << " … +" << (shares.size() - 6) << " more";
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
