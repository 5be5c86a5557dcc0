#include "platform/platform.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace smpi::platform {

namespace {

// A speed or bandwidth the solver can share: an infinite one (a scaled
// override that overflowed, say) would leave its flows unbounded.
bool valid_rating(double value) { return value > 0 && std::isfinite(value); }

}  // namespace

int Platform::add_host(HostSpec spec) {
  SMPI_REQUIRE(!spec.name.empty(), "host needs a name");
  SMPI_REQUIRE(host_index_.find(spec.name) == host_index_.end(),
               "duplicate host '" + spec.name + "'");
  SMPI_REQUIRE(valid_rating(spec.speed_flops), "host speed must be positive and finite");
  SMPI_REQUIRE(spec.cores >= 1, "host needs at least one core");
  const int id = static_cast<int>(hosts_.size());
  host_index_.emplace(spec.name, id);
  hosts_.push_back(std::move(spec));
  attachments_.emplace_back();
  return id;
}

int Platform::add_link(LinkSpec spec) {
  SMPI_REQUIRE(!spec.name.empty(), "link needs a name");
  SMPI_REQUIRE(link_index_.find(spec.name) == link_index_.end(),
               "duplicate link '" + spec.name + "'");
  SMPI_REQUIRE(valid_rating(spec.bandwidth_bps), "link bandwidth must be positive and finite");
  SMPI_REQUIRE(spec.latency_s >= 0, "link latency must be >= 0");
  const int id = static_cast<int>(links_.size());
  link_index_.emplace(spec.name, id);
  links_.push_back(std::move(spec));
  return id;
}

void Platform::add_route(int src_host, int dst_host, std::vector<int> links, bool symmetric) {
  SMPI_REQUIRE(src_host >= 0 && src_host < host_count(), "route src out of range");
  SMPI_REQUIRE(dst_host >= 0 && dst_host < host_count(), "route dst out of range");
  SMPI_REQUIRE(src_host != dst_host, "route to self is implicit");
  SMPI_REQUIRE(!links.empty(), "route needs at least one link");
  for (int link : links) {
    SMPI_REQUIRE(link >= 0 && link < link_count(), "route references unknown link");
  }
  routes_[key(src_host, dst_host)] = links;
  if (symmetric) {
    std::reverse(links.begin(), links.end());
    routes_[key(dst_host, src_host)] = std::move(links);
  }
}

int Platform::add_switch(int uplink, int downlink) {
  SMPI_REQUIRE((uplink < 0) == (downlink < 0), "switch uplinks come in pairs");
  SMPI_REQUIRE(uplink < link_count() && downlink < link_count(),
               "switch uplink references unknown link");
  switches_.push_back({uplink, downlink});
  return static_cast<int>(switches_.size()) - 1;
}

void Platform::attach_host(int host, int switch_id, int up_link, int down_link) {
  SMPI_REQUIRE(host >= 0 && host < host_count(), "attached host out of range");
  SMPI_REQUIRE(switch_id >= 0 && switch_id < static_cast<int>(switches_.size()),
               "attached switch out of range");
  SMPI_REQUIRE(up_link >= 0 && up_link < link_count() && down_link >= 0 &&
                   down_link < link_count(),
               "host attachment references unknown link");
  Attachment& a = attachments_[static_cast<std::size_t>(host)];
  SMPI_REQUIRE(a.switch_id < 0, "host '" + hosts_[static_cast<std::size_t>(host)].name +
                                    "' is already attached");
  a = {switch_id, up_link, down_link};
}

void Platform::set_host_speed(int id, double speed_flops) {
  SMPI_REQUIRE(id >= 0 && id < host_count(), "host id out of range");
  SMPI_REQUIRE(valid_rating(speed_flops), "host speed must be positive and finite");
  hosts_[static_cast<std::size_t>(id)].speed_flops = speed_flops;
}

void Platform::set_link_bandwidth(int id, double bandwidth_bps) {
  SMPI_REQUIRE(id >= 0 && id < link_count(), "link id out of range");
  SMPI_REQUIRE(valid_rating(bandwidth_bps), "link bandwidth must be positive and finite");
  links_[static_cast<std::size_t>(id)].bandwidth_bps = bandwidth_bps;
}

void Platform::set_link_latency(int id, double latency_s) {
  SMPI_REQUIRE(id >= 0 && id < link_count(), "link id out of range");
  SMPI_REQUIRE(latency_s >= 0, "link latency must be >= 0");
  links_[static_cast<std::size_t>(id)].latency_s = latency_s;
}

const HostSpec& Platform::host(int id) const {
  SMPI_REQUIRE(id >= 0 && id < host_count(), "host id out of range");
  return hosts_[static_cast<std::size_t>(id)];
}

const LinkSpec& Platform::link(int id) const {
  SMPI_REQUIRE(id >= 0 && id < link_count(), "link id out of range");
  return links_[static_cast<std::size_t>(id)];
}

int Platform::find_host(const std::string& name) const {
  auto it = host_index_.find(name);
  return it == host_index_.end() ? -1 : it->second;
}

int Platform::find_link(const std::string& name) const {
  auto it = link_index_.find(name);
  return it == link_index_.end() ? -1 : it->second;
}

bool Platform::find_route(int src_host, int dst_host, std::vector<int>* out) const {
  if (out != nullptr) out->clear();
  if (src_host < 0 || src_host >= host_count() || dst_host < 0 || dst_host >= host_count()) {
    return false;
  }
  if (src_host == dst_host) return true;
  if (!routes_.empty()) {
    auto it = routes_.find(key(src_host, dst_host));
    if (it != routes_.end()) {
      if (out != nullptr) out->assign(it->second.begin(), it->second.end());
      return true;
    }
  }
  const Attachment& src = attachments_[static_cast<std::size_t>(src_host)];
  const Attachment& dst = attachments_[static_cast<std::size_t>(dst_host)];
  if (src.switch_id < 0 || dst.switch_id < 0) return false;
  if (src.switch_id == dst.switch_id) {
    if (out != nullptr) out->assign({src.up, dst.down});
    return true;
  }
  const Switch& src_switch = switches_[static_cast<std::size_t>(src.switch_id)];
  const Switch& dst_switch = switches_[static_cast<std::size_t>(dst.switch_id)];
  if (src_switch.uplink < 0 || dst_switch.uplink < 0) return false;
  if (out != nullptr) out->assign({src.up, src_switch.uplink, dst_switch.downlink, dst.down});
  return true;
}

bool Platform::has_route(int src_host, int dst_host) const {
  return find_route(src_host, dst_host, nullptr);
}

void Platform::route(int src_host, int dst_host, std::vector<int>& out) const {
  const bool found = find_route(src_host, dst_host, &out);
  SMPI_REQUIRE(found, "no route from '" + host(src_host).name + "' to '" +
                          host(dst_host).name + "'");
}

std::vector<int> Platform::route(int src_host, int dst_host) const {
  std::vector<int> links;
  route(src_host, dst_host, links);
  return links;
}

double Platform::route_latency(int src_host, int dst_host) const {
  double total = 0;
  for (int id : route(src_host, dst_host)) total += link(id).latency_s;
  return total;
}

double Platform::route_min_bandwidth(int src_host, int dst_host) const {
  const std::vector<int> links = route(src_host, dst_host);
  SMPI_REQUIRE(!links.empty(), "route with no links has no bandwidth");
  double min_bw = link(links.front()).bandwidth_bps;
  for (int id : links) min_bw = std::min(min_bw, link(id).bandwidth_bps);
  return min_bw;
}

int Platform::route_hop_count(int src_host, int dst_host) const {
  const auto n = static_cast<int>(route(src_host, dst_host).size());
  return std::max(0, n - 1);
}

}  // namespace smpi::platform
