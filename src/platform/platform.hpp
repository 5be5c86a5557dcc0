// Target-platform description (§6 of the paper): hosts with a flop/s rating,
// links with bandwidth/latency/sharing policy, and static multi-hop routes
// between host pairs. Instances are built programmatically (builders.hpp)
// or parsed from a SimGrid-DTD-like XML file (xml.hpp).
//
// Routes come from two sources. Cluster hosts are attached to a switch
// through an up/down link pair, and a switch may have an uplink pair to one
// shared second-level switch: the route between two attached hosts is a
// function of their attachments, so a cluster costs O(hosts) memory, not one
// stored route per host pair. Explicit routes (add_route, XML <route>) are
// kept in a table and take precedence over the computed ones.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace smpi::platform {

enum class LinkSharing {
  kShared,   // capacity is shared by the flows crossing the link
  kFatpipe,  // each flow gets the full capacity (e.g. an idealized backbone)
};

struct HostSpec {
  std::string name;
  double speed_flops = 1e9;
  int cores = 1;
};

struct LinkSpec {
  std::string name;
  double bandwidth_bps = 0;  // bytes per second
  double latency_s = 0;
  LinkSharing sharing = LinkSharing::kShared;
};

class Platform {
 public:
  int add_host(HostSpec spec);
  int add_link(LinkSpec spec);
  // Register the links crossed from src to dst (in order). With symmetric =
  // true the reverse route is registered too (same links, reversed order).
  // An explicit route overrides the computed route between attached hosts.
  void add_route(int src_host, int dst_host, std::vector<int> links, bool symmetric = true);

  // A cluster switch, optionally linked to the second-level switch by an
  // (uplink, downlink) pair; pass -1 for both when it has none.
  int add_switch(int uplink = -1, int downlink = -1);
  // Connect a host to a switch through its (up, down) link pair. Attached
  // hosts on one switch route as [up_src, down_dst]; on two switches that
  // both have uplinks as [up_src, uplink(s_src), downlink(s_dst), down_dst].
  void attach_host(int host, int switch_id, int up_link, int down_link);

  // In-place parameter overrides (what-if campaigns): routes and names stay,
  // only the rating changes. Values must satisfy the same contracts as
  // add_host/add_link (positive speed/bandwidth, non-negative latency).
  void set_host_speed(int id, double speed_flops);
  void set_link_bandwidth(int id, double bandwidth_bps);
  void set_link_latency(int id, double latency_s);

  int host_count() const { return static_cast<int>(hosts_.size()); }
  int link_count() const { return static_cast<int>(links_.size()); }
  const HostSpec& host(int id) const;
  const LinkSpec& link(int id) const;
  // -1 when absent.
  int find_host(const std::string& name) const;
  int find_link(const std::string& name) const;

  bool has_route(int src_host, int dst_host) const;
  // The links crossed from src to dst, in order, written into `out` (its
  // capacity is reused). Throws if there is no route (routes to self are the
  // empty list and need not be registered).
  void route(int src_host, int dst_host, std::vector<int>& out) const;
  std::vector<int> route(int src_host, int dst_host) const;

  // Aggregates along route(src, dst), summed and compared in link order.
  double route_latency(int src_host, int dst_host) const;
  double route_min_bandwidth(int src_host, int dst_host) const;
  // Number of switching elements a route crosses (#links - 1, floor 0):
  // useful to sanity-check topologies like the 3-switch gdx routes.
  int route_hop_count(int src_host, int dst_host) const;

 private:
  static std::uint64_t key(int src, int dst) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
           static_cast<std::uint32_t>(dst);
  }
  // Writes the src->dst route into `out` when non-null; false when there is
  // none (including out-of-range hosts).
  bool find_route(int src_host, int dst_host, std::vector<int>* out) const;

  struct Attachment {
    int switch_id = -1;  // -1: not attached
    int up = -1;
    int down = -1;
  };
  struct Switch {
    int uplink = -1;  // -1: no second-level link pair
    int downlink = -1;
  };

  std::vector<HostSpec> hosts_;
  std::vector<LinkSpec> links_;
  std::vector<Attachment> attachments_;  // per host
  std::vector<Switch> switches_;
  std::unordered_map<std::string, int> host_index_;
  std::unordered_map<std::string, int> link_index_;
  // Explicit routes only (add_route); computed routes are never stored.
  std::unordered_map<std::uint64_t, std::vector<int>> routes_;
};

}  // namespace smpi::platform
