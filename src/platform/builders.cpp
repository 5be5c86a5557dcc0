#include "platform/builders.hpp"

#include <numeric>

#include "util/check.hpp"

namespace smpi::platform {

Platform build_flat_cluster(const FlatClusterParams& params) {
  SMPI_REQUIRE(params.nodes >= 1, "cluster needs at least one node");
  Platform p;
  const int sw = p.add_switch();
  for (int i = 0; i < params.nodes; ++i) {
    const std::string id = params.prefix + std::to_string(i);
    const int host = p.add_host({id, params.speed_flops, params.cores});
    const int up = p.add_link({"up-" + id, params.link_bandwidth_bps, params.link_latency_s,
                               LinkSharing::kShared});
    const int down = p.add_link({"down-" + id, params.link_bandwidth_bps, params.link_latency_s,
                                 LinkSharing::kShared});
    p.attach_host(host, sw, up, down);
  }
  return p;
}

Platform build_hierarchical_cluster(const HierarchicalClusterParams& params) {
  SMPI_REQUIRE(!params.cabinet_sizes.empty(), "need at least one cabinet");
  SMPI_REQUIRE(params.cabinets_per_switch >= 1, "cabinets_per_switch must be >= 1");
  Platform p;
  const int total_nodes =
      std::accumulate(params.cabinet_sizes.begin(), params.cabinet_sizes.end(), 0);
  SMPI_REQUIRE(total_nodes >= 1, "cluster needs at least one node");

  const int num_cabinets = static_cast<int>(params.cabinet_sizes.size());
  const int num_switches =
      (num_cabinets + params.cabinets_per_switch - 1) / params.cabinets_per_switch;

  std::vector<int> up(static_cast<std::size_t>(total_nodes));
  std::vector<int> down(static_cast<std::size_t>(total_nodes));
  std::vector<int> node_switch(static_cast<std::size_t>(total_nodes));
  int node = 0;
  for (int cab = 0; cab < num_cabinets; ++cab) {
    for (int k = 0; k < params.cabinet_sizes[static_cast<std::size_t>(cab)]; ++k, ++node) {
      const std::string id = params.prefix + std::to_string(node);
      p.add_host({id, params.speed_flops, params.cores});
      up[static_cast<std::size_t>(node)] =
          p.add_link({"up-" + id, params.node_bandwidth_bps, params.node_latency_s,
                      LinkSharing::kShared});
      down[static_cast<std::size_t>(node)] =
          p.add_link({"down-" + id, params.node_bandwidth_bps, params.node_latency_s,
                      LinkSharing::kShared});
      node_switch[static_cast<std::size_t>(node)] = cab / params.cabinets_per_switch;
    }
  }

  // Per first-level switch: an uplink pair to the second-level switch. The
  // links are created after every node's pair, so link ids (and with them
  // the solver's constraint ids) follow the node-major order.
  std::vector<int> switch_id(static_cast<std::size_t>(num_switches));
  for (int s = 0; s < num_switches; ++s) {
    const int sw_up = p.add_link({"swup-" + std::to_string(s), params.uplink_bandwidth_bps,
                                  params.uplink_latency_s, LinkSharing::kShared});
    const int sw_down = p.add_link({"swdown-" + std::to_string(s), params.uplink_bandwidth_bps,
                                    params.uplink_latency_s, LinkSharing::kShared});
    switch_id[static_cast<std::size_t>(s)] = p.add_switch(sw_up, sw_down);
  }
  for (int i = 0; i < total_nodes; ++i) {
    const auto n = static_cast<std::size_t>(i);
    p.attach_host(i, switch_id[static_cast<std::size_t>(node_switch[n])], up[n], down[n]);
  }
  return p;
}

HierarchicalClusterParams griffon_params() {
  HierarchicalClusterParams params;
  params.prefix = "griffon-";
  params.cabinet_sizes = {33, 27, 32};
  params.cabinets_per_switch = 1;
  // 2.5 GHz dual quad-core Xeon L5420: ~8 cores x 2.5e9 x 4 flops/cycle; we
  // rate single-core throughput, which the CPU model uses per process.
  params.speed_flops = 1e10;
  params.cores = 8;
  params.node_bandwidth_bps = 125e6;  // GbE
  params.node_latency_s = 50e-6;
  params.uplink_bandwidth_bps = 1.25e9;  // 10 GbE second level
  params.uplink_latency_s = 20e-6;
  return params;
}

HierarchicalClusterParams gdx_params() {
  HierarchicalClusterParams params;
  params.prefix = "gdx-";
  // 312 nodes over 36 cabinets: 24 cabinets of 9 nodes + 12 of 8.
  params.cabinet_sizes.assign(24, 9);
  params.cabinet_sizes.insert(params.cabinet_sizes.end(), 12, 8);
  params.cabinets_per_switch = 2;
  // 2.0 GHz dual Opteron 246 (single core each).
  params.speed_flops = 4e9;
  params.cores = 2;
  params.node_bandwidth_bps = 125e6;
  params.node_latency_s = 60e-6;
  params.uplink_bandwidth_bps = 125e6;  // GbE second level (per the paper)
  params.uplink_latency_s = 30e-6;
  return params;
}

Platform build_griffon() { return build_hierarchical_cluster(griffon_params()); }

Platform build_gdx() { return build_hierarchical_cluster(gdx_params()); }

int first_node_of_cabinet(const HierarchicalClusterParams& params, int cabinet) {
  SMPI_REQUIRE(cabinet >= 0 && cabinet < static_cast<int>(params.cabinet_sizes.size()),
               "cabinet out of range");
  int node = 0;
  for (int c = 0; c < cabinet; ++c) node += params.cabinet_sizes[static_cast<std::size_t>(c)];
  return node;
}

}  // namespace smpi::platform
