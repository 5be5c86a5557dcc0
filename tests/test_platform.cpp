#include "platform/platform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "platform/builders.hpp"
#include "util/check.hpp"

namespace sp = smpi::platform;
using smpi::util::ContractError;

namespace {

// The cluster builders' route formula, spelled with link names so the
// expectation does not depend on how routes are stored or computed:
// [up-src, down-dst] on one switch, else
// [up-src, swup-<src switch>, swdown-<dst switch>, down-dst].
std::vector<int> cluster_route(const sp::Platform& p, int src, int dst, int src_switch,
                               int dst_switch) {
  if (src == dst) return {};
  const std::string up = "up-" + p.host(src).name;
  const std::string down = "down-" + p.host(dst).name;
  if (src_switch == dst_switch) return {p.find_link(up), p.find_link(down)};
  return {p.find_link(up), p.find_link("swup-" + std::to_string(src_switch)),
          p.find_link("swdown-" + std::to_string(dst_switch)), p.find_link(down)};
}

// Every ordered pair's route, hop count and latency against the formula.
void expect_cluster_routes(const sp::Platform& p, const std::vector<int>& node_switch) {
  ASSERT_EQ(p.host_count(), static_cast<int>(node_switch.size()));
  std::vector<int> out;
  for (int i = 0; i < p.host_count(); ++i) {
    for (int j = 0; j < p.host_count(); ++j) {
      const auto expected = cluster_route(p, i, j, node_switch[static_cast<std::size_t>(i)],
                                          node_switch[static_cast<std::size_t>(j)]);
      ASSERT_TRUE(p.has_route(i, j)) << i << "->" << j;
      p.route(i, j, out);
      ASSERT_EQ(out, expected) << i << "->" << j;
      ASSERT_EQ(p.route(i, j), expected) << i << "->" << j;
      ASSERT_EQ(p.route_hop_count(i, j), std::max(0, static_cast<int>(expected.size()) - 1));
      double latency = 0;
      for (int link : expected) latency += p.link(link).latency_s;
      ASSERT_EQ(p.route_latency(i, j), latency) << i << "->" << j;
    }
  }
}

std::vector<int> node_switches(const sp::HierarchicalClusterParams& params) {
  std::vector<int> out;
  for (std::size_t cab = 0; cab < params.cabinet_sizes.size(); ++cab) {
    out.insert(out.end(), static_cast<std::size_t>(params.cabinet_sizes[cab]),
               static_cast<int>(cab) / params.cabinets_per_switch);
  }
  return out;
}

}  // namespace

TEST(Platform, AddAndLookupHostsAndLinks) {
  sp::Platform p;
  const int h0 = p.add_host({"a", 1e9, 4});
  const int h1 = p.add_host({"b", 2e9, 8});
  const int l0 = p.add_link({"l", 1e8, 1e-4, sp::LinkSharing::kShared});
  EXPECT_EQ(p.host_count(), 2);
  EXPECT_EQ(p.link_count(), 1);
  EXPECT_EQ(p.find_host("a"), h0);
  EXPECT_EQ(p.find_host("b"), h1);
  EXPECT_EQ(p.find_host("zzz"), -1);
  EXPECT_EQ(p.find_link("l"), l0);
  EXPECT_DOUBLE_EQ(p.host(h1).speed_flops, 2e9);
}

TEST(Platform, RejectsDuplicatesAndBadSpecs) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  EXPECT_THROW(p.add_host({"a", 1e9, 1}), ContractError);
  EXPECT_THROW(p.add_host({"", 1e9, 1}), ContractError);
  EXPECT_THROW(p.add_host({"c", -5, 1}), ContractError);
  EXPECT_THROW(p.add_host({"d", 1e9, 0}), ContractError);
  p.add_link({"l", 1e8, 0, sp::LinkSharing::kShared});
  EXPECT_THROW(p.add_link({"l", 1e8, 0, sp::LinkSharing::kShared}), ContractError);
  EXPECT_THROW(p.add_link({"m", 0, 0, sp::LinkSharing::kShared}), ContractError);
}

TEST(Platform, ParameterOverridesMutateInPlace) {
  sp::Platform p;
  const int h = p.add_host({"a", 1e9, 4});
  const int l = p.add_link({"l", 1e8, 1e-4, sp::LinkSharing::kShared});
  p.set_host_speed(h, 4e9);
  p.set_link_bandwidth(l, 2.5e8);
  p.set_link_latency(l, 5e-5);
  EXPECT_DOUBLE_EQ(p.host(h).speed_flops, 4e9);
  EXPECT_DOUBLE_EQ(p.link(l).bandwidth_bps, 2.5e8);
  EXPECT_DOUBLE_EQ(p.link(l).latency_s, 5e-5);
  // Identity untouched by the override.
  EXPECT_EQ(p.find_host("a"), h);
  EXPECT_EQ(p.find_link("l"), l);
}

TEST(Platform, ParameterOverridesKeepContracts) {
  sp::Platform p;
  const int h = p.add_host({"a", 1e9, 4});
  const int l = p.add_link({"l", 1e8, 1e-4, sp::LinkSharing::kShared});
  EXPECT_THROW(p.set_host_speed(h + 1, 1e9), ContractError);
  EXPECT_THROW(p.set_host_speed(h, 0), ContractError);
  EXPECT_THROW(p.set_link_bandwidth(l + 1, 1e8), ContractError);
  EXPECT_THROW(p.set_link_bandwidth(l, -1), ContractError);
  EXPECT_THROW(p.set_link_latency(l, -1e-6), ContractError);
  EXPECT_THROW(p.set_link_latency(l + 7, 1e-6), ContractError);
}

// A scaled override that overflows is refused where it is applied, not in
// the solver, where an infinite rating leaves its flows unbounded.
TEST(Platform, RatingsMustBeFinite) {
  const double inf = std::numeric_limits<double>::infinity();
  sp::Platform p;
  const int h = p.add_host({"a", 1e9, 4});
  const int l = p.add_link({"l", 1e8, 1e-4, sp::LinkSharing::kShared});
  EXPECT_THROW(p.set_host_speed(h, p.host(h).speed_flops * 1e300), ContractError);
  EXPECT_THROW(p.set_link_bandwidth(l, p.link(l).bandwidth_bps * 1e301), ContractError);
  EXPECT_THROW(p.set_host_speed(h, std::nan("")), ContractError);
  EXPECT_THROW(p.add_host({"b", inf, 1}), ContractError);
  EXPECT_THROW(p.add_link({"m", inf, 0, sp::LinkSharing::kShared}), ContractError);
  // The refused overrides left the ratings as they were.
  EXPECT_EQ(p.host(h).speed_flops, 1e9);
  EXPECT_EQ(p.link(l).bandwidth_bps, 1e8);
  p.set_host_speed(h, std::numeric_limits<double>::max());
  EXPECT_EQ(p.host(h).speed_flops, std::numeric_limits<double>::max());
}

TEST(Platform, SymmetricRoutesReverseLinkOrder) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  p.add_host({"b", 1e9, 1});
  const int l0 = p.add_link({"l0", 1e8, 1e-4, sp::LinkSharing::kShared});
  const int l1 = p.add_link({"l1", 1e8, 1e-4, sp::LinkSharing::kShared});
  p.add_route(0, 1, {l0, l1});
  EXPECT_EQ(p.route(0, 1), (std::vector<int>{l0, l1}));
  EXPECT_EQ(p.route(1, 0), (std::vector<int>{l1, l0}));
}

TEST(Platform, MissingRouteThrows) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  p.add_host({"b", 1e9, 1});
  EXPECT_FALSE(p.has_route(0, 1));
  EXPECT_THROW(p.route(0, 1), ContractError);
}

TEST(Platform, RouteToSelfIsEmpty) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  EXPECT_TRUE(p.has_route(0, 0));
  EXPECT_TRUE(p.route(0, 0).empty());
}

TEST(Platform, RoutesNeedLinks) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  p.add_host({"b", 1e9, 1});
  EXPECT_THROW(p.add_route(0, 1, {}), ContractError);
}

TEST(Platform, ExplicitRouteOverridesAttachment) {
  sp::Platform p;
  for (const char* name : {"a", "b", "c"}) p.add_host({name, 1e9, 1});
  std::vector<int> up, down;
  for (const char* name : {"a", "b", "c"}) {
    up.push_back(p.add_link({std::string("up-") + name, 1e8, 1e-4, sp::LinkSharing::kShared}));
    down.push_back(
        p.add_link({std::string("down-") + name, 1e8, 1e-4, sp::LinkSharing::kShared}));
  }
  const int direct = p.add_link({"direct", 1e9, 1e-6, sp::LinkSharing::kShared});
  const int sw = p.add_switch();
  for (int h = 0; h < 3; ++h) p.attach_host(h, sw, up[h], down[h]);
  p.add_route(0, 1, {direct}, /*symmetric=*/false);
  EXPECT_EQ(p.route(0, 1), (std::vector<int>{direct}));
  EXPECT_EQ(p.route_hop_count(0, 1), 0);
  EXPECT_EQ(p.route(1, 0), (std::vector<int>{up[1], down[0]}));
  EXPECT_EQ(p.route(0, 2), (std::vector<int>{up[0], down[2]}));
}

TEST(Platform, AttachmentContracts) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  const int l = p.add_link({"l", 1e8, 1e-4, sp::LinkSharing::kShared});
  EXPECT_THROW(p.add_switch(l, -1), ContractError);  // uplinks come in pairs
  EXPECT_THROW(p.add_switch(l, l + 1), ContractError);
  const int sw = p.add_switch();
  EXPECT_THROW(p.attach_host(0, sw + 1, l, l), ContractError);
  EXPECT_THROW(p.attach_host(1, sw, l, l), ContractError);
  EXPECT_THROW(p.attach_host(0, sw, l, l + 1), ContractError);
  p.attach_host(0, sw, l, l);
  EXPECT_THROW(p.attach_host(0, sw, l, l), ContractError);
}

TEST(Platform, HostsOnSwitchesWithoutUplinksAreUnreachable) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  p.add_host({"b", 1e9, 1});
  p.add_host({"loose", 1e9, 1});
  const int l = p.add_link({"l", 1e8, 1e-4, sp::LinkSharing::kShared});
  p.attach_host(0, p.add_switch(), l, l);
  p.attach_host(1, p.add_switch(), l, l);
  EXPECT_FALSE(p.has_route(0, 1));
  EXPECT_THROW(p.route(0, 1), ContractError);
  EXPECT_FALSE(p.has_route(0, 2));
  EXPECT_FALSE(p.has_route(2, 0));
  EXPECT_FALSE(p.has_route(0, 7));  // out of range
}

TEST(Platform, RouteAggregates) {
  sp::Platform p;
  p.add_host({"a", 1e9, 1});
  p.add_host({"b", 1e9, 1});
  const int fast = p.add_link({"fast", 2e8, 1e-4, sp::LinkSharing::kShared});
  const int slow = p.add_link({"slow", 5e7, 3e-4, sp::LinkSharing::kShared});
  p.add_route(0, 1, {fast, slow});
  EXPECT_DOUBLE_EQ(p.route_latency(0, 1), 4e-4);
  EXPECT_DOUBLE_EQ(p.route_min_bandwidth(0, 1), 5e7);
  EXPECT_EQ(p.route_hop_count(0, 1), 1);
}

TEST(FlatCluster, AllPairsRouted) {
  sp::FlatClusterParams params;
  params.nodes = 7;
  const auto p = sp::build_flat_cluster(params);
  expect_cluster_routes(p, std::vector<int>(7, 0));  // one switch: up_i, down_j
}

// A per-pair route table would need 4.3e9 routes here; computed routes need
// O(nodes) memory.
TEST(FlatCluster, ScalesPastPerPairRouteStorage) {
  sp::FlatClusterParams params;
  params.nodes = 65536;
  const auto p = sp::build_flat_cluster(params);
  EXPECT_EQ(p.host_count(), 65536);
  EXPECT_TRUE(p.has_route(0, 65535));
  EXPECT_EQ(p.route_hop_count(0, 65535), 1);
  EXPECT_EQ(p.route(65535, 0), (std::vector<int>{p.find_link("up-node-65535"),
                                                 p.find_link("down-node-0")}));
}

TEST(FlatCluster, UplinkIsSharedAcrossDestinations) {
  auto p = sp::build_flat_cluster({});
  // Routes 0->1 and 0->2 must share the first link (node 0's uplink) — this
  // is where endpoint contention comes from.
  EXPECT_EQ(p.route(0, 1)[0], p.route(0, 2)[0]);
  EXPECT_NE(p.route(0, 1)[1], p.route(0, 2)[1]);
}

TEST(Griffon, MatchesPaperDescription) {
  auto p = sp::build_griffon();
  EXPECT_EQ(p.host_count(), 92);  // 33 + 27 + 32
  // Same cabinet: 1 switch.
  EXPECT_EQ(p.route_hop_count(0, 1), 1);
  // Different cabinets: node -> cab switch -> 2nd level -> cab switch -> node.
  const auto params = sp::griffon_params();
  const int cab1_first = sp::first_node_of_cabinet(params, 1);
  EXPECT_EQ(cab1_first, 33);
  EXPECT_EQ(p.route_hop_count(0, cab1_first), 3);
  // The second-level hop runs at 10 GbE.
  const auto& route = p.route(0, cab1_first);
  ASSERT_EQ(route.size(), 4u);
  EXPECT_DOUBLE_EQ(p.link(route[1]).bandwidth_bps, 1.25e9);
  EXPECT_DOUBLE_EQ(p.link(route[0]).bandwidth_bps, 125e6);
}

TEST(Gdx, MatchesPaperDescription) {
  auto p = sp::build_gdx();
  EXPECT_EQ(p.host_count(), 312);
  const auto params = sp::gdx_params();
  // Two cabinets share a switch: nodes of cabinet 0 and 1 cross 1 switch.
  const int cab1_first = sp::first_node_of_cabinet(params, 1);
  EXPECT_EQ(p.route_hop_count(0, cab1_first), 1);
  // Distant cabinets (different switch groups) cross 3 switches.
  const int cab2_first = sp::first_node_of_cabinet(params, 2);
  EXPECT_EQ(p.route_hop_count(0, cab2_first), 3);
  // gdx's second level is plain GbE (the paper's "Ethernet 1 Gigabit links").
  const auto& route = p.route(0, cab2_first);
  ASSERT_EQ(route.size(), 4u);
  EXPECT_DOUBLE_EQ(p.link(route[1]).bandwidth_bps, 125e6);
}

TEST(Griffon, EveryPairMatchesTheSwitchFormula) {
  expect_cluster_routes(sp::build_griffon(), node_switches(sp::griffon_params()));
}

TEST(Gdx, EveryPairMatchesTheSwitchFormula) {
  expect_cluster_routes(sp::build_gdx(), node_switches(sp::gdx_params()));
}

TEST(HierarchicalCluster, RejectsEmpty) {
  sp::HierarchicalClusterParams params;
  EXPECT_THROW(sp::build_hierarchical_cluster(params), ContractError);
}

TEST(HierarchicalCluster, FirstNodeOfCabinetValidatesRange) {
  const auto params = sp::griffon_params();
  EXPECT_EQ(sp::first_node_of_cabinet(params, 0), 0);
  EXPECT_EQ(sp::first_node_of_cabinet(params, 2), 60);
  EXPECT_THROW(sp::first_node_of_cabinet(params, 3), ContractError);
}
