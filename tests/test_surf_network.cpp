#include "surf/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "platform/builders.hpp"
#include "sim/engine.hpp"
#include "surf/piecewise.hpp"

namespace sf = smpi::surf;
namespace sp = smpi::platform;
namespace ss = smpi::sim;

namespace {

sp::FlatClusterParams small_cluster_params() {
  sp::FlatClusterParams params;
  params.nodes = 4;
  params.link_bandwidth_bps = 1e8;  // round numbers for exact expectations
  params.link_latency_s = 1e-3;
  return params;
}

struct Fixture {
  explicit Fixture(sf::NetworkConfig config = {},
                   sp::FlatClusterParams params = small_cluster_params())
      : platform(sp::build_flat_cluster(params)), engine() {
    auto model = std::make_shared<sf::FlowNetworkModel>(platform, config);
    net = model.get();
    engine.add_model(model);
  }
  sp::Platform platform;
  ss::Engine engine;
  sf::FlowNetworkModel* net = nullptr;
};

}  // namespace

TEST(FlowNetwork, SingleTransferTime) {
  sf::NetworkConfig config;
  config.bandwidth_efficiency = 1.0;
  config.tcp_window_bytes = 0;
  Fixture fx(config);
  double done_at = -1;
  fx.engine.spawn("sender", 0, [&] {
    auto flow = fx.net->start_flow(0, 1, 1e8);
    flow->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  // latency 2 links x 1ms, then 1e8 bytes at 1e8 B/s = 1 s.
  EXPECT_NEAR(done_at, 1.002, 1e-9);
  EXPECT_NEAR(fx.net->uncontended_duration(0, 1, 1e8), 1.002, 1e-9);
}

TEST(FlowNetwork, BandwidthEfficiencyCapsRate) {
  sf::NetworkConfig config;
  config.bandwidth_efficiency = 0.5;
  config.tcp_window_bytes = 0;
  Fixture fx(config);
  double done_at = -1;
  fx.engine.spawn("sender", 0, [&] {
    fx.net->start_flow(0, 1, 1e8)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  EXPECT_NEAR(done_at, 2.002, 1e-9);
}

TEST(FlowNetwork, TwoFlowsOnSameSourceShareTheUplink) {
  sf::NetworkConfig config;
  config.bandwidth_efficiency = 1.0;
  config.tcp_window_bytes = 0;
  Fixture fx(config);
  std::vector<double> done(2, -1);
  fx.engine.spawn("sender", 0, [&] {
    auto f1 = fx.net->start_flow(0, 1, 1e8);
    auto f2 = fx.net->start_flow(0, 2, 1e8);
    f1->on_completion([&](ss::Activity& a) { done[0] = a.finish_time(); });
    f2->on_completion([&](ss::Activity& a) { done[1] = a.finish_time(); });
    f1->wait();
    f2->wait();
  });
  fx.engine.run();
  // Both cross up-0: each gets 5e7 B/s -> 2s transfer + 2ms latency.
  EXPECT_NEAR(done[0], 2.002, 1e-6);
  EXPECT_NEAR(done[1], 2.002, 1e-6);
}

TEST(FlowNetwork, DisjointFlowsDoNotInterfere) {
  sf::NetworkConfig config;
  config.bandwidth_efficiency = 1.0;
  config.tcp_window_bytes = 0;
  Fixture fx(config);
  std::vector<double> done(2, -1);
  fx.engine.spawn("sender", 0, [&] {
    auto f1 = fx.net->start_flow(0, 1, 1e8);
    auto f2 = fx.net->start_flow(2, 3, 1e8);
    f1->on_completion([&](ss::Activity& a) { done[0] = a.finish_time(); });
    f2->on_completion([&](ss::Activity& a) { done[1] = a.finish_time(); });
    f1->wait();
    f2->wait();
  });
  fx.engine.run();
  EXPECT_NEAR(done[0], 1.002, 1e-6);
  EXPECT_NEAR(done[1], 1.002, 1e-6);
}

TEST(FlowNetwork, ContentionOffRestoresFullRate) {
  sf::NetworkConfig config;
  config.bandwidth_efficiency = 1.0;
  config.tcp_window_bytes = 0;
  config.contention = false;
  Fixture fx(config);
  std::vector<double> done(2, -1);
  fx.engine.spawn("sender", 0, [&] {
    auto f1 = fx.net->start_flow(0, 1, 1e8);
    auto f2 = fx.net->start_flow(0, 2, 1e8);
    f1->on_completion([&](ss::Activity& a) { done[0] = a.finish_time(); });
    f2->on_completion([&](ss::Activity& a) { done[1] = a.finish_time(); });
    f1->wait();
    f2->wait();
  });
  fx.engine.run();
  // The naive no-contention model of §7: both flows get the full link rate.
  EXPECT_NEAR(done[0], 1.002, 1e-6);
  EXPECT_NEAR(done[1], 1.002, 1e-6);
}

TEST(FlowNetwork, LateJoinerSlowsExistingFlow) {
  sf::NetworkConfig config;
  config.bandwidth_efficiency = 1.0;
  config.tcp_window_bytes = 0;
  Fixture fx(config);
  double done_first = -1;
  fx.engine.spawn("a", 0, [&] {
    auto f = fx.net->start_flow(0, 1, 1e8);
    f->wait();
    done_first = fx.engine.now();
  });
  fx.engine.spawn("b", 0, [&] {
    fx.engine.sleep_for(0.502);  // joins when the first flow is half done
    fx.net->start_flow(0, 2, 1e8)->wait();
  });
  fx.engine.run();
  // Joiner enters sharing at t=0.504 (sleep + its own latency); by then the
  // first flow has moved 5.02e7 bytes; the remaining 4.98e7 go at 5e7 B/s:
  // 0.504 + 0.996 = 1.5 s.
  EXPECT_NEAR(done_first, 1.5, 1e-9);
}

TEST(FlowNetwork, ZeroByteMessageCostsOnlyLatency) {
  sf::NetworkConfig config;
  config.bandwidth_efficiency = 1.0;
  Fixture fx(config);
  double done_at = -1;
  fx.engine.spawn("sender", 0, [&] {
    fx.net->start_flow(0, 1, 0)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  EXPECT_NEAR(done_at, 0.002, 1e-12);
}

TEST(FlowNetwork, LoopbackIsImmediate) {
  Fixture fx;
  double done_at = -1;
  fx.engine.spawn("sender", 0, [&] {
    fx.net->start_flow(0, 0, 1e9)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(FlowNetwork, TcpWindowLimitsLongFatPath) {
  sf::NetworkConfig config;
  config.bandwidth_efficiency = 1.0;
  config.tcp_window_bytes = 1e4;  // rate cap = 1e4 / (2 x 2e-3) = 2.5e6 B/s
  Fixture fx(config);
  double done_at = -1;
  fx.engine.spawn("sender", 0, [&] {
    fx.net->start_flow(0, 1, 1e7)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  EXPECT_NEAR(done_at, 0.002 + 1e7 / 2.5e6, 1e-6);
}

TEST(FlowNetwork, PiecewiseFactorsSelectPerSizeBehaviour) {
  // Two segments: small messages see 10x latency, large ones 0.5x bandwidth.
  sf::PiecewiseFactors factors({{1000.0, 10.0, 1.0},
                                {std::numeric_limits<double>::infinity(), 1.0, 0.5}});
  sf::NetworkConfig config;
  config.factors = factors;
  config.bandwidth_efficiency = 1.0;
  config.tcp_window_bytes = 0;
  Fixture fx(config);
  double small_done = -1, large_done = -1;
  fx.engine.spawn("sender", 0, [&] {
    fx.net->start_flow(0, 1, 100)->wait();
    small_done = fx.engine.now();
    const double start = fx.engine.now();
    fx.net->start_flow(0, 1, 1e8)->wait();
    large_done = fx.engine.now() - start;
  });
  fx.engine.run();
  // Small: latency 2ms x 10 + 100B/1e8.
  EXPECT_NEAR(small_done, 0.020 + 100 / 1e8, 1e-9);
  // Large: latency 2ms x 1 + 1e8 / (0.5 x 1e8).
  EXPECT_NEAR(large_done, 0.002 + 2.0, 1e-6);
}

TEST(FlowNetwork, FatpipeBackboneDoesNotContend) {
  // Hierarchical cluster with a fatpipe-like wide uplink: two node-pairs in
  // different cabinets share the uplink; with a wide enough uplink they are
  // both bottlenecked at their own NICs only.
  sp::HierarchicalClusterParams params;
  params.cabinet_sizes = {2, 2};
  params.node_bandwidth_bps = 1e8;
  params.node_latency_s = 1e-3;
  params.uplink_bandwidth_bps = 1e9;
  params.uplink_latency_s = 1e-3;
  auto platform = sp::build_hierarchical_cluster(params);
  ss::Engine engine;
  sf::NetworkConfig config;
  config.bandwidth_efficiency = 1.0;
  config.tcp_window_bytes = 0;
  auto model = std::make_shared<sf::FlowNetworkModel>(platform, config);
  auto* net = model.get();
  engine.add_model(model);
  std::vector<double> done(2, -1);
  engine.spawn("sender", 0, [&] {
    auto f1 = net->start_flow(0, 2, 1e8);  // cabinet 0 -> cabinet 1
    auto f2 = net->start_flow(1, 3, 1e8);
    f1->on_completion([&](ss::Activity& a) { done[0] = a.finish_time(); });
    f2->on_completion([&](ss::Activity& a) { done[1] = a.finish_time(); });
    f1->wait();
    f2->wait();
  });
  engine.run();
  // 4 links x 1ms latency; NIC-bound transfers at 1e8 B/s.
  EXPECT_NEAR(done[0], 0.004 + 1.0, 1e-6);
  EXPECT_NEAR(done[1], 0.004 + 1.0, 1e-6);
}
