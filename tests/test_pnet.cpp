#include "pnet/packetnet.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "platform/builders.hpp"
#include "sim/engine.hpp"

namespace pn = smpi::pnet;
namespace sp = smpi::platform;
namespace ss = smpi::sim;

namespace {

sp::FlatClusterParams cluster(int nodes, double bw, double lat) {
  sp::FlatClusterParams params;
  params.nodes = nodes;
  params.link_bandwidth_bps = bw;
  params.link_latency_s = lat;
  return params;
}

struct Fixture {
  Fixture(sp::FlatClusterParams params, pn::PacketNetConfig config)
      : platform(sp::build_flat_cluster(params)) {
    auto model = std::make_shared<pn::PacketNetworkModel>(platform, config);
    net = model.get();
    engine.add_model(model);
  }
  sp::Platform platform;
  ss::Engine engine;
  pn::PacketNetworkModel* net = nullptr;
};

pn::PacketNetConfig no_rampup() {
  pn::PacketNetConfig config;
  config.slow_start = false;
  config.receive_overhead_s = 0;
  return config;
}

}  // namespace

TEST(PacketNet, SingleFrameCrossesStoreAndForward) {
  Fixture fx(cluster(2, 1e8, 1e-3), no_rampup());
  double done_at = -1;
  fx.engine.spawn("s", 0, [&] {
    fx.net->start_flow(0, 1, 1000)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  // Frame = 1054 B. Each of the 2 links: serialize 1.054e-5 then propagate
  // 1e-3 (store-and-forward): 2*(1.054e-5 + 1e-3).
  EXPECT_NEAR(done_at, 2 * (1054.0 / 1e8 + 1e-3), 1e-9);
}

TEST(PacketNet, PerFrameOverheadQuantizesSmallMessages) {
  Fixture fx(cluster(2, 1e8, 1e-4), no_rampup());
  // 1 byte and 1000 bytes both fit in one frame; their times differ only by
  // the payload's serialization, not by a full per-message cost.
  std::vector<double> done(2, -1);
  fx.engine.spawn("s", 0, [&] {
    const double t0 = fx.engine.now();
    fx.net->start_flow(0, 1, 1)->wait();
    done[0] = fx.engine.now() - t0;
    const double t1 = fx.engine.now();
    fx.net->start_flow(0, 1, 1000)->wait();
    done[1] = fx.engine.now() - t1;
  });
  fx.engine.run();
  EXPECT_NEAR(done[1] - done[0], 2 * (999.0 / 1e8), 1e-9);
}

TEST(PacketNet, LargeMessageGoodputBelowNominal) {
  Fixture fx(cluster(2, 1.25e8, 5e-5), no_rampup());
  double done_at = -1;
  const double bytes = 1e7;
  fx.engine.spawn("s", 0, [&] {
    fx.net->start_flow(0, 1, bytes)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  const double goodput = bytes / done_at;
  // Header overhead: effective rate ~= nominal * mss/mtu = 0.964 nominal.
  EXPECT_LT(goodput, 1.25e8 * 0.97);
  EXPECT_GT(goodput, 1.25e8 * 0.93);
}

TEST(PacketNet, MoreSwitchesAddPerHopCost) {
  // Same endpoints speeds, 1 vs 3 switches: the 3-switch route pays two more
  // store-and-forward serializations plus link latencies per frame.
  sp::HierarchicalClusterParams params;
  params.cabinet_sizes = {2, 2};
  params.cabinets_per_switch = 1;
  params.node_bandwidth_bps = 1e8;
  params.node_latency_s = 1e-4;
  params.uplink_bandwidth_bps = 1e8;
  params.uplink_latency_s = 1e-4;
  auto platform = sp::build_hierarchical_cluster(params);

  ss::Engine engine;
  auto model = std::make_shared<pn::PacketNetworkModel>(platform, no_rampup());
  auto* net = model.get();
  engine.add_model(model);
  double near_time = -1, far_time = -1;
  engine.spawn("s", 0, [&] {
    const double t0 = engine.now();
    net->start_flow(0, 1, 1000)->wait();  // same cabinet: 1 switch
    near_time = engine.now() - t0;
    const double t1 = engine.now();
    net->start_flow(0, 2, 1000)->wait();  // distant: 3 switches
    far_time = engine.now() - t1;
  });
  engine.run();
  const double frame = 1054.0 / 1e8 + 1e-4;
  EXPECT_NEAR(near_time, 2 * frame, 1e-9);
  EXPECT_NEAR(far_time, 4 * frame, 1e-9);
}

TEST(PacketNet, TwoFlowsInterleaveFairly) {
  // Ack-clocked steady window: without a binding window a sender would dump
  // its whole message into the first queue and serialize ahead of later
  // flows; with one, concurrent flows interleave at window granularity.
  auto config = no_rampup();
  config.initial_window_bytes = 64 * 1024;
  config.max_window_bytes = 64 * 1024;
  const double bytes = 2e6;
  double solo = -1;
  {
    // The engine is a singleton-at-a-time: measure the solo transfer in its
    // own scope first.
    Fixture solo_fx(cluster(3, 1e8, 1e-4), config);
    solo_fx.engine.spawn("s", 0, [&] {
      solo_fx.net->start_flow(0, 1, bytes)->wait();
      solo = solo_fx.engine.now();
    });
    solo_fx.engine.run();
  }
  Fixture fx(cluster(3, 1e8, 1e-4), config);
  std::vector<double> done(2, -1);
  fx.engine.spawn("s", 0, [&] {
    auto f1 = fx.net->start_flow(0, 1, bytes);
    auto f2 = fx.net->start_flow(0, 2, bytes);
    f1->on_completion([&](ss::Activity& a) { done[0] = a.finish_time(); });
    f2->on_completion([&](ss::Activity& a) { done[1] = a.finish_time(); });
    f1->wait();
    f2->wait();
  });
  fx.engine.run();
  // Both share the source uplink: each takes roughly twice the solo time and
  // they finish within one window of each other.
  EXPECT_NEAR(done[0], 2 * solo, 0.15 * 2 * solo);
  EXPECT_NEAR(done[1], 2 * solo, 0.15 * 2 * solo);
  EXPECT_NEAR(done[0], done[1], 0.1 * done[0]);
}

TEST(PacketNet, WindowLimitsThroughputOnLongPath) {
  auto config = no_rampup();
  config.initial_window_bytes = 8 * 1024;
  config.max_window_bytes = 8 * 1024;  // tiny window
  Fixture fx(cluster(2, 1.25e8, 2e-3), config);  // RTT ~8ms
  double done_at = -1;
  const double bytes = 1e6;
  fx.engine.spawn("s", 0, [&] {
    fx.net->start_flow(0, 1, bytes)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  // Window-bound rate ~= window / RTT ~= 8 KiB / 8 ms ~= 1 MiB/s, far below
  // the 125 MB/s wire rate.
  const double goodput = bytes / done_at;
  EXPECT_LT(goodput, 3e6);
  EXPECT_GT(goodput, 5e5);
}

TEST(PacketNet, SlowStartRampsUp) {
  const double bytes = 2e6;
  double ramped_time = -1, warm_time = -1;
  {
    pn::PacketNetConfig slow = no_rampup();
    slow.slow_start = true;
    slow.initial_window_bytes = 2 * 1024;
    Fixture ramped(cluster(2, 1.25e8, 1e-3), slow);
    ramped.engine.spawn("s", 0, [&] {
      ramped.net->start_flow(0, 1, bytes)->wait();
      ramped_time = ramped.engine.now();
    });
    ramped.engine.run();
  }
  {
    Fixture warm(cluster(2, 1.25e8, 1e-3), no_rampup());
    warm.engine.spawn("s", 0, [&] {
      warm.net->start_flow(0, 1, bytes)->wait();
      warm_time = warm.engine.now();
    });
    warm.engine.run();
  }
  EXPECT_GT(ramped_time, warm_time * 1.05);  // ramp-up costs something
  EXPECT_LT(ramped_time, warm_time * 5.0);   // ...but converges
}

TEST(PacketNet, ZeroByteMessageIsOneControlFrame) {
  Fixture fx(cluster(2, 1e8, 1e-3), no_rampup());
  double done_at = -1;
  fx.engine.spawn("s", 0, [&] {
    fx.net->start_flow(0, 1, 0)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  EXPECT_NEAR(done_at, 2 * (54.0 / 1e8 + 1e-3), 1e-9);
}

TEST(PacketNet, LoopbackIsImmediate) {
  Fixture fx(cluster(2, 1e8, 1e-3), no_rampup());
  double done_at = -1;
  fx.engine.spawn("s", 0, [&] {
    fx.net->start_flow(0, 0, 12345)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(PacketNet, FlowsRetireAfterAcksDrain) {
  Fixture fx(cluster(2, 1e8, 1e-4), no_rampup());
  fx.engine.spawn("s", 0, [&] {
    fx.net->start_flow(0, 1, 1e5)->wait();
    fx.engine.sleep_for(1.0);  // let the trailing acks drain
  });
  fx.engine.run();
  EXPECT_EQ(fx.net->active_flow_count(), 0u);
}

TEST(PacketNet, FrameCountMatchesPayload) {
  Fixture fx(cluster(2, 1e8, 1e-4), no_rampup());
  fx.engine.spawn("s", 0, [&] {
    fx.net->start_flow(0, 1, 14460)->wait();  // exactly 10 full frames
    fx.engine.sleep_for(1.0);
  });
  fx.engine.run();
  // 10 data frames + 10 acks.
  EXPECT_EQ(fx.net->total_frames_sent(), 20u);
}

TEST(PacketNet, DeterministicEventCount) {
  auto run_once = [] {
    Fixture fx(cluster(4, 1e8, 1e-4), no_rampup());
    fx.engine.spawn("s", 0, [&] {
      auto f1 = fx.net->start_flow(0, 1, 5e5);
      auto f2 = fx.net->start_flow(2, 3, 5e5);
      f1->wait();
      f2->wait();
      fx.engine.sleep_for(1.0);
    });
    fx.engine.run();
    return fx.net->total_events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}
