#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "calib/calibration.hpp"
#include "calib/fit.hpp"
#include "calib/pingpong.hpp"
#include "platform/builders.hpp"
#include "smpi/coll.h"
#include "smpi/mpi.h"
#include "smpi/smpi.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace ca = smpi::calib;
namespace sp = smpi::platform;
namespace sc = smpi::core;

namespace {

// Synthetic measurements drawn exactly from a given model.
template <typename Model>
std::vector<ca::PingPongPoint> synth(const Model& model, std::uint64_t max_bytes = 16u << 20) {
  std::vector<ca::PingPongPoint> points;
  for (std::uint64_t size : ca::PingPongOptions::default_sizes(max_bytes, 2)) {
    points.push_back({size, model.predict(static_cast<double>(size))});
  }
  return points;
}

// Completion time of the paper's manual binomial scatter (§7.1.2): root 0
// scatters `chunk` bytes to each of 16 ranks spread round-robin over
// `platform`; the slowest rank's time from the opening barrier.
double scatter_seconds(const sp::Platform& platform, sc::SmpiConfig config, std::size_t chunk) {
  constexpr int kProcs = 16;
  const int hosts = platform.host_count();
  const int stride = std::max(1, hosts / kProcs);
  for (int r = 0; r < kProcs; ++r) config.placement.push_back((r * stride) % hosts);
  std::vector<double> times(kProcs);
  sc::SmpiWorld world(platform, config);
  world.run(kProcs, [&times, chunk](int, char**) {
    MPI_Init(nullptr, nullptr);
    int rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    std::vector<char> send(rank == 0 ? chunk * kProcs : 0, 'x');
    std::vector<char> recv(chunk);
    MPI_Barrier(MPI_COMM_WORLD);
    const double start = MPI_Wtime();
    smpi::coll::scatter_binomial(send.data(), static_cast<int>(chunk), MPI_CHAR, recv.data(),
                                 static_cast<int>(chunk), MPI_CHAR, 0, MPI_COMM_WORLD);
    times[static_cast<std::size_t>(rank)] = MPI_Wtime() - start;
    MPI_Finalize();
  });
  return *std::max_element(times.begin(), times.end());
}

}  // namespace

TEST(PingPongOptions, DefaultSizesSweepIsSane) {
  const auto sizes = ca::PingPongOptions::default_sizes(1 << 20, 2);
  ASSERT_GE(sizes.size(), 20u);
  EXPECT_EQ(sizes.front(), 1u);
  EXPECT_EQ(sizes.back(), 1u << 20);
  for (std::size_t i = 1; i < sizes.size(); ++i) EXPECT_GT(sizes[i], sizes[i - 1]);
}

TEST(Fit, BestAffineRecoversExactAffineData) {
  ca::AffineModel truth{50e-6, 100e6};
  const auto points = synth(truth);
  const auto fitted = ca::fit_best_affine(points);
  EXPECT_NEAR(fitted.latency_s, truth.latency_s, truth.latency_s * 0.1);
  EXPECT_NEAR(fitted.bandwidth_bps, truth.bandwidth_bps, truth.bandwidth_bps * 0.1);
  EXPECT_LT(ca::evaluate_model(fitted, points).mean_log_error, 0.02);
}

TEST(Fit, DefaultAffineUsesSmallestMessageLatency) {
  ca::AffineModel truth{80e-6, 110e6};
  const auto points = synth(truth);
  const auto fitted = ca::fit_default_affine(points, 125e6, 0.92);
  EXPECT_NEAR(fitted.latency_s, truth.predict(1), 1e-9);
  EXPECT_DOUBLE_EQ(fitted.bandwidth_bps, 0.92 * 125e6);
}

TEST(Fit, PiecewiseRecoversThreeSegments) {
  ca::PiecewiseLinearModel truth;
  truth.segments = {{1500.0, 60e-6, 400e6},
                    {65536.0, 100e-6, 110e6},
                    {std::numeric_limits<double>::infinity(), 300e-6, 118e6}};
  const auto points = synth(truth);
  const auto fitted = ca::fit_piecewise(points, 3);
  ASSERT_EQ(fitted.segments.size(), 3u);
  // Prediction accuracy is what matters; boundaries may shift slightly.
  EXPECT_LT(ca::evaluate_model(fitted, points).mean_log_error, 0.03);
  // Boundaries found within a factor of ~4 of the true ones.
  EXPECT_GT(fitted.segments[0].max_bytes, 1500.0 / 4);
  EXPECT_LT(fitted.segments[0].max_bytes, 1500.0 * 4);
  EXPECT_GT(fitted.segments[1].max_bytes, 65536.0 / 4);
  EXPECT_LT(fitted.segments[1].max_bytes, 65536.0 * 4);
}

TEST(Fit, PiecewiseBeatsAffineOnCurvedData) {
  // The core claim of §4.1: on protocol-switching data, 3 segments beat any
  // single affine model.
  ca::PiecewiseLinearModel truth;
  truth.segments = {{1500.0, 60e-6, 500e6},
                    {65536.0, 90e-6, 105e6},
                    {std::numeric_limits<double>::infinity(), 400e-6, 120e6}};
  const auto points = synth(truth);
  const auto piecewise = ca::fit_piecewise(points, 3);
  const auto affine = ca::fit_best_affine(points);
  const double err_piecewise = ca::evaluate_model(piecewise, points).mean_log_error;
  const double err_affine = ca::evaluate_model(affine, points).mean_log_error;
  EXPECT_LT(err_piecewise, err_affine * 0.5);
}

TEST(Fit, ParameterCountMatchesPaper) {
  ca::PiecewiseLinearModel model;
  model.segments.resize(3);
  EXPECT_EQ(model.parameter_count(), 8);  // 2 boundaries + 3 x (alpha, beta)
}

TEST(Fit, RejectsDegenerateInput) {
  EXPECT_THROW(ca::fit_piecewise({}, 3), smpi::util::ContractError);
  std::vector<ca::PingPongPoint> few{{1, 1e-4}, {2, 1e-4}, {4, 1e-4}};
  EXPECT_THROW(ca::fit_piecewise(few, 3), smpi::util::ContractError);
  EXPECT_THROW(ca::fit_default_affine({}, 125e6), smpi::util::ContractError);
}

TEST(Fit, FactorsReproduceModelOnMatchingRoute) {
  // A flow network configured with to_factors(model) must predict exactly
  // model.predict(s) for a route whose physical parameters are the base.
  ca::PiecewiseLinearModel model;
  model.segments = {{4096.0, 200e-6, 50e6},
                    {std::numeric_limits<double>::infinity(), 500e-6, 100e6}};
  const double base_lat = 2e-4;  // 2 links x 1e-4
  const double base_bw = 125e6;
  const auto factors = ca::to_factors(model, base_lat, base_bw);

  sp::FlatClusterParams params;
  params.nodes = 2;
  params.link_bandwidth_bps = base_bw;
  params.link_latency_s = base_lat / 2;
  auto platform = sp::build_flat_cluster(params);
  smpi::surf::NetworkConfig net;
  net.factors = factors;
  net.bandwidth_efficiency = 1.0;
  net.tcp_window_bytes = 0;
  smpi::sim::Engine engine;
  smpi::surf::FlowNetworkModel flow(platform, net);
  for (double s : {100.0, 1e4, 1e6}) {
    EXPECT_NEAR(flow.uncontended_duration(0, 1, s), model.predict(s),
                model.predict(s) * 1e-9);
  }
}

TEST(PingPong, FlowBackendMatchesClosedForm) {
  sp::FlatClusterParams params;
  params.nodes = 2;
  params.link_bandwidth_bps = 1e8;
  params.link_latency_s = 1e-4;
  auto platform = sp::build_flat_cluster(params);
  sc::SmpiConfig config;
  config.network.bandwidth_efficiency = 1.0;
  config.network.tcp_window_bytes = 0;
  ca::PingPongOptions options;
  options.sizes = {1000, 100000, 1000000};
  options.repetitions = 1;
  options.warmup = 0;
  const auto points = ca::run_pingpong(platform, config, options);
  ASSERT_EQ(points.size(), 3u);
  for (const auto& p : points) {
    const double expected = 2e-4 + static_cast<double>(p.bytes) / 1e8;
    EXPECT_NEAR(p.one_way_seconds, expected, expected * 0.01) << p.bytes;
  }
}

TEST(PingPong, PacketBackendTimesGrowWithSize) {
  sp::FlatClusterParams params;
  params.nodes = 2;
  auto platform = sp::build_flat_cluster(params);
  ca::PingPongOptions options;
  options.sizes = {1, 1000, 100000, 1000000};
  const auto points = ca::run_pingpong(platform, ca::ground_truth_config(), options);
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].one_way_seconds, points[i - 1].one_way_seconds);
  }
  // Sub-frame messages are latency-dominated: 1 B and 1000 B are close.
  EXPECT_LT(points[1].one_way_seconds, points[0].one_way_seconds * 1.5);
}

TEST(Calibration, EndToEndPiecewiseBeatsBothAffines) {
  // The Figure 3 pipeline in miniature: calibrate on the packet-level ground
  // truth, then check the paper's headline accuracy ordering.
  sp::FlatClusterParams params;
  params.nodes = 2;
  auto platform = sp::build_flat_cluster(params);
  ca::PingPongOptions options;
  options.sizes = ca::PingPongOptions::default_sizes(4u << 20, 2);
  const auto calib = ca::calibrate(platform, 0, 1, ca::ground_truth_config(), options);

  const double err_pw = ca::evaluate_model(calib.piecewise, calib.measurements).mean_log_error;
  const double err_best = ca::evaluate_model(calib.best_affine, calib.measurements).mean_log_error;
  const double err_default =
      ca::evaluate_model(calib.default_affine, calib.measurements).mean_log_error;
  EXPECT_LT(err_pw, err_best);
  EXPECT_LT(err_best, err_default * 1.5);  // best-fit no worse than default
  // Piece-wise model accuracy in the paper: 8.63% average; be generous.
  EXPECT_LT(smpi::util::log_error_as_fraction(err_pw), 0.25);
}

TEST(Calibration, SimulatedPingPongTracksGroundTruth) {
  // Full §7.1.1 loop: measure, fit, re-simulate with SMPI, compare.
  sp::FlatClusterParams params;
  params.nodes = 2;
  auto platform = sp::build_flat_cluster(params);
  ca::PingPongOptions options;
  options.sizes = ca::PingPongOptions::default_sizes(4u << 20, 2);
  const auto calib = ca::calibrate(platform, 0, 1, ca::ground_truth_config(), options);
  const auto simulated =
      ca::simulate_pingpong(platform, 0, 1, calib.piecewise_factors(), options);
  ASSERT_EQ(simulated.size(), calib.measurements.size());
  smpi::util::ErrorAccumulator acc;
  for (std::size_t i = 0; i < simulated.size(); ++i) {
    acc.add(simulated[i].one_way_seconds, calib.measurements[i].one_way_seconds);
  }
  EXPECT_LT(acc.summary().mean_fraction(), 0.30);
}

// Figure 8's claim: calibrated on griffon's packet-level ground truth, the
// simulated 16-rank binomial scatter is within 10% of it for every chunk of
// at least 10 KiB in the figure's sweep (1 B to 4 MiB in steps of x8).
TEST(Calibration, ScatterErrorUnderTenPercentAbove10KiB) {
  const auto griffon = sp::build_griffon();
  ca::PingPongOptions options;
  options.sizes = ca::PingPongOptions::default_sizes(16u << 20, 2);
  const auto calib = ca::calibrate(griffon, 0, 1, ca::ground_truth_config(), options);
  const sc::SmpiConfig simulated = ca::calibrated_smpi_config(calib.piecewise_factors());
  smpi::util::ErrorAccumulator large;
  for (std::size_t chunk = 1; chunk <= (4u << 20); chunk *= 8) {
    if (chunk < 10 * 1024) continue;
    large.add(scatter_seconds(griffon, simulated, chunk),
              scatter_seconds(griffon, ca::ground_truth_config(), chunk));
  }
  const smpi::util::ErrorSummary summary = large.summary();
  EXPECT_EQ(summary.count, 3u);
  EXPECT_LT(summary.max_fraction(), 0.10);
}
