// Cross-module integration and robustness: determinism of whole simulations,
// backend interchangeability, thread-backend runs, large rank counts, and
// failure injection at the world level.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "apps/dt.hpp"
#include "calib/calibration.hpp"
#include "platform/platform_xml.hpp"
#include "smpi_test_util.hpp"
#include "util/check.hpp"

namespace sc = smpi::core;
namespace ap = smpi::apps;
using namespace smpi_test;

TEST(Integration, WholeSimulationIsDeterministic) {
  auto run_once = [] {
    return run_mpi(9, [] {
      const int rank = my_rank();
      const int size = world_size();
      // A mix of p2p and collectives with data-dependent sizes.
      std::vector<double> data(1000 + 100 * static_cast<std::size_t>(rank), rank);
      MPI_Bcast(data.data(), 1000, MPI_DOUBLE, 0, MPI_COMM_WORLD);
      MPI_Status status;
      if (rank != 0) {
        MPI_Send(data.data(), 100 * rank, MPI_DOUBLE, 0, rank, MPI_COMM_WORLD);
      } else {
        for (int r = 1; r < size; ++r) {
          std::vector<double> in(100 * static_cast<std::size_t>(r));
          MPI_Recv(in.data(), 100 * r, MPI_DOUBLE, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD,
                   &status);
        }
      }
      double x = rank, sum = 0;
      MPI_Allreduce(&x, &sum, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    });
  };
  const double t1 = run_once();
  const double t2 = run_once();
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(Integration, PacketBackendIsDeterministicToo) {
  auto run_once = [] {
    sc::SmpiConfig config;
    config.backend = sc::SmpiConfig::Backend::kPacket;
    config.personality = sc::Personality::openmpi();
    return run_mpi(
        5,
        [] {
          std::vector<char> buf(100000);
          const int rank = my_rank();
          if (rank == 0) {
            for (int r = 1; r < world_size(); ++r) {
              MPI_Send(buf.data(), 100000, MPI_CHAR, r, 0, MPI_COMM_WORLD);
            }
          } else {
            MPI_Recv(buf.data(), 100000, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
          }
        },
        config);
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Integration, AllSolverModesAgreeEndToEnd) {
  // The same MPI program under the lazy (default) and the full-reference
  // solver (the knob drives both the network and the CPU system): the
  // simulated completion times must match to solver tolerance — the
  // whole-stack version of the MaxMinEquivalenceTest property.
  auto run_once = [](smpi::surf::SolveMode mode) {
    sc::SmpiConfig config;
    config.network.solver_mode = mode;
    return run_mpi(
        12,
        [] {
          const int rank = my_rank();
          std::vector<char> buf(1 << 16);
          MPI_Bcast(buf.data(), 1 << 16, MPI_CHAR, 0, MPI_COMM_WORLD);
          // Pairwise traffic so many flows contend at once.
          const int peer = rank ^ 1;
          if (peer < world_size()) {
            MPI_Sendrecv(buf.data(), 1 << 15, MPI_CHAR, peer, 0, buf.data(), 1 << 15, MPI_CHAR,
                         peer, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
          }
          double x = rank, sum = 0;
          MPI_Allreduce(&x, &sum, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
        },
        config);
  };
  const double full = run_once(smpi::surf::SolveMode::kFull);
  EXPECT_NEAR(run_once(smpi::surf::SolveMode::kLazy), full, 1e-9);
}

TEST(Integration, FourHundredFortyEightRanksOnOneNode) {
  // The paper's largest configuration (§7.2): DT Shuffle class C needs 448
  // processes. Run a barrier + reduce over that many fibers.
  smpi::platform::FlatClusterParams params;
  params.nodes = 448;
  auto platform = smpi::platform::build_flat_cluster(params);
  sc::SmpiConfig config;
  config.engine.stack_bytes = 128 * 1024;
  sc::SmpiWorld world(platform, config);
  world.run(448, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    MPI_Barrier(MPI_COMM_WORLD);
    long long v = my_rank(), sum = -1;
    MPI_Allreduce(&v, &sum, 1, MPI_LONG_LONG, MPI_SUM, MPI_COMM_WORLD);
    EXPECT_EQ(sum, 448LL * 447 / 2);
    MPI_Finalize();
  });
  EXPECT_GT(world.simulated_time(), 0);
}

TEST(Integration, DtShuffleClassAFullRun) {
  // 80-process Shuffle with verification — the configuration class the paper
  // could not validate on its real cluster (>43 nodes).
  ap::DtParams params;
  params.graph = ap::DtGraph::kShuffle;
  params.cls = ap::DtClass::kA;
  params.scale = 0.05;
  const int nprocs = ap::dt_process_count(params.graph, params.cls);
  ASSERT_EQ(nprocs, 80);
  auto platform = test_cluster(nprocs);
  sc::SmpiWorld world(platform, fast_config());
  world.run(nprocs, ap::make_dt_app(params));
  EXPECT_NEAR(ap::dt_last_checksum(), ap::dt_reference_checksum(params),
              ap::dt_reference_checksum(params) * 1e-12);
}

TEST(Integration, XmlPlatformDrivesAFullSimulation) {
  const char* doc = R"(<?xml version="1.0"?>
<platform version="4">
  <cluster id="c" prefix="n" radical="0-7" speed="1Gf" cores="2"
           bw="1Gbps" lat="50us"/>
</platform>)";
  auto platform = smpi::platform::load_platform_from_string(doc);
  sc::SmpiWorld world(platform, sc::SmpiConfig{});
  world.run(8, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    int v = 1, sum = 0;
    MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
    EXPECT_EQ(sum, 8);
    MPI_Finalize();
  });
  EXPECT_GT(world.simulated_time(), 0);
}

TEST(Integration, XmlPlatformFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/smpi_platform_test.xml";
  {
    std::ofstream out(path);
    out << R"(<platform version="4">
  <host id="a" speed="1Gf"/>
  <host id="b" speed="2Gf"/>
  <link id="l" bandwidth="1Gbps" latency="10us"/>
  <route src="a" dst="b"><link_ctn id="l"/></route>
</platform>)";
  }
  auto platform = smpi::platform::load_platform_from_file(path);
  EXPECT_EQ(platform.host_count(), 2);
  EXPECT_TRUE(platform.has_route(0, 1));
  std::remove(path.c_str());
  EXPECT_THROW(smpi::platform::load_platform_from_file(path), smpi::platform::XmlError);
}

TEST(Integration, MismatchedCollectiveScaleFailsCleanly) {
  // A DT app launched with the wrong process count must surface a contract
  // error, not hang or corrupt.
  ap::DtParams params;
  params.graph = ap::DtGraph::kWhiteHole;
  params.cls = ap::DtClass::kS;
  auto platform = test_cluster(4);
  sc::SmpiWorld world(platform, fast_config());
  EXPECT_THROW(world.run(4, ap::make_dt_app(params)), smpi::util::ContractError);
}

TEST(Integration, DeadlockedApplicationIsDiagnosed) {
  auto platform = test_cluster(2);
  sc::SmpiWorld world(platform, fast_config());
  EXPECT_THROW(world.run(2,
                         [](int, char**) {
                           MPI_Init(nullptr, nullptr);
                           int v = 0;
                           // Both ranks receive first: classic deadlock.
                           MPI_Recv(&v, 1, MPI_INT, 1 - my_rank(), 0, MPI_COMM_WORLD,
                                    MPI_STATUS_IGNORE);
                           MPI_Finalize();
                         }),
               smpi::sim::DeadlockError);
}

TEST(Integration, CrossBackendAgreementOnCollective) {
  // The same 1 MiB bcast under flow and packet backends: both models must
  // agree within a factor that justifies using the fast one (Figs 7-15).
  auto measure = [](sc::SmpiConfig config) {
    return run_mpi(
        8,
        [] {
          std::vector<char> buf(1 << 20, 'x');
          MPI_Bcast(buf.data(), 1 << 20, MPI_CHAR, 0, MPI_COMM_WORLD);
        },
        config);
  };
  sc::SmpiConfig flow = fast_config();
  sc::SmpiConfig packet;
  packet.backend = sc::SmpiConfig::Backend::kPacket;
  packet.personality = sc::Personality::openmpi();
  const double t_flow = measure(flow);
  const double t_packet = measure(packet);
  EXPECT_GT(t_packet, t_flow * 0.5);
  EXPECT_LT(t_packet, t_flow * 2.0);
}
