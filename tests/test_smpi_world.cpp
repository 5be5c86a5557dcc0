// World lifecycle, sampling macros, shared malloc / memory folding, compute
// injection, abort handling, and the packet backend running the same MPI
// code (the on-line ground-truth mode).
#include <gtest/gtest.h>

#include <vector>

#include "smpi_test_util.hpp"
#include "util/check.hpp"

using namespace smpi_test;
namespace sc = smpi::core;

TEST(SmpiWorld, InitFinalizeFlags) {
  run_mpi(2, [] {
    int flag = -1;
    MPI_Initialized(&flag);
    EXPECT_EQ(flag, 1);
    MPI_Finalized(&flag);
    EXPECT_EQ(flag, 0);
  });
}

TEST(SmpiWorld, ProcessorNameIsPlatformHost) {
  run_mpi(2, [] {
    char name[256];
    int len = 0;
    ASSERT_EQ(MPI_Get_processor_name(name, &len), MPI_SUCCESS);
    EXPECT_GT(len, 0);
    EXPECT_EQ(std::string(name).substr(0, 5), "node-");
  });
}

TEST(SmpiWorld, ExecuteFlopsAdvancesTime) {
  // 2e9 flops on 1e9 flop/s nodes = 2 simulated seconds.
  const double t = run_mpi(2, [] {
    if (my_rank() == 0) smpi_execute_flops(2e9);
  });
  EXPECT_NEAR(t, 2.0, 0.01);
}

TEST(SmpiWorld, RanksComputeConcurrently) {
  // Ranks sit on different nodes: simulated computation overlaps, so the
  // total is one burst, not the sum.
  const double t = run_mpi(4, [] { smpi_execute_flops(1e9); });
  EXPECT_NEAR(t, 1.0, 0.01);
}

TEST(SmpiWorld, AbortStopsTheWorld) {
  auto platform = test_cluster(2);
  sc::SmpiWorld world(platform, fast_config());
  world.run(2, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    if (my_rank() == 0) {
      MPI_Abort(MPI_COMM_WORLD, 42);
      FAIL() << "unreachable after abort";
    }
    // Rank 1 blocks forever; the abort must still end the simulation.
    int v = 0;
    MPI_Recv(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  });
  EXPECT_TRUE(world.aborted());
  EXPECT_EQ(world.abort_code(), 42);
}

// An abort while a rendezvous handshake is on the wire (ground-truth
// personality: the receiver has matched, the 200 us RTS is in flight) ends
// the run without firing the handshake's callbacks, and teardown drops them
// unfired: the sanitizer build's leak checker flags any envelope they keep
// alive.
TEST(SmpiWorld, AbortDuringRendezvousHandshakeLeavesNothingBehind) {
  auto platform = test_cluster(3);
  sc::SmpiConfig config = fast_config();
  config.personality = sc::Personality::openmpi();
  sc::SmpiWorld world(platform, config);
  world.run(3, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    std::vector<char> buf(1 << 20);
    const int count = static_cast<int>(buf.size());
    if (my_rank() == 0) {
      MPI_Send(buf.data(), count, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
    } else if (my_rank() == 1) {
      MPI_Recv(buf.data(), count, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    } else {
      smpi_execute_flops(1e4);  // 10 us: after the RTS left, long before it lands
      MPI_Abort(MPI_COMM_WORLD, 7);
    }
  });
  EXPECT_TRUE(world.aborted());
  EXPECT_EQ(world.abort_code(), 7);
  EXPECT_LT(world.simulated_time(), 1e-4);
}

// A constructor that throws (here: a fault naming a host the platform lacks)
// must leave no world registered; otherwise every later world in the
// process fails the one-world-at-a-time precondition.
TEST(SmpiWorld, FailedConstructionLeavesNoWorldBehind) {
  auto platform = test_cluster(8);
  sc::SmpiConfig config = fast_config();
  config.faults = smpi::sim::FaultSpec::parse_text(
      R"({"policy": "abort", "events": [{"kind": "host_crash", "time": 100.0, "host": "node-12"}]})");
  EXPECT_THROW({ sc::SmpiWorld world(platform, config); }, smpi::util::ContractError);
  EXPECT_EQ(sc::SmpiWorld::instance(), nullptr);
  EXPECT_NEAR(run_mpi(2, [] { smpi_execute_flops(1e9); }), 1.0, 0.01);
}

TEST(SmpiSample, LocalSamplingFoldsAfterN) {
  int executions = 0;
  run_mpi(1, [&executions] {
    for (int iter = 0; iter < 10; ++iter) {
      SMPI_SAMPLE_LOCAL(3) { ++executions; }
    }
  });
  EXPECT_EQ(executions, 3);  // executed thrice, folded afterwards
}

TEST(SmpiSample, GlobalSamplingSharesBudgetAcrossRanks) {
  static int executions;  // static: summed across all ranks (shared memory)
  executions = 0;
  run_mpi(4, [] {
    for (int iter = 0; iter < 5; ++iter) {
      SMPI_SAMPLE_GLOBAL(6) { ++executions; }
      MPI_Barrier(MPI_COMM_WORLD);
    }
  });
  EXPECT_EQ(executions, 6);  // 6 total, not 6 per rank
}

TEST(SmpiSample, DelayNeverExecutesAndInjectsFlops) {
  int executions = 0;
  const double t = run_mpi(1, [&executions] {
    SMPI_SAMPLE_DELAY(3e9) { ++executions; }
  });
  EXPECT_EQ(executions, 0);
  EXPECT_NEAR(t, 3.0, 0.01);  // 3e9 flops at 1e9 flop/s
}

TEST(SmpiSample, FoldedIterationsStillAdvanceSimulatedTime) {
  // Folded iterations replay the mean measured duration, so simulated time
  // keeps increasing even when the code stops executing.
  std::vector<double> iteration_times;
  run_mpi(1, [&iteration_times] {
    for (int iter = 0; iter < 6; ++iter) {
      const double t0 = MPI_Wtime();
      SMPI_SAMPLE_LOCAL(2) {
        volatile double x = 1;
        for (int i = 0; i < 2000000; ++i) x = x * 1.0000001;
      }
      iteration_times.push_back(MPI_Wtime() - t0);
    }
  });
  ASSERT_EQ(iteration_times.size(), 6u);
  for (double dt : iteration_times) EXPECT_GT(dt, 0.0);
  // The folded iterations (2..5) all replay the same mean.
  EXPECT_DOUBLE_EQ(iteration_times[3], iteration_times[2]);
  EXPECT_DOUBLE_EQ(iteration_times[4], iteration_times[2]);
}

TEST(SmpiShared, SharedMallocReturnsSamePointerToAllRanks) {
  static void* seen[4];
  run_mpi(4, [] {
    double* data = static_cast<double*>(SMPI_SHARED_MALLOC(1024 * sizeof(double)));
    seen[my_rank()] = data;
    data[my_rank()] = my_rank();  // shared: writes land in one block
    MPI_Barrier(MPI_COMM_WORLD);
    EXPECT_DOUBLE_EQ(data[0], 0);
    EXPECT_DOUBLE_EQ(data[3], 3);
    SMPI_FREE(data);
  });
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[0], seen[2]);
  EXPECT_EQ(seen[0], seen[3]);
}

TEST(SmpiShared, MemoryTrackerFoldsSharedAllocations) {
  auto platform = test_cluster(8);
  sc::SmpiWorld world(platform, fast_config());
  world.run(8, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    void* shared = SMPI_SHARED_MALLOC(1000000);
    void* priv = smpi_malloc(1000);
    MPI_Barrier(MPI_COMM_WORLD);
    smpi_free(priv);
    SMPI_FREE(shared);
    MPI_Finalize();
  });
  const auto report = world.memory_report();
  // Unfolded: 8 x (1e6 + 1e3); folded: 1e6 + 8 x 1e3.
  EXPECT_EQ(report.unfolded_peak_bytes, 8u * 1001000);
  EXPECT_EQ(report.folded_peak_bytes, 1000000u + 8u * 1000);
  EXPECT_EQ(report.max_rank_peak_bytes, 1001000u);
  EXPECT_FALSE(report.over_budget);
}

TEST(SmpiShared, OverBudgetIsFlagged) {
  auto platform = test_cluster(4);
  auto config = fast_config();
  config.host_ram_budget_bytes = 1024 * 1024;  // 1 MiB budget
  sc::SmpiWorld world(platform, config);
  world.run(4, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    void* p = smpi_malloc(512 * 1024);  // 4 x 512 KiB = 2 MiB unfolded
    MPI_Barrier(MPI_COMM_WORLD);
    smpi_free(p);
    MPI_Finalize();
  });
  EXPECT_TRUE(world.memory_report().over_budget);
}

TEST(SmpiShared, LeakedAllocationsReclaimedAtTeardown) {
  auto platform = test_cluster(2);
  sc::SmpiWorld world(platform, fast_config());
  world.run(2, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    smpi_malloc(4096);  // deliberately leaked
    MPI_Finalize();
  });
  EXPECT_EQ(world.memory_report().unfolded_peak_bytes, 2u * 4096);
  // Destructor reclaims without tripping the tracker's underflow checks.
}

TEST(SmpiBackend, SameProgramRunsOnPacketNetwork) {
  // On-line ground-truth mode: identical MPI code, packet-level network.
  auto platform = test_cluster(4);
  sc::SmpiConfig config;
  config.backend = sc::SmpiConfig::Backend::kPacket;
  config.personality = sc::Personality::openmpi();
  sc::SmpiWorld world(platform, config);
  world.run(4, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    const int rank = my_rank();
    int sum = -1;
    int v = rank + 1;
    MPI_Allreduce(&v, &sum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
    EXPECT_EQ(sum, 10);
    std::vector<char> big(128 * 1024);
    if (rank == 0) MPI_Send(big.data(), static_cast<int>(big.size()), MPI_CHAR, 1, 0, MPI_COMM_WORLD);
    if (rank == 1) MPI_Recv(big.data(), static_cast<int>(big.size()), MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    MPI_Finalize();
  });
  EXPECT_GT(world.simulated_time(), 0.0);
}

TEST(SmpiBackend, PacketAndFlowBackendsAgreeRoughly) {
  // The two models must tell the same story for a simple transfer: within a
  // factor ~2 for a large point-to-point message on the same platform.
  auto transfer = [](sc::SmpiConfig config) {
    return run_mpi(
        2,
        [] {
          std::vector<char> buf(4 * 1024 * 1024);
          if (my_rank() == 0) {
            MPI_Send(buf.data(), static_cast<int>(buf.size()), MPI_CHAR, 1, 0, MPI_COMM_WORLD);
          } else {
            MPI_Recv(buf.data(), static_cast<int>(buf.size()), MPI_CHAR, 0, 0, MPI_COMM_WORLD,
                     MPI_STATUS_IGNORE);
          }
        },
        config);
  };
  sc::SmpiConfig flow = fast_config();
  sc::SmpiConfig packet;
  packet.backend = sc::SmpiConfig::Backend::kPacket;
  packet.personality = sc::Personality::openmpi();
  const double t_flow = transfer(flow);
  const double t_packet = transfer(packet);
  EXPECT_GT(t_packet, t_flow * 0.5);
  EXPECT_LT(t_packet, t_flow * 2.0);
}

TEST(SmpiWorld, RunSimulationConvenienceWrapper) {
  auto platform = test_cluster(2);
  const double t = sc::run_simulation(platform, fast_config(), 2, [](int argc, char** argv) {
    EXPECT_GE(argc, 1);
    EXPECT_STREQ(argv[0], "smpi_app");
    MPI_Init(nullptr, nullptr);
    smpi_sleep(0.125);
    MPI_Finalize();
  });
  EXPECT_GE(t, 0.125);
}

TEST(SmpiWorld, ArgumentsReachTheApplication) {
  auto platform = test_cluster(2);
  sc::SmpiWorld world(platform, fast_config());
  world.run(
      2,
      [](int argc, char** argv) {
        MPI_Init(nullptr, nullptr);
        ASSERT_EQ(argc, 3);
        EXPECT_STREQ(argv[1], "--size");
        EXPECT_STREQ(argv[2], "17");
        MPI_Finalize();
      },
      {"--size", "17"});
}

TEST(SmpiWorld, CpuScaleSpeedsUpTheTargetNodes) {
  // The §6 "what if the nodes were twice as fast?" knob: the same measured
  // burst should take half the simulated time with cpu_scale = 0.5 (host
  // seconds are multiplied by host_speed * cpu_scale to get target flops).
  auto run_with_scale = [](double scale) {
    auto config = fast_config();
    config.cpu_scale = scale;
    return run_mpi(1, [] { smpi_execute_host_seconds(0.001); }, config);
  };
  const double t_base = run_with_scale(1.0);
  const double t_fast = run_with_scale(0.5);
  EXPECT_NEAR(t_fast, t_base * 0.5, t_base * 0.05);
}

TEST(SmpiWorld, HostSpeedSettingScalesSampledBursts) {
  // Doubling the assumed host speed doubles the flops attributed to a burst
  // and hence its simulated duration on the same target node.
  auto run_with_host_speed = [](double speed) {
    auto config = fast_config();
    config.host_speed_flops = speed;
    return run_mpi(1, [] { smpi_execute_host_seconds(0.001); }, config);
  };
  const double t1 = run_with_host_speed(1e9);
  const double t2 = run_with_host_speed(2e9);
  EXPECT_NEAR(t2, t1 * 2.0, t1 * 0.05);
}
