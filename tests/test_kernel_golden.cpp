// Golden simulated times and timer counts for runs whose event streams mix
// engine timers with model calendar entries due at one date. The kernel
// fires everything due at a date in (date, creation) order; any change to
// that order, or to how many timers a run creates, moves these pins.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "smpi_test_util.hpp"

namespace sc = smpi::core;
using smpi_test::fast_config;
using smpi_test::my_rank;
using smpi_test::world_size;

namespace {

struct Golden {
  std::string simulated_time;  // %.17g
  std::uint64_t timers_created = 0;
  std::string failure;  // RunResult::failure (abort policy only)
};

Golden run_golden_on(const smpi::platform::Platform& platform, int nprocs,
                     const std::function<void()>& body, const sc::SmpiConfig& config) {
  sc::SmpiWorld world(platform, config);
  world.run(nprocs, [&body](int, char**) {
    MPI_Init(nullptr, nullptr);
    body();
    MPI_Finalize();
  });
  char text[32];
  std::snprintf(text, sizeof text, "%.17g", world.simulated_time());
  return {text, world.engine().timers_created(), world.result().failure};
}

Golden run_golden(int nprocs, const std::function<void()>& body,
                  const sc::SmpiConfig& config = fast_config()) {
  return run_golden_on(smpi_test::test_cluster(nprocs), nprocs, body, config);
}

void expect_golden(const Golden& got, const char* simulated_time,
                   std::uint64_t timers_created) {
  EXPECT_EQ(got.simulated_time, simulated_time);
  EXPECT_GT(got.timers_created, 0u);
  EXPECT_EQ(got.timers_created, timers_created);
}

}  // namespace

// Receive-overhead timers (complete_receive_after) land on the dates the
// flow model's completions fire.
TEST(KernelGolden, OpenMpiAlltoall) {
  sc::SmpiConfig config = fast_config();
  config.personality = sc::Personality::openmpi();
  const Golden got = run_golden(
      16,
      [] {
        std::vector<char> out(16 * 4096, 'a');
        std::vector<char> in(out.size());
        MPI_Alltoall(out.data(), 4096, MPI_CHAR, in.data(), 4096, MPI_CHAR, MPI_COMM_WORLD);
      },
      config);
  expect_golden(got, "0.0016828800000000007", 672);
}

// Zero-byte messages complete through pure-latency timers, not flows.
TEST(KernelGolden, ZeroByteRing) {
  const Golden got = run_golden(12, [] {
    const int rank = my_rank();
    const int size = world_size();
    std::vector<char> out(4096, 'r');
    std::vector<char> in(out.size());
    for (int round = 0; round < 4; ++round) {
      MPI_Sendrecv(nullptr, 0, MPI_CHAR, (rank + 1) % size, round, nullptr, 0, MPI_CHAR,
                   (rank + size - 1) % size, round, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Sendrecv(out.data(), static_cast<int>(out.size()), MPI_CHAR, (rank + 1) % size,
                   100 + round, in.data(), static_cast<int>(in.size()), MPI_CHAR,
                   (rank + size - 1) % size, 100 + round, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
  });
  expect_golden(got, "0.0025638400000000008", 96);
}

// An MPI_Test loop polls past escalation onto the fallback timer while the
// other ranks keep flows in flight.
TEST(KernelGolden, TestLoopPastEscalation) {
  const Golden got = run_golden(4, [] {
    const int rank = my_rank();
    std::vector<char> out(64 * 1024, 't');
    std::vector<char> in(out.size());
    if (rank == 0) {
      int got_value = -1;
      MPI_Request req;
      MPI_Irecv(&got_value, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &req);
      int flag = 0;
      while (flag == 0) MPI_Test(&req, &flag, MPI_STATUS_IGNORE);
      EXPECT_EQ(got_value, 41);
    } else if (rank == 1) {
      smpi_sleep(0.02);
      const int value = 41;
      MPI_Send(&value, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
    } else {
      const int peer = rank == 2 ? 3 : 2;
      for (int round = 0; round < 8; ++round) {
        MPI_Sendrecv(out.data(), static_cast<int>(out.size()), MPI_CHAR, peer, round,
                     in.data(), static_cast<int>(in.size()), MPI_CHAR, peer, round,
                     MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      }
    }
    MPI_Barrier(MPI_COMM_WORLD);
  });
  expect_golden(got, "0.021000100000000004", 54);
}

TEST(KernelGolden, Bcast1MiBOn64Ranks) {
  const Golden got = run_golden(64, [] {
    std::vector<char> buffer(1 << 20, 'b');
    MPI_Bcast(buffer.data(), static_cast<int>(buffer.size()), MPI_CHAR, 0, MPI_COMM_WORLD);
  });
  expect_golden(got, "0.050566483129139986", 384);
}

// Two ties at t = 2 ms between a sleep timer and a CPU-model completion,
// one per creation order: ranks 1 and 2 pair a timer created before the
// calendar entry, ranks 3 and 4 a calendar entry created before the timer.
// In each pair the entry that fires first wakes its rank first; that rank's
// message reaches the wildcard receive first and earns the large reply, so
// the makespan depends on the tie order.
TEST(KernelGolden, TimerAndCalendarTiesDecideMatchOrder) {
  const Golden got = run_golden(5, [] {
    const int rank = my_rank();
    std::vector<char> reply(1 << 20, 'm');
    if (rank == 0) {
      for (int pair = 0; pair < 2; ++pair) {
        int first = -1;
        for (int i = 0; i < 2; ++i) {
          MPI_Status status;
          int value = 0;
          MPI_Recv(&value, 1, MPI_INT, MPI_ANY_SOURCE, pair, MPI_COMM_WORLD, &status);
          if (i == 0) first = status.MPI_SOURCE;
        }
        EXPECT_EQ(first, 2 * pair + 1);
        for (int peer = 2 * pair + 1; peer <= 2 * pair + 2; ++peer) {
          const int count = peer == first ? static_cast<int>(reply.size()) : 0;
          MPI_Send(reply.data(), count, MPI_CHAR, peer, 10, MPI_COMM_WORLD);
        }
      }
      return;
    }
    if (rank == 1) {
      smpi_sleep(2e-3);  // armed while the ranks run at t = 0
    } else if (rank == 4) {
      smpi_sleep(1e-3);
      smpi_sleep(1e-3);  // armed at t = 1 ms
    } else {
      smpi_execute_flops(2e6);  // 2 ms at 1 Gflop/s, scheduled when t = 0 settles
    }
    MPI_Send(&rank, 1, MPI_INT, 0, (rank - 1) / 2, MPI_COMM_WORLD);
    MPI_Recv(reply.data(), static_cast<int>(reply.size()), MPI_CHAR, 0, 10, MPI_COMM_WORLD,
             MPI_STATUS_IGNORE);
    smpi_execute_flops(rank % 2 == 1 ? 1e6 : 2e7);
  });
  expect_golden(got, "0.044371679999999997", 20);
}

// Four ranks per two-core host, each starting its bursts at its own date:
// the host constraint saturates, every arrival and completion changes the
// running executions' rates mid-burst, and their completion entries move.
TEST(KernelGolden, ExecutionsOutnumberCoresWithStaggeredStarts) {
  smpi::platform::FlatClusterParams params;
  params.nodes = 2;
  params.cores = 2;
  params.speed_flops = 1e9;
  params.link_bandwidth_bps = 1e8;
  params.link_latency_s = 1e-4;
  const Golden got = run_golden_on(
      smpi::platform::build_flat_cluster(params), 8,
      [] {
        const int rank = my_rank();
        smpi_sleep(2.5e-4 * rank);
        smpi_execute_flops(1e6 * (1 + rank % 3));
        double value = rank;
        double sum = 0;
        MPI_Allreduce(&value, &sum, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
        smpi_execute_flops(5e5 * (1 + rank % 4));
        MPI_Barrier(MPI_COMM_WORLD);
      },
      fast_config());
  expect_golden(got, "0.0082333333333333356", 24);
}

// A host crash under the abort policy fails a running execution (rank 1)
// and an in-flight flow (rank 2 sending to rank 0) on node-1 at one date.
TEST(KernelGolden, HostCrashFailsExecutionAndFlowAtOnce) {
  sc::SmpiConfig config = fast_config();
  config.placement = {0, 1, 1};
  config.faults = smpi::sim::FaultSpec::parse_text(
      R"({"policy": "abort", "events": [{"kind": "host_crash", "time": 0.005, "host": "node-1"}]})");
  const Golden got = run_golden(
      3,
      [] {
        const int rank = my_rank();
        std::vector<char> buf(1 << 20, 'c');
        if (rank == 0) {
          smpi_sleep(1e-3);  // the rendezvous data flow starts at 1 ms
          MPI_Recv(buf.data(), static_cast<int>(buf.size()), MPI_CHAR, 2, 0, MPI_COMM_WORLD,
                   MPI_STATUS_IGNORE);
        } else if (rank == 1) {
          smpi_execute_flops(1e8);  // 0.1 s at 1 Gflop/s
        } else {
          MPI_Send(buf.data(), static_cast<int>(buf.size()), MPI_CHAR, 0, 0, MPI_COMM_WORLD);
        }
      },
      config);
  expect_golden(got, "0.0050000000000000001", 1);
  EXPECT_EQ(got.failure, "rank 1 (node 1): compute burst failed: host went down");
}
