// p2p hot-path overhaul tests: free-list pooling, zero-copy eager sends,
// and the equivalence guarantees both must uphold.
//
// The pools and the copy elision are pure host-side optimizations — every
// test here pins that down: simulated times must be bit-identical with the
// optimizations on or off, payloads must arrive intact under zero-copy
// (including the degrade-to-snapshot path), and the steady-state collective
// loop must perform literally zero heap allocations (counted by overriding
// global operator new for this test binary).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "smpi/coll.h"
#include "smpi_test_util.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (this binary only; each test file is its own
// executable). Counts every operator new; deletes are pass-through.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_alloc_count = 0;

void* counted_alloc(std::size_t size) {
  ++g_alloc_count;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace sc = smpi::core;
namespace tr = smpi::trace;
using namespace smpi_test;

sc::SmpiConfig arm_config(bool optimized) {
  sc::SmpiConfig config = fast_config();
  config.engine.pool_objects = optimized;
  config.zero_copy_eager = optimized;
  return config;
}

// ---------------------------------------------------------------------------
// Equivalence: pooling + zero-copy must not change simulated time at all.
// ---------------------------------------------------------------------------

TEST(P2pPool, BcastSimTimeBitIdenticalWithAndWithoutOptimizations) {
  auto platform = test_cluster(8);
  auto body = [] {
    std::vector<char> buffer(64 * 1024, 'b');
    for (int r = 0; r < 3; ++r) {
      smpi::coll::bcast_scatter_ring_allgather(buffer.data(),
                                               static_cast<int>(buffer.size()), MPI_CHAR, 0,
                                               MPI_COMM_WORLD);
    }
  };
  const double optimized = run_mpi_on(platform, 8, body, arm_config(true));
  const double reference = run_mpi_on(platform, 8, body, arm_config(false));
  EXPECT_EQ(optimized, reference);  // bit-identical, not "close"
  EXPECT_GT(optimized, 0);
}

TEST(P2pPool, AlltoallSimTimeBitIdenticalWithAndWithoutOptimizations) {
  auto platform = test_cluster(8);
  auto body = [] {
    const std::size_t block = 8 * 1024;
    std::vector<char> send(block * 8, 'y');
    std::vector<char> recv(block * 8);
    smpi::coll::alltoall_pairwise(send.data(), static_cast<int>(block), MPI_CHAR, recv.data(),
                                  static_cast<int>(block), MPI_CHAR, MPI_COMM_WORLD);
  };
  const double optimized = run_mpi_on(platform, 8, body, arm_config(true));
  const double reference = run_mpi_on(platform, 8, body, arm_config(false));
  EXPECT_EQ(optimized, reference);
  EXPECT_GT(optimized, 0);
}

// ---------------------------------------------------------------------------
// Payload correctness under zero-copy: every byte must land, including
// unaligned per-rank patterns an elided snapshot could smear.
// ---------------------------------------------------------------------------

TEST(P2pPool, AlltoallPayloadsArriveIntactUnderZeroCopy) {
  auto platform = test_cluster(8);
  static int failures;
  failures = 0;
  run_mpi_on(platform, 8, [] {
    const int size = world_size();
    const int rank = my_rank();
    const std::size_t block = 1024;
    std::vector<unsigned char> send(block * static_cast<std::size_t>(size));
    std::vector<unsigned char> recv(block * static_cast<std::size_t>(size), 0);
    for (int peer = 0; peer < size; ++peer) {
      for (std::size_t i = 0; i < block; ++i) {
        send[static_cast<std::size_t>(peer) * block + i] =
            static_cast<unsigned char>(rank * 31 + peer * 7 + static_cast<int>(i));
      }
    }
    smpi::coll::alltoall_pairwise(send.data(), static_cast<int>(block), MPI_CHAR, recv.data(),
                                  static_cast<int>(block), MPI_CHAR, MPI_COMM_WORLD);
    for (int peer = 0; peer < size; ++peer) {
      for (std::size_t i = 0; i < block; ++i) {
        const auto expected =
            static_cast<unsigned char>(peer * 31 + rank * 7 + static_cast<int>(i));
        if (recv[static_cast<std::size_t>(peer) * block + i] != expected) ++failures;
      }
    }
  }, arm_config(true));
  EXPECT_EQ(failures, 0);
}

// ---------------------------------------------------------------------------
// Degrade-to-snapshot: a receiver that enters the collective after the
// sender already left its stable scope must still get the original bytes —
// the scope exit snapshots every unmatched zero-copy envelope.
// ---------------------------------------------------------------------------

TEST(P2pPool, LateReceiverGetsFlushedSnapshotBytes) {
  auto platform = test_cluster(2);
  static int failures;
  failures = 0;
  sc::SmpiConfig config = arm_config(true);
  smpi::core::SmpiWorld world(platform, config);
  world.run(2, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    const int rank = my_rank();
    std::vector<char> buffer(4 * 1024);
    if (rank == 0) {
      // Root broadcasts (its eager sends complete inside the call), then
      // immediately overwrites the source buffer. Rank 1 has not posted its
      // recv yet — the scope-exit flush must have snapshotted the payload.
      std::fill(buffer.begin(), buffer.end(), 'A');
      smpi::coll::bcast_binomial(buffer.data(), static_cast<int>(buffer.size()), MPI_CHAR, 0,
                                 MPI_COMM_WORLD);
      std::fill(buffer.begin(), buffer.end(), 'X');  // would corrupt a live zc ref
      char token = 't';
      MPI_Send(&token, 1, MPI_CHAR, 1, 9, MPI_COMM_WORLD);
    } else {
      // Delay entry: wait for a token rank 0 sends only after its bcast
      // returned (and after it clobbered the source buffer).
      char token = 0;
      MPI_Recv(&token, 1, MPI_CHAR, 0, 9, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      smpi::coll::bcast_binomial(buffer.data(), static_cast<int>(buffer.size()), MPI_CHAR, 0,
                                 MPI_COMM_WORLD);
      for (char c : buffer) {
        if (c != 'A') ++failures;
      }
    }
    MPI_Finalize();
  });
  EXPECT_EQ(failures, 0);
  const auto counters = world.p2p_counters();
  EXPECT_GE(counters.eager_flush_snapshots, 1u);
}

// ---------------------------------------------------------------------------
// Counters: a steady collective loop must show elided copies and pool reuse.
// ---------------------------------------------------------------------------

TEST(P2pPool, CountersRecordElisionAndPoolReuse) {
  auto platform = test_cluster(8);
  smpi::core::SmpiWorld world(platform, arm_config(true));
  world.run(8, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    std::vector<char> buffer(64 * 1024, 'c');
    for (int r = 0; r < 4; ++r) {
      smpi::coll::bcast_scatter_ring_allgather(buffer.data(),
                                               static_cast<int>(buffer.size()), MPI_CHAR, 0,
                                               MPI_COMM_WORLD);
    }
    MPI_Finalize();
  });
  const auto counters = world.p2p_counters();
  EXPECT_GT(counters.eager_copy_elided, 0u);
  EXPECT_GT(counters.bytes_not_copied, 0u);
  EXPECT_GT(counters.pool_hits, 0u);
  // Recycling must dominate fresh allocations once warm.
  EXPECT_GT(counters.pool_hits, counters.pool_misses);
}

// ---------------------------------------------------------------------------
// The headline invariant: once warm, the collective hot path performs ZERO
// heap allocations — everything is recycled through the engine pools, the
// request free lists, the flow slot registry, and the indexed calendar.
// ---------------------------------------------------------------------------

TEST(P2pPool, SteadyStateCollectiveLoopAllocatesNothing) {
  auto platform = test_cluster(8);
  static std::uint64_t steady_allocs;
  steady_allocs = 0;
  run_mpi_on(platform, 8, [] {
    std::vector<char> buffer(32 * 1024, 's');
    auto bcast = [&buffer] {
      smpi::coll::bcast_scatter_ring_allgather(buffer.data(),
                                               static_cast<int>(buffer.size()), MPI_CHAR, 0,
                                               MPI_COMM_WORLD);
    };
    auto body = [&bcast] {
      for (int r = 0; r < 8; ++r) bcast();
      MPI_Barrier(MPI_COMM_WORLD);
    };
    // Warm pools, queues, heaps and slots with the measured body, twice: the
    // second pass runs the barrier-then-bcast transition the measurement
    // starts with, whose barrier timers overlap the next bcast's flows.
    body();
    body();
    const std::uint64_t before = g_alloc_count;
    body();
    if (my_rank() == 0) steady_allocs = g_alloc_count - before;
  }, arm_config(true));
  EXPECT_EQ(steady_allocs, 0u);
}

// ---------------------------------------------------------------------------
// Replay canary: capture a trace, replay it — the replayed simulated time
// must reproduce the capture run to 1e-9, pooled or not, and both replay
// arms must agree bit-exactly.
// ---------------------------------------------------------------------------

TEST(P2pPool, ReplayReproducesCaptureAcrossPoolingModes) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("smpi_p2p_pool_trace_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto platform = test_cluster(8);
  const sc::SmpiConfig config = arm_config(true);
  double captured = 0;
  {
    tr::TiWriter writer(dir.string(), 8, "p2p_pool");
    smpi::core::SmpiWorld world(platform, config, {&writer});
    world.run(8, [](int, char**) {
      MPI_Init(nullptr, nullptr);
      std::vector<char> buffer(64 * 1024, 'r');
      MPI_Bcast(buffer.data(), static_cast<int>(buffer.size()), MPI_CHAR, 0, MPI_COMM_WORLD);
      MPI_Barrier(MPI_COMM_WORLD);
      MPI_Finalize();
    });
    captured = world.simulated_time();
  }

  const auto pooled = tr::replay_trace(platform, arm_config(true), dir.string());
  const auto reference = tr::replay_trace(platform, arm_config(false), dir.string());
  EXPECT_NEAR(pooled.simulated_time, captured, 1e-9);
  EXPECT_EQ(pooled.simulated_time, reference.simulated_time);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
