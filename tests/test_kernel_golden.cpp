// Golden simulated times and timer counts for runs whose event streams mix
// engine timers with model calendar entries due at one date. The kernel
// fires everything due at a date in (date, creation) order; any change to
// that order, or to how many timers a run creates, moves these pins. The
// collective cases pin each algorithm's messages and results, and the last
// case pins every request-completion entry point under TI capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "smpi/coll.h"
#include "smpi_test_util.hpp"
#include "trace/writer.hpp"

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

// ---------------------------------------------------------------------------
// Collectives: every variant the MPI layer dispatches to, on 6 ranks (ring,
// linear and reduce+bcast paths) and 8 ranks (power-of-two paths). Each case
// pins the simulated time, the six p2p counters and a checksum over every
// rank's receive buffers, so a change to the messages an algorithm sends,
// to the zero-copy scopes around them or to the bytes it delivers moves it.
// ---------------------------------------------------------------------------

namespace {

// Per-rank FNV-1a over the bytes each rank received, folded in rank order.
std::vector<std::uint64_t> g_rank_sums;

void fold_received(const void* data, std::size_t bytes) {
  std::uint64_t& h = g_rank_sums[static_cast<std::size_t>(my_rank())];
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
}

template <class T>
void fold_received(const std::vector<T>& buffer) {
  fold_received(buffer.data(), buffer.size() * sizeof(T));
}

// "<simulated time> p2p=<the six P2pCounters in declaration order>
// sum=<receive-buffer checksum>" of one run of `body`.
std::string run_coll(int nprocs, const std::function<void()>& body,
                     const sc::SmpiConfig& config = fast_config()) {
  g_rank_sums.assign(static_cast<std::size_t>(nprocs), 14695981039346656037ull);
  const smpi::platform::Platform platform = smpi_test::test_cluster(nprocs);
  sc::SmpiWorld world(platform, config);
  world.run(nprocs, [&body](int, char**) {
    MPI_Init(nullptr, nullptr);
    body();
    MPI_Finalize();
  });
  std::uint64_t sum = 14695981039346656037ull;
  for (const std::uint64_t h : g_rank_sums) sum = (sum ^ h) * 1099511628211ull;
  const sc::P2pCounters& c = world.result().p2p;
  char text[128];
  std::snprintf(text, sizeof text, "%.17g p2p=%llu,%llu,%llu,%llu,%llu,%llu sum=%016llx",
                world.simulated_time(), static_cast<unsigned long long>(c.pool_hits),
                static_cast<unsigned long long>(c.pool_misses),
                static_cast<unsigned long long>(c.eager_snapshots),
                static_cast<unsigned long long>(c.eager_copy_elided),
                static_cast<unsigned long long>(c.eager_flush_snapshots),
                static_cast<unsigned long long>(c.bytes_not_copied),
                static_cast<unsigned long long>(sum));
  return text;
}

// A test's golden lines, matched in the order its cases run.
class Goldens {
 public:
  Goldens(std::initializer_list<const char*> lines) : lines_(lines.begin(), lines.end()) {}
  ~Goldens() { EXPECT_EQ(next_, lines_.size()) << "golden lines left unmatched"; }
  void expect(const std::string& got) {
    if (next_ == lines_.size()) {
      ADD_FAILURE() << "no golden line for: " << got;
      return;
    }
    EXPECT_EQ(got, lines_[next_++]);
  }

 private:
  std::vector<std::string> lines_;
  std::size_t next_ = 0;
};

sc::SmpiConfig forced(std::string sc::CollSelection::*field, const char* variant) {
  sc::SmpiConfig config = fast_config();
  config.coll.*field = variant;
  return config;
}

// Rank-distinct int payload: element i of rank r.
std::vector<int> payload(int count, int salt = 0) {
  std::vector<int> v(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    v[static_cast<std::size_t>(i)] = my_rank() * 100003 + i * 7 + salt;
  }
  return v;
}

// Non-commutative but associative: composition of affine maps x -> m x + c
// over (m, c) pairs, in unsigned arithmetic so overflow wraps.
void affine(void* in, void* inout, int* len, MPI_Datatype*) {
  auto* a = static_cast<unsigned*>(in);
  auto* b = static_cast<unsigned*>(inout);
  for (int i = 0; i + 1 < *len; i += 2) {
    const unsigned m = a[i] * b[i];
    const unsigned c = b[i] * a[i + 1] + b[i + 1];
    b[i] = m;
    b[i + 1] = c;
  }
}

// Runs `reduce(op)` with MPI_SUM or with the non-commutative affine op.
template <class F>
void with_op(bool commutative, F reduce) {
  MPI_Op op = MPI_SUM;
  if (!commutative) MPI_Op_create(&affine, 0, &op);
  reduce(op);
  if (!commutative) MPI_Op_free(&op);
}

// Variable per-rank counts and gapped displacements for the v-collectives.
int vcount(int r) { return 40 + 17 * r; }
std::vector<int> vdispls(int size, int gap) {
  std::vector<int> d(static_cast<std::size_t>(size));
  int at = 0;
  for (int r = 0; r < size; ++r) {
    d[static_cast<std::size_t>(r)] = at;
    at += vcount(r) + gap;
  }
  return d;
}
std::vector<int> vcounts(int size) {
  std::vector<int> c(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) c[static_cast<std::size_t>(r)] = vcount(r);
  return c;
}
int vextent(int size, int gap) { return vdispls(size, gap).back() + vcount(size - 1) + gap; }

void bcast_body(int count, int root) {
  std::vector<int> buffer = my_rank() == root ? payload(count) : std::vector<int>(count, -1);
  MPI_Bcast(buffer.data(), count, MPI_INT, root, MPI_COMM_WORLD);
  fold_received(buffer);
}

// A >= 512 KiB bcast of a strided type: the long-message algorithm packs
// into its scratch buffer instead of forwarding the user buffer.
void strided_bcast_body() {
  MPI_Datatype strided;
  MPI_Type_vector(2, 2, 3, MPI_INT, &strided);  // 16 bytes over a 20-byte extent
  MPI_Type_commit(&strided);
  const int count = 40000;  // 640000 packed bytes
  const int root = 2;
  std::vector<int> buffer =
      my_rank() == root ? payload(count * 5) : std::vector<int>(count * 5, -1);
  MPI_Bcast(buffer.data(), count, strided, root, MPI_COMM_WORLD);
  fold_received(buffer);
  MPI_Type_free(&strided);
}

void alltoall_body(int block) {
  const auto size = static_cast<std::size_t>(world_size());
  const std::vector<int> out = payload(block * static_cast<int>(size));
  std::vector<int> in(out.size(), -1);
  MPI_Alltoall(out.data(), block, MPI_INT, in.data(), block, MPI_INT, MPI_COMM_WORLD);
  fold_received(in);
}

void allreduce_body(int count, bool commutative, bool in_place) {
  with_op(commutative, [&](MPI_Op op) {
    const std::vector<int> mine = payload(count, 1);
    std::vector<int> result = in_place ? mine : std::vector<int>(mine.size(), -1);
    MPI_Allreduce(in_place ? MPI_IN_PLACE : mine.data(), result.data(), count, MPI_INT, op,
                  MPI_COMM_WORLD);
    fold_received(result);
  });
}

void allgather_body(int count, bool in_place) {
  const int size = world_size();
  const std::vector<int> mine = payload(count);
  std::vector<int> all(static_cast<std::size_t>(count * size), -1);
  if (in_place) {
    std::copy(mine.begin(), mine.end(), all.begin() + static_cast<long>(my_rank()) * count);
  }
  MPI_Allgather(in_place ? MPI_IN_PLACE : mine.data(), count, MPI_INT, all.data(), count, MPI_INT,
                MPI_COMM_WORLD);
  fold_received(all);
}

void scatter_body(bool linear) {
  const int count = 700;
  const int root = 2;
  const std::vector<int> all = payload(count * world_size());
  std::vector<int> mine(static_cast<std::size_t>(count), -1);
  if (linear) {
    smpi::coll::scatter_linear(all.data(), count, MPI_INT, mine.data(), count, MPI_INT, root,
                               MPI_COMM_WORLD);
  } else {
    MPI_Scatter(all.data(), count, MPI_INT, mine.data(), count, MPI_INT, root, MPI_COMM_WORLD);
  }
  fold_received(mine);
}

void gather_body(bool linear, bool in_place) {
  const int count = 700;
  const int root = 3;
  const bool root_in_place = in_place && my_rank() == root;
  const std::vector<int> mine = payload(count);
  std::vector<int> all(static_cast<std::size_t>(count * world_size()), -1);
  if (root_in_place) {
    std::copy(mine.begin(), mine.end(), all.begin() + static_cast<long>(root) * count);
  }
  const void* send = root_in_place ? MPI_IN_PLACE : mine.data();
  if (linear) {
    smpi::coll::gather_linear(send, count, MPI_INT, all.data(), count, MPI_INT, root,
                              MPI_COMM_WORLD);
  } else {
    MPI_Gather(send, count, MPI_INT, all.data(), count, MPI_INT, root, MPI_COMM_WORLD);
  }
  fold_received(all);
}

void reduce_body(bool commutative) {
  with_op(commutative, [](MPI_Op op) {
    const std::vector<int> mine = payload(2000, 3);
    std::vector<int> result(mine.size(), -1);
    MPI_Reduce(mine.data(), result.data(), 2000, MPI_INT, op, 4, MPI_COMM_WORLD);
    fold_received(result);
  });
}

void scan_body(bool commutative) {
  with_op(commutative, [](MPI_Op op) {
    const std::vector<int> mine = payload(2000, 5);
    std::vector<int> result(mine.size(), -1);
    MPI_Scan(mine.data(), result.data(), 2000, MPI_INT, op, MPI_COMM_WORLD);
    fold_received(result);
  });
}

void reduce_scatter_body(bool commutative) {
  with_op(commutative, [](MPI_Op op) {
    std::vector<int> counts = vcounts(world_size());
    for (int& c : counts) c += c % 2;  // whole affine pairs
    int total = 0;
    for (const int c : counts) total += c;
    const std::vector<int> mine = payload(total, 9);
    std::vector<int> result(static_cast<std::size_t>(counts[static_cast<std::size_t>(my_rank())]),
                            -1);
    MPI_Reduce_scatter(mine.data(), result.data(), counts.data(), MPI_INT, op, MPI_COMM_WORLD);
    fold_received(result);
  });
}

void scatterv_body() {
  const int size = world_size();
  const std::vector<int> counts = vcounts(size);
  const std::vector<int> displs = vdispls(size, 3);
  const std::vector<int> all = payload(vextent(size, 3));
  std::vector<int> mine(static_cast<std::size_t>(vcount(my_rank()) + 2), -1);
  MPI_Scatterv(all.data(), counts.data(), displs.data(), MPI_INT, mine.data(), vcount(my_rank()),
               MPI_INT, 1, MPI_COMM_WORLD);
  fold_received(mine);
}

void gatherv_body() {
  const int size = world_size();
  const std::vector<int> counts = vcounts(size);
  const std::vector<int> displs = vdispls(size, 5);
  const std::vector<int> mine = payload(vcount(my_rank()));
  std::vector<int> all(static_cast<std::size_t>(vextent(size, 5)), -1);
  MPI_Gatherv(mine.data(), vcount(my_rank()), MPI_INT, all.data(), counts.data(), displs.data(),
              MPI_INT, 4, MPI_COMM_WORLD);
  fold_received(all);
}

void allgatherv_body(bool in_place) {
  const int size = world_size();
  const int rank = my_rank();
  const std::vector<int> counts = vcounts(size);
  const std::vector<int> displs = vdispls(size, 2);
  const std::vector<int> mine = payload(vcount(rank));
  std::vector<int> all(static_cast<std::size_t>(vextent(size, 2)), -1);
  if (in_place) {
    std::copy(mine.begin(), mine.end(), all.begin() + displs[static_cast<std::size_t>(rank)]);
  }
  MPI_Allgatherv(in_place ? MPI_IN_PLACE : mine.data(), vcount(rank), MPI_INT, all.data(),
                 counts.data(), displs.data(), MPI_INT, MPI_COMM_WORLD);
  fold_received(all);
}

// Rank r sends (r + p + 1) * 11 ints to rank p, with gaps on both sides.
void alltoallv_body() {
  const auto size = static_cast<std::size_t>(world_size());
  const int rank = my_rank();
  std::vector<int> counts(size);
  std::vector<int> sdispls(size);
  std::vector<int> rdispls(size);
  int sat = 0;
  int rat = 0;
  for (std::size_t p = 0; p < size; ++p) {
    counts[p] = (rank + static_cast<int>(p) + 1) * 11;
    sdispls[p] = sat;
    rdispls[p] = rat;
    sat += counts[p] + 1;
    rat += counts[p] + 4;
  }
  const std::vector<int> out = payload(sat);
  std::vector<int> in(static_cast<std::size_t>(rat), -1);
  MPI_Alltoallv(out.data(), counts.data(), sdispls.data(), MPI_INT, in.data(), counts.data(),
                rdispls.data(), MPI_INT, MPI_COMM_WORLD);
  fold_received(in);
}

}  // namespace

TEST(KernelGolden, CollBcastVariants) {
  Goldens golden{
      "0.0036000000000000003 p2p=70,22,18,0,0,0 sum=a341fa5f4e69b8ef",
      "0.0036000000000000003 p2p=98,26,24,0,0,0 sum=f1a54e94125fdd3d",
      "0.003799810000000002 p2p=97,81,18,34,1,453332 sum=a341fa5f4e69b8ef",
      "0.0043000000000000009 p2p=145,141,24,62,1,620000 sum=f1a54e94125fdd3d",
      "0.0022006300000000007 p2p=147,138,24,63,0,221 sum=027cc607fa522ffd",
      "0.019199999999999995 p2p=70,22,18,0,0,0 sum=fdc2cdb12888df37",
      "0.012700000000000005 p2p=311,37,24,0,0,0 sum=aec58e1186b6c54d",
      "0.013400000000000006 p2p=311,37,24,0,0,0 sum=170326c7ba16fcaf"
  };
  const auto field = &sc::CollSelection::bcast;
  for (const char* variant : {"binomial", "scatter_ring_allgather"}) {
    SCOPED_TRACE(variant);
    golden.expect(run_coll(6, [] { bcast_body(20000, 1); }, forced(field, variant)));
    golden.expect(run_coll(8, [] { bcast_body(20000, 1); }, forced(field, variant)));
  }
  // Fewer elements than ranks: the long algorithm's zero-size blocks.
  golden.expect(run_coll(8, [] { bcast_body(7, 5); }, forced(field, "scatter_ring_allgather")));
  golden.expect(run_coll(6, [] { bcast_body(150000, 0); }));  // auto: binomial (< 8 ranks)
  golden.expect(run_coll(8, [] { bcast_body(150000, 0); }));  // auto: scatter + ring
  golden.expect(run_coll(8, strided_bcast_body));
}

TEST(KernelGolden, CollAlltoallVariants) {
  Goldens golden{
      "0.0012840000000000002 p2p=123,21,36,0,0,0 sum=eef329364248aebe",
      "0.0013440000000000001 p2p=161,31,48,0,0,0 sum=537f25f34a6edbbc",
      "0.00085999999999999998 p2p=69,93,18,30,0,36000 sum=eef329364248aebe",
      "0.00088400000000000002 p2p=91,173,24,56,0,67200 sum=537f25f34a6edbbc",
      "0.0016600000000000005 p2p=93,69,18,30,0,36000 sum=eef329364248aebe",
      "0.0020840000000000008 p2p=139,125,24,56,0,67200 sum=537f25f34a6edbbc",
      "0.0012153600000000002 p2p=161,31,48,0,0,0 sum=273575f275957025",
      "0.00085999999999999998 p2p=69,93,18,30,0,36000 sum=eef329364248aebe",
      "0.0047999999999999996 p2p=139,125,24,56,0,2240000 sum=9d965635fc298d50"
  };
  const auto field = &sc::CollSelection::alltoall;
  for (const char* variant : {"bruck", "basic", "pairwise"}) {
    SCOPED_TRACE(variant);
    golden.expect(run_coll(6, [] { alltoall_body(300); }, forced(field, variant)));
    golden.expect(run_coll(8, [] { alltoall_body(300); }, forced(field, variant)));
  }
  golden.expect(run_coll(8, [] { alltoall_body(32); }));     // auto: bruck
  golden.expect(run_coll(6, [] { alltoall_body(300); }));    // auto: basic
  golden.expect(run_coll(8, [] { alltoall_body(10000); }));  // auto: pairwise
}

TEST(KernelGolden, CollAllreduceVariants) {
  Goldens golden{
      "0.0015600000000000002 p2p=161,31,48,0,0,0 sum=675f4df6fe513d45",
      "0.0015600000000000002 p2p=161,31,48,0,0,0 sum=1227cedf229f0fa5",
      "0.0036103200000000015 p2p=307,125,24,112,0,168056 sum=11e88f14f5ec2a0d",
      "0.0036103200000000015 p2p=307,125,24,112,0,168056 sum=11e88f14f5ec2a0d",
      "0.0022400000000000002 p2p=84,23,23,5,0,60000 sum=f19467eb7d9cd707",
      "0.0028800000000000006 p2p=112,33,31,7,0,84000 sum=1227cedf229f0fa5",
      "0.0047999999999999987 p2p=307,125,24,112,0,1120000 sum=d66640f8dfa1f2fd",
      "0.0013200000000000002 p2p=161,31,48,0,0,0 sum=7d821e8a82fc43ad",
      "0.0016800000000000005 p2p=84,23,23,5,0,20000 sum=f00c0de00cf59cd7"
  };
  const auto field = &sc::CollSelection::allreduce;
  const sc::SmpiConfig doubling = forced(field, "recursive_doubling");
  const sc::SmpiConfig rabenseifner = forced(field, "rabenseifner");
  const sc::SmpiConfig reduce_bcast = forced(field, "reduce_bcast");
  golden.expect(run_coll(8, [] { allreduce_body(3000, true, false); }, doubling));
  golden.expect(run_coll(8, [] { allreduce_body(3000, false, false); }, doubling));
  golden.expect(run_coll(8, [] { allreduce_body(3001, true, false); }, rabenseifner));
  golden.expect(run_coll(8, [] { allreduce_body(3001, true, true); }, rabenseifner));
  golden.expect(run_coll(6, [] { allreduce_body(3000, true, false); }, reduce_bcast));
  golden.expect(run_coll(8, [] { allreduce_body(3000, false, false); }, reduce_bcast));
  golden.expect(run_coll(8, [] { allreduce_body(20000, true, false); }));  // auto: rabenseifner
  golden.expect(run_coll(8, [] { allreduce_body(1000, true, true); }));    // auto: doubling
  golden.expect(run_coll(6, [] { allreduce_body(1000, false, false); }));  // auto: reduce+bcast
}

TEST(KernelGolden, CollAllgatherVariants) {
  Goldens golden{
      "0.00134 p2p=107,61,24,24,0,112000 sum=1fb330172a4b56ad",
      "0.0017000000000000006 p2p=93,69,18,30,0,60000 sum=0c4d5ca9c9b528af",
      "0.0021400000000000008 p2p=139,125,24,56,0,112000 sum=1fb330172a4b56ad",
      "0.0017000000000000006 p2p=93,69,18,30,0,60000 sum=0c4d5ca9c9b528af",
      "0.00134 p2p=107,61,24,24,0,112000 sum=1fb330172a4b56ad"
  };
  const auto field = &sc::CollSelection::allgather;
  golden.expect(run_coll(8, [] { allgather_body(500, false); },
                         forced(field, "recursive_doubling")));
  golden.expect(run_coll(6, [] { allgather_body(500, false); }, forced(field, "ring")));
  golden.expect(run_coll(8, [] { allgather_body(500, false); }, forced(field, "ring")));
  golden.expect(run_coll(6, [] { allgather_body(500, true); }));  // auto: ring
  golden.expect(run_coll(8, [] { allgather_body(500, true); }));  // auto: recursive doubling
}

TEST(KernelGolden, CollRootedAndLinear) {
  Goldens golden{
      "0.001168 p2p=68,24,23,0,0,0 sum=35b3c3e800030bb4",
      "0.00114 p2p=64,28,23,0,0,0 sum=76a51e33cab99a2c",
      "0.00114 p2p=64,28,23,0,0,0 sum=76a51e33cab99a2c",
      "0.00093999999999999997 p2p=70,22,23,0,0,0 sum=35b3c3e800030bb4",
      "0.00093999999999999997 p2p=60,32,23,0,0,0 sum=76a51e33cab99a2c",
      "0.00093999999999999997 p2p=60,32,23,0,0,0 sum=76a51e33cab99a2c",
      "0.0015080000000000002 p2p=91,33,31,0,0,0 sum=d70d99957da533ed",
      "0.0013960000000000003 p2p=89,35,31,0,0,0 sum=6294cd7c315d33be",
      "0.0013960000000000003 p2p=89,35,31,0,0,0 sum=6294cd7c315d33be",
      "0.00099599999999999992 p2p=92,32,31,0,0,0 sum=d70d99957da533ed",
      "0.00099599999999999992 p2p=81,43,31,0,0,0 sum=6294cd7c315d33be",
      "0.00099599999999999992 p2p=81,43,31,0,0,0 sum=6294cd7c315d33be"
  };
  for (const int n : {6, 8}) {
    SCOPED_TRACE(n);
    for (const bool linear : {false, true}) {
      golden.expect(run_coll(n, [linear] { scatter_body(linear); }));
      golden.expect(run_coll(n, [linear] { gather_body(linear, false); }));
      golden.expect(run_coll(n, [linear] { gather_body(linear, true); }));
    }
  }
}

TEST(KernelGolden, CollReductions) {
  Goldens golden{
      "0.0012400000000000002 p2p=66,26,23,0,0,0 sum=21b0c67d9b9a2887",
      "0.0020000000000000005 p2p=67,25,23,0,0,0 sum=b6b4b30473b3690a",
      "0.0016196800000000003 p2p=93,69,18,30,0,9960 sum=1d273588d85c658a",
      "0.0012400000000000002 p2p=66,26,23,0,0,0 sum=0f3eb725da92f403",
      "0.0020000000000000005 p2p=67,25,23,0,0,0 sum=f8ab3ce7d993be15",
      "0.00127808 p2p=89,23,28,0,0,0 sum=7d488ccf70da7597",
      "0.0014400000000000003 p2p=92,32,31,0,0,0 sum=46f317c7714d90ce",
      "0.0025600000000000006 p2p=91,33,31,0,0,0 sum=ac75df7b856cc72c",
      "0.0020304000000000003 p2p=139,125,24,56,0,22400 sum=9cbd6543d83c6be5",
      "0.0014400000000000003 p2p=92,32,31,0,0,0 sum=af928a4a2f4303c3",
      "0.0025600000000000006 p2p=91,33,31,0,0,0 sum=19bd2e10a4de0f8c",
      "0.0015264000000000002 p2p=122,30,38,0,0,0 sum=c59e212950556e5f"
  };
  for (const int n : {6, 8}) {
    for (const bool commutative : {true, false}) {
      SCOPED_TRACE(std::to_string(n) + (commutative ? " commutative" : " non-commutative"));
      golden.expect(run_coll(n, [commutative] { reduce_body(commutative); }));
      golden.expect(run_coll(n, [commutative] { scan_body(commutative); }));
      golden.expect(run_coll(n, [commutative] { reduce_scatter_body(commutative); }));
    }
  }
}

TEST(KernelGolden, CollVectorVariants) {
  Goldens golden{
      "0.00081751999999999997 p2p=66,26,23,0,0,0 sum=0fce936a624629b1",
      "0.00081548000000000005 p2p=58,34,23,0,0,0 sum=f22723b7cb70e654",
      "0.0016250000000000004 p2p=170,22,48,0,0,0 sum=c64fa55360cff07d",
      "0.0016250000000000004 p2p=170,22,48,0,0,0 sum=c64fa55360cff07d",
      "0.00081760000000000003 p2p=107,85,48,0,0,0 sum=de55e29a7a3e23ca",
      "0.00082956000000000002 p2p=89,35,31,0,0,0 sum=68293e8650802e15",
      "0.00082751999999999999 p2p=80,44,31,0,0,0 sum=73d6240c3173cd3b",
      "0.0020445200000000002 p2p=288,32,80,0,0,0 sum=9d40f259b9c7ce5d",
      "0.0020445200000000002 p2p=288,32,80,0,0,0 sum=9d40f259b9c7ce5d",
      "0.00083387999999999995 p2p=163,157,80,0,0,0 sum=b2260b2ce70201bf"
  };
  for (const int n : {6, 8}) {
    SCOPED_TRACE(n);
    golden.expect(run_coll(n, scatterv_body));
    golden.expect(run_coll(n, gatherv_body));
    golden.expect(run_coll(n, [] { allgatherv_body(false); }));
    golden.expect(run_coll(n, [] { allgatherv_body(true); }));
    golden.expect(run_coll(n, alltoallv_body));
  }
}

// ---------------------------------------------------------------------------
// Request completion: every Wait/Test/Probe entry point, persistent requests
// and a freed in-flight request on 4 ranks with a TI writer attached. The
// case pins the simulated time, each rank's blocked time (rank_comm_s), the
// six p2p counters and a hash of each rank's captured records, so a change
// to when a request completes, what a wait charges or what it records
// moves it.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// "<simulated time> comm=<rank_comm_s per rank> p2p=<the six P2pCounters>
// ti=<FNV-1a of each rank's TI file>" of one captured run of `body`.
std::string run_captured(int nprocs, const std::function<void()>& body) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("smpi_kernel_golden_ti_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  std::ostringstream out;
  {
    smpi::trace::TiWriter writer(dir.string(), nprocs, "golden");
    const smpi::platform::Platform platform = smpi_test::test_cluster(nprocs);
    sc::SmpiWorld world(platform, fast_config(), {&writer});
    world.run(nprocs, [&body](int, char**) {
      MPI_Init(nullptr, nullptr);
      body();
      MPI_Finalize();
    });
    writer.finish();
    char text[64];
    std::snprintf(text, sizeof text, "%.17g comm=", world.simulated_time());
    out << text;
    for (const double s : world.result().rank_comm_s) {
      std::snprintf(text, sizeof text, "%.17g,", s);
      out << text;
    }
    const sc::P2pCounters& c = world.result().p2p;
    out << " p2p=" << c.pool_hits << ',' << c.pool_misses << ',' << c.eager_snapshots << ','
        << c.eager_copy_elided << ',' << c.eager_flush_snapshots << ',' << c.bytes_not_copied
        << " ti=";
  }
  for (int r = 0; r < nprocs; ++r) {
    std::ifstream in(dir / ("rank_" + std::to_string(r) + ".ti"), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    char text[32];
    std::snprintf(text, sizeof text, "%016llx,",
                  static_cast<unsigned long long>(fnv1a(bytes.str())));
    out << text;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return out.str();
}

void request_family_body() {
  const int rank = my_rank();
  const int size = world_size();
  const int right = (rank + 1) % size;
  const int left = (rank + size - 1) % size;
  constexpr int kBig = 128 * 1024;  // past the 64 KiB eager threshold
  std::vector<char> big_out(kBig, static_cast<char>('a' + rank));
  std::vector<char> big_in(kBig);
  const int mine = rank;
  int got = -1;

  // MPI_Waitany over an eager and a rendezvous receive, MPI_Waitall over
  // the sends, MPI_Wait on each side.
  MPI_Request recvs[2];
  MPI_Request sends[2];
  MPI_Irecv(&got, 1, MPI_INT, left, 1, MPI_COMM_WORLD, &recvs[0]);
  MPI_Irecv(big_in.data(), kBig, MPI_CHAR, left, 2, MPI_COMM_WORLD, &recvs[1]);
  MPI_Isend(big_out.data(), kBig, MPI_CHAR, right, 2, MPI_COMM_WORLD, &sends[0]);
  smpi_sleep(1e-4 * rank);
  MPI_Isend(&mine, 1, MPI_INT, right, 1, MPI_COMM_WORLD, &sends[1]);
  for (int k = 0; k < 2; ++k) {
    int index = -1;
    MPI_Waitany(2, recvs, &index, MPI_STATUS_IGNORE);
  }
  EXPECT_EQ(got, left);
  MPI_Waitall(2, sends, MPI_STATUSES_IGNORE);
  MPI_Request one;
  MPI_Isend(&mine, 1, MPI_INT, right, 3, MPI_COMM_WORLD, &one);
  MPI_Wait(&one, MPI_STATUS_IGNORE);
  MPI_Irecv(&got, 1, MPI_INT, left, 3, MPI_COMM_WORLD, &one);
  MPI_Wait(&one, MPI_STATUS_IGNORE);

  // MPI_Waitsome over one receive from every other rank, sent at staggered
  // dates, until no request is left pending.
  std::vector<int> from(static_cast<std::size_t>(size), -1);
  std::vector<MPI_Request> some;
  for (int peer = 0; peer < size; ++peer) {
    if (peer == rank) continue;
    some.emplace_back();
    MPI_Irecv(&from[static_cast<std::size_t>(peer)], 1, MPI_INT, peer, 4, MPI_COMM_WORLD,
              &some.back());
  }
  smpi_sleep(2e-4 * rank);
  for (int peer = 0; peer < size; ++peer) {
    if (peer != rank) MPI_Send(&mine, 1, MPI_INT, peer, 4, MPI_COMM_WORLD);
  }
  int outcount = 0;
  int indices[4];
  do {
    MPI_Waitsome(static_cast<int>(some.size()), some.data(), &outcount, indices,
                 MPI_STATUSES_IGNORE);
  } while (outcount != MPI_UNDEFINED);

  // MPI_Test polled past escalation (rank 0), MPI_Testany (rank 2) and
  // MPI_Testall, first incomplete, then complete (rank 1).
  if (rank == 0) {
    MPI_Request r;
    MPI_Irecv(&got, 1, MPI_INT, 1, 5, MPI_COMM_WORLD, &r);
    int flag = 0;
    while (flag == 0) MPI_Test(&r, &flag, MPI_STATUS_IGNORE);
    smpi_sleep(1e-3);
    MPI_Send(&mine, 1, MPI_INT, 1, 8, MPI_COMM_WORLD);
    smpi_sleep(1e-3);
    MPI_Send(&mine, 1, MPI_INT, 1, 9, MPI_COMM_WORLD);
  } else if (rank == 1) {
    smpi_sleep(3e-3);
    MPI_Send(&mine, 1, MPI_INT, 0, 5, MPI_COMM_WORLD);
    int pair[2] = {-1, -1};
    MPI_Request r[2];
    MPI_Irecv(&pair[0], 1, MPI_INT, 0, 8, MPI_COMM_WORLD, &r[0]);
    MPI_Irecv(&pair[1], 1, MPI_INT, 0, 9, MPI_COMM_WORLD, &r[1]);
    int flag = -1;
    MPI_Testall(2, r, &flag, MPI_STATUSES_IGNORE);
    EXPECT_EQ(flag, 0);
    while (flag == 0) MPI_Testall(2, r, &flag, MPI_STATUSES_IGNORE);
    EXPECT_EQ(pair[1], 0);
  } else if (rank == 2) {
    int pair[2] = {-1, -1};
    MPI_Request r[2];
    MPI_Irecv(&pair[0], 1, MPI_INT, 3, 6, MPI_COMM_WORLD, &r[0]);
    MPI_Irecv(&pair[1], 1, MPI_INT, 3, 7, MPI_COMM_WORLD, &r[1]);
    for (int done = 0; done < 2;) {
      int index = -1;
      int flag = 0;
      MPI_Testany(2, r, &index, &flag, MPI_STATUS_IGNORE);
      if (flag != 0 && index != MPI_UNDEFINED) ++done;
    }
    EXPECT_EQ(pair[1], 3);
  } else {
    smpi_sleep(1e-3);
    MPI_Send(&mine, 1, MPI_INT, 2, 6, MPI_COMM_WORLD);
    smpi_sleep(1e-3);
    MPI_Send(&mine, 1, MPI_INT, 2, 7, MPI_COMM_WORLD);
  }

  // An MPI_Iprobe loop (rank 3) and a wildcard MPI_Probe of a rendezvous
  // message (rank 2).
  MPI_Status status;
  if (rank == 0) {
    smpi_sleep(2e-3);
    MPI_Send(&mine, 1, MPI_INT, 3, 10, MPI_COMM_WORLD);
  } else if (rank == 1) {
    smpi_sleep(1e-3);
    MPI_Send(big_out.data(), kBig, MPI_CHAR, 2, 11, MPI_COMM_WORLD);
  } else if (rank == 2) {
    MPI_Probe(MPI_ANY_SOURCE, 11, MPI_COMM_WORLD, &status);
    EXPECT_EQ(status.MPI_SOURCE, 1);
    MPI_Recv(big_in.data(), kBig, MPI_CHAR, status.MPI_SOURCE, 11, MPI_COMM_WORLD,
             MPI_STATUS_IGNORE);
  } else {
    int flag = 0;
    while (flag == 0) MPI_Iprobe(0, 10, MPI_COMM_WORLD, &flag, &status);
    MPI_Recv(&got, 1, MPI_INT, 0, 10, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
  }

  // Persistent requests around the ring: two MPI_Startall rounds, then one
  // MPI_Start of each, then freed.
  MPI_Request persist[2];
  MPI_Recv_init(&got, 1, MPI_INT, left, 12, MPI_COMM_WORLD, &persist[0]);
  MPI_Send_init(&mine, 1, MPI_INT, right, 12, MPI_COMM_WORLD, &persist[1]);
  for (int round = 0; round < 2; ++round) {
    MPI_Startall(2, persist);
    MPI_Waitall(2, persist, MPI_STATUSES_IGNORE);
  }
  MPI_Start(&persist[0]);
  MPI_Start(&persist[1]);
  MPI_Wait(&persist[1], MPI_STATUS_IGNORE);
  MPI_Wait(&persist[0], MPI_STATUS_IGNORE);
  MPI_Request_free(&persist[0]);
  MPI_Request_free(&persist[1]);

  // MPI_Request_free of a rendezvous send still in flight.
  if (rank == 0) {
    MPI_Request r;
    MPI_Isend(big_out.data(), kBig, MPI_CHAR, 1, 13, MPI_COMM_WORLD, &r);
    MPI_Request_free(&r);
  } else if (rank == 1) {
    smpi_sleep(1e-3);
    MPI_Recv(big_in.data(), kBig, MPI_CHAR, 0, 13, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    EXPECT_EQ(big_in[0], 'a');
  }
  MPI_Barrier(MPI_COMM_WORLD);
}

}  // namespace

TEST(KernelGolden, RequestFamilyUnderCapture) {
  EXPECT_EQ(run_captured(4, request_family_body),
            "0.014332680000000004"
            " comm=0.0067325800000000019,0.0064324800000000026,0.011532580000000002,"
            "0.0060325800000000018,"
            " p2p=324,35,54,0,0,0"
            " ti=fcb0c2d882f482f0,1ad8ecd5d27a58be,42fe4f83cc174589,3dcde644fa5485c3,");
}
