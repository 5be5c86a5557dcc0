// Collective correctness, parameterized over process counts (including
// non-powers-of-two and 1) and over roots. Every test validates the data;
// timing behaviour is covered by the figure benches and the timing tests.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "smpi/coll.h"
#include "smpi_test_util.hpp"

using namespace smpi_test;

class CollSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollSweep, BarrierSynchronizesEveryone) {
  const int P = GetParam();
  run_mpi(P, [] {
    const int rank = my_rank();
    // Stagger arrivals; after the barrier everyone must be past the latest.
    smpi_sleep(0.01 * rank);
    MPI_Barrier(MPI_COMM_WORLD);
    EXPECT_GE(MPI_Wtime(), 0.01 * (world_size() - 1));
  });
}

TEST_P(CollSweep, BcastFromEveryRoot) {
  const int P = GetParam();
  run_mpi(P, [] {
    const int rank = my_rank();
    const int size = world_size();
    for (int root = 0; root < size; ++root) {
      std::vector<int> data(37, rank == root ? root * 1000 : -1);
      ASSERT_EQ(MPI_Bcast(data.data(), 37, MPI_INT, root, MPI_COMM_WORLD), MPI_SUCCESS);
      for (int v : data) ASSERT_EQ(v, root * 1000);
    }
  });
}

TEST_P(CollSweep, ScatterDistributesBlocks) {
  const int P = GetParam();
  run_mpi(P, [] {
    const int rank = my_rank();
    const int size = world_size();
    for (int root = 0; root < size; ++root) {
      std::vector<double> sendbuf;
      if (rank == root) {
        sendbuf.resize(static_cast<std::size_t>(size) * 5);
        for (int r = 0; r < size; ++r) {
          for (int k = 0; k < 5; ++k) sendbuf[static_cast<std::size_t>(r * 5 + k)] = r + 0.5 * k;
        }
      }
      std::vector<double> recvbuf(5, -1);
      ASSERT_EQ(MPI_Scatter(sendbuf.data(), 5, MPI_DOUBLE, recvbuf.data(), 5, MPI_DOUBLE, root,
                            MPI_COMM_WORLD),
                MPI_SUCCESS);
      for (int k = 0; k < 5; ++k) ASSERT_DOUBLE_EQ(recvbuf[static_cast<std::size_t>(k)], rank + 0.5 * k);
    }
  });
}

TEST_P(CollSweep, GatherCollectsBlocksInRankOrder) {
  const int P = GetParam();
  run_mpi(P, [] {
    const int rank = my_rank();
    const int size = world_size();
    for (int root = 0; root < size; ++root) {
      std::vector<int> mine(3, rank * 7);
      std::vector<int> all;
      if (rank == root) all.assign(static_cast<std::size_t>(size) * 3, -1);
      ASSERT_EQ(MPI_Gather(mine.data(), 3, MPI_INT, all.data(), 3, MPI_INT, root,
                           MPI_COMM_WORLD),
                MPI_SUCCESS);
      if (rank == root) {
        for (int r = 0; r < size; ++r) {
          for (int k = 0; k < 3; ++k) ASSERT_EQ(all[static_cast<std::size_t>(r * 3 + k)], r * 7);
        }
      }
    }
  });
}

TEST_P(CollSweep, AllgatherEveryoneHasEverything) {
  const int P = GetParam();
  run_mpi(P, [] {
    const int rank = my_rank();
    const int size = world_size();
    std::vector<long long> mine(2, rank + 100);
    std::vector<long long> all(static_cast<std::size_t>(size) * 2, -1);
    ASSERT_EQ(MPI_Allgather(mine.data(), 2, MPI_LONG_LONG, all.data(), 2, MPI_LONG_LONG,
                            MPI_COMM_WORLD),
              MPI_SUCCESS);
    for (int r = 0; r < size; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(2 * r)], r + 100);
      ASSERT_EQ(all[static_cast<std::size_t>(2 * r + 1)], r + 100);
    }
  });
}

TEST_P(CollSweep, ReduceSumAtEveryRoot) {
  const int P = GetParam();
  run_mpi(P, [] {
    const int rank = my_rank();
    const int size = world_size();
    for (int root = 0; root < size; ++root) {
      std::vector<int> contribution(11);
      for (int k = 0; k < 11; ++k) contribution[static_cast<std::size_t>(k)] = rank + k;
      std::vector<int> result(11, -1);
      ASSERT_EQ(MPI_Reduce(contribution.data(), result.data(), 11, MPI_INT, MPI_SUM, root,
                           MPI_COMM_WORLD),
                MPI_SUCCESS);
      if (rank == root) {
        const int rank_sum = size * (size - 1) / 2;
        for (int k = 0; k < 11; ++k) ASSERT_EQ(result[static_cast<std::size_t>(k)], rank_sum + size * k);
      }
    }
  });
}

TEST_P(CollSweep, AllreduceMatchesReducePlusBcast) {
  const int P = GetParam();
  run_mpi(P, [] {
    const int rank = my_rank();
    const int size = world_size();
    double mine = rank + 1.0;
    double max_val = -1, sum_val = -1, min_val = -1;
    ASSERT_EQ(MPI_Allreduce(&mine, &max_val, 1, MPI_DOUBLE, MPI_MAX, MPI_COMM_WORLD),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Allreduce(&mine, &sum_val, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD),
              MPI_SUCCESS);
    ASSERT_EQ(MPI_Allreduce(&mine, &min_val, 1, MPI_DOUBLE, MPI_MIN, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_DOUBLE_EQ(max_val, size);
    EXPECT_DOUBLE_EQ(min_val, 1.0);
    EXPECT_DOUBLE_EQ(sum_val, size * (size + 1) / 2.0);
  });
}

TEST_P(CollSweep, ScanComputesPrefix) {
  const int P = GetParam();
  run_mpi(P, [] {
    const int rank = my_rank();
    int mine = rank + 1;
    int prefix = -1;
    ASSERT_EQ(MPI_Scan(&mine, &prefix, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
    EXPECT_EQ(prefix, (rank + 1) * (rank + 2) / 2);
  });
}

TEST_P(CollSweep, ReduceScatterSplitsReduction) {
  const int P = GetParam();
  run_mpi(P, [] {
    const int rank = my_rank();
    const int size = world_size();
    std::vector<int> counts(static_cast<std::size_t>(size), 2);
    std::vector<int> input(static_cast<std::size_t>(size) * 2);
    for (int i = 0; i < size * 2; ++i) input[static_cast<std::size_t>(i)] = rank + i;
    std::vector<int> out(2, -1);
    ASSERT_EQ(MPI_Reduce_scatter(input.data(), out.data(), counts.data(), MPI_INT, MPI_SUM,
                                 MPI_COMM_WORLD),
              MPI_SUCCESS);
    // Element j of block r: sum over ranks q of (q + 2r + j).
    const int rank_sum = size * (size - 1) / 2;
    EXPECT_EQ(out[0], rank_sum + size * (2 * rank));
    EXPECT_EQ(out[1], rank_sum + size * (2 * rank + 1));
  });
}

TEST_P(CollSweep, AlltoallTransposesBlocks) {
  const int P = GetParam();
  run_mpi(P, [] {
    const int rank = my_rank();
    const int size = world_size();
    std::vector<int> send(static_cast<std::size_t>(size) * 2);
    for (int r = 0; r < size; ++r) {
      send[static_cast<std::size_t>(2 * r)] = rank * 100 + r;
      send[static_cast<std::size_t>(2 * r + 1)] = rank * 100 + r + 50;
    }
    std::vector<int> recv(static_cast<std::size_t>(size) * 2, -1);
    ASSERT_EQ(MPI_Alltoall(send.data(), 2, MPI_INT, recv.data(), 2, MPI_INT, MPI_COMM_WORLD),
              MPI_SUCCESS);
    for (int r = 0; r < size; ++r) {
      ASSERT_EQ(recv[static_cast<std::size_t>(2 * r)], r * 100 + rank);
      ASSERT_EQ(recv[static_cast<std::size_t>(2 * r + 1)], r * 100 + rank + 50);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(ProcessCounts, CollSweep, ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16, 17));

// ---------------------------------------------------------------------------
// Variant-specific and v-collective tests.
// ---------------------------------------------------------------------------

TEST(SmpiColl, PairwiseAlltoallMatchesBasic) {
  for (const int P : {4, 6, 8}) {
    run_mpi(P, [] {
      const int rank = my_rank();
      const int size = world_size();
      std::vector<int> send(static_cast<std::size_t>(size));
      for (int r = 0; r < size; ++r) send[static_cast<std::size_t>(r)] = rank * 10 + r;
      std::vector<int> via_pairwise(static_cast<std::size_t>(size), -1);
      std::vector<int> via_basic(static_cast<std::size_t>(size), -2);
      ASSERT_EQ(smpi::coll::alltoall_pairwise(send.data(), 1, MPI_INT, via_pairwise.data(), 1,
                                              MPI_INT, MPI_COMM_WORLD),
                MPI_SUCCESS);
      ASSERT_EQ(smpi::coll::alltoall_basic(send.data(), 1, MPI_INT, via_basic.data(), 1, MPI_INT,
                                           MPI_COMM_WORLD),
                MPI_SUCCESS);
      EXPECT_EQ(via_pairwise, via_basic);
      for (int r = 0; r < size; ++r) ASSERT_EQ(via_pairwise[static_cast<std::size_t>(r)], r * 10 + rank);
    });
  }
}

TEST(SmpiColl, ScatterBinomialMatchesLinear) {
  run_mpi(6, [] {
    const int rank = my_rank();
    const int size = world_size();
    std::vector<int> sendbuf;
    if (rank == 2) {
      sendbuf.resize(static_cast<std::size_t>(size) * 4);
      std::iota(sendbuf.begin(), sendbuf.end(), 0);
    }
    std::vector<int> a(4, -1), b(4, -1);
    ASSERT_EQ(smpi::coll::scatter_binomial(sendbuf.data(), 4, MPI_INT, a.data(), 4, MPI_INT, 2,
                                           MPI_COMM_WORLD),
              MPI_SUCCESS);
    ASSERT_EQ(smpi::coll::scatter_linear(sendbuf.data(), 4, MPI_INT, b.data(), 4, MPI_INT, 2,
                                         MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(a, b);
    for (int k = 0; k < 4; ++k) ASSERT_EQ(a[static_cast<std::size_t>(k)], rank * 4 + k);
  });
}

TEST(SmpiColl, GatherBinomialMatchesLinear) {
  run_mpi(6, [] {
    const int rank = my_rank();
    const int size = world_size();
    std::vector<int> mine(3, rank + 1);
    std::vector<int> a, b;
    if (rank == 1) {
      a.assign(static_cast<std::size_t>(size) * 3, -1);
      b.assign(static_cast<std::size_t>(size) * 3, -2);
    }
    ASSERT_EQ(smpi::coll::gather_binomial(mine.data(), 3, MPI_INT, a.data(), 3, MPI_INT, 1,
                                          MPI_COMM_WORLD),
              MPI_SUCCESS);
    ASSERT_EQ(smpi::coll::gather_linear(mine.data(), 3, MPI_INT, b.data(), 3, MPI_INT, 1,
                                        MPI_COMM_WORLD),
              MPI_SUCCESS);
    if (rank == 1) {
      EXPECT_EQ(a, b);
    }
  });
}

TEST(SmpiColl, AllgatherRingMatchesRecursiveDoubling) {
  run_mpi(8, [] {
    const int rank = my_rank();
    const int size = world_size();
    std::vector<int> mine(2, rank);
    std::vector<int> a(static_cast<std::size_t>(size) * 2, -1);
    std::vector<int> b(static_cast<std::size_t>(size) * 2, -2);
    ASSERT_EQ(smpi::coll::allgather_ring(mine.data(), 2, MPI_INT, a.data(), 2, MPI_INT,
                                         MPI_COMM_WORLD),
              MPI_SUCCESS);
    ASSERT_EQ(smpi::coll::allgather_recursive_doubling(mine.data(), 2, MPI_INT, b.data(), 2,
                                                       MPI_INT, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(a, b);
  });
}

TEST(SmpiColl, GathervScattervWithUnevenBlocks) {
  run_mpi(4, [] {
    const int rank = my_rank();
    const int size = world_size();
    // Rank r contributes r+1 ints.
    std::vector<int> counts, displs;
    int total = 0;
    for (int r = 0; r < size; ++r) {
      counts.push_back(r + 1);
      displs.push_back(total);
      total += r + 1;
    }
    std::vector<int> mine(static_cast<std::size_t>(rank) + 1, rank);
    std::vector<int> all;
    if (rank == 0) all.assign(static_cast<std::size_t>(total), -1);
    ASSERT_EQ(MPI_Gatherv(mine.data(), rank + 1, MPI_INT, all.data(), counts.data(),
                          displs.data(), MPI_INT, 0, MPI_COMM_WORLD),
              MPI_SUCCESS);
    if (rank == 0) {
      for (int r = 0; r < size; ++r) {
        for (int k = 0; k < counts[static_cast<std::size_t>(r)]; ++k) {
          ASSERT_EQ(all[static_cast<std::size_t>(displs[static_cast<std::size_t>(r)] + k)], r);
        }
      }
    }
    // Scatter the gathered data back.
    std::vector<int> back(static_cast<std::size_t>(rank) + 1, -1);
    ASSERT_EQ(MPI_Scatterv(all.data(), counts.data(), displs.data(), MPI_INT, back.data(),
                           rank + 1, MPI_INT, 0, MPI_COMM_WORLD),
              MPI_SUCCESS);
    for (int v : back) ASSERT_EQ(v, rank);
  });
}

TEST(SmpiColl, AllgathervUnevenBlocks) {
  run_mpi(5, [] {
    const int rank = my_rank();
    const int size = world_size();
    std::vector<int> counts, displs;
    int total = 0;
    for (int r = 0; r < size; ++r) {
      counts.push_back(2 * r + 1);
      displs.push_back(total);
      total += 2 * r + 1;
    }
    std::vector<int> mine(static_cast<std::size_t>(counts[static_cast<std::size_t>(rank)]),
                          rank * 3);
    std::vector<int> all(static_cast<std::size_t>(total), -1);
    ASSERT_EQ(MPI_Allgatherv(mine.data(), counts[static_cast<std::size_t>(rank)], MPI_INT,
                             all.data(), counts.data(), displs.data(), MPI_INT, MPI_COMM_WORLD),
              MPI_SUCCESS);
    for (int r = 0; r < size; ++r) {
      for (int k = 0; k < counts[static_cast<std::size_t>(r)]; ++k) {
        ASSERT_EQ(all[static_cast<std::size_t>(displs[static_cast<std::size_t>(r)] + k)], r * 3);
      }
    }
  });
}

TEST(SmpiColl, AlltoallvUnevenBlocks) {
  run_mpi(4, [] {
    const int rank = my_rank();
    const int size = world_size();
    // Rank r sends (q+1) ints of value r*10+q to each rank q.
    std::vector<int> scounts, sdispls, rcounts, rdispls;
    int stotal = 0, rtotal = 0;
    for (int q = 0; q < size; ++q) {
      scounts.push_back(q + 1);
      sdispls.push_back(stotal);
      stotal += q + 1;
      rcounts.push_back(rank + 1);
      rdispls.push_back(rtotal);
      rtotal += rank + 1;
    }
    std::vector<int> send(static_cast<std::size_t>(stotal));
    for (int q = 0; q < size; ++q) {
      for (int k = 0; k < q + 1; ++k) {
        send[static_cast<std::size_t>(sdispls[static_cast<std::size_t>(q)] + k)] = rank * 10 + q;
      }
    }
    std::vector<int> recv(static_cast<std::size_t>(rtotal), -1);
    ASSERT_EQ(MPI_Alltoallv(send.data(), scounts.data(), sdispls.data(), MPI_INT, recv.data(),
                            rcounts.data(), rdispls.data(), MPI_INT, MPI_COMM_WORLD),
              MPI_SUCCESS);
    for (int q = 0; q < size; ++q) {
      for (int k = 0; k < rank + 1; ++k) {
        ASSERT_EQ(recv[static_cast<std::size_t>(rdispls[static_cast<std::size_t>(q)] + k)],
                  q * 10 + rank);
      }
    }
  });
}

TEST(SmpiColl, UserDefinedOpAndInPlace) {
  run_mpi(4, [] {
    const int rank = my_rank();
    MPI_Op myop;
    // "Take the lower-rank operand": associative but NOT commutative, so the
    // result discriminates correct (lowest rank wins) from swapped ordering
    // (highest rank wins).
    ASSERT_EQ(MPI_Op_create(
                  [](void* in, void* inout, int* len, MPI_Datatype*) {
                    auto* a = static_cast<int*>(in);
                    auto* b = static_cast<int*>(inout);
                    for (int i = 0; i < *len; ++i) b[i] = a[i];
                  },
                  0, &myop),
              MPI_SUCCESS);
    int value = rank + 1;  // contributions 1,2,3,4
    int result = -999;
    ASSERT_EQ(MPI_Reduce(&value, &result, 1, MPI_INT, myop, 0, MPI_COMM_WORLD), MPI_SUCCESS);
    if (rank == 0) {
      EXPECT_EQ(result, 1);  // rank 0's contribution
    }
    MPI_Op_free(&myop);

    // MPI_IN_PLACE Allreduce.
    int inplace = rank + 1;
    ASSERT_EQ(MPI_Allreduce(MPI_IN_PLACE, &inplace, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(inplace, 10);
  });
}

TEST(SmpiColl, BitwiseOpsOnIntegers) {
  run_mpi(3, [] {
    const int rank = my_rank();
    unsigned value = 1u << rank;
    unsigned ored = 0;
    ASSERT_EQ(MPI_Allreduce(&value, &ored, 1, MPI_UNSIGNED, MPI_BOR, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(ored, 0b111u);
    double dvalue = 1.0;
    double dout = 0;
    EXPECT_EQ(MPI_Allreduce(&dvalue, &dout, 1, MPI_DOUBLE, MPI_BAND, MPI_COMM_WORLD),
              MPI_ERR_OP);
  });
}

TEST(SmpiColl, CollectiveArgValidation) {
  run_mpi(2, [] {
    int v = 0;
    EXPECT_EQ(MPI_Bcast(&v, 1, MPI_INT, 5, MPI_COMM_WORLD), MPI_ERR_ROOT);
    EXPECT_EQ(MPI_Bcast(&v, -1, MPI_INT, 0, MPI_COMM_WORLD), MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Barrier(MPI_COMM_NULL), MPI_ERR_COMM);
    EXPECT_EQ(MPI_Reduce(&v, &v, 1, MPI_INT, MPI_OP_NULL, 0, MPI_COMM_WORLD), MPI_ERR_OP);

    // The v-collectives reject what their fixed-size twins reject.
    int out[4] = {0, 0, 0, 0};
    const int counts[2] = {1, 1};
    const int bad_counts[2] = {1, -1};
    const int displs[2] = {0, 1};
    EXPECT_EQ(MPI_Allgatherv(&v, 1, MPI_INT, out, counts, displs, MPI_DATATYPE_NULL,
                             MPI_COMM_WORLD),
              MPI_ERR_TYPE);
    EXPECT_EQ(MPI_Allgatherv(&v, 1, MPI_DATATYPE_NULL, out, counts, displs, MPI_INT,
                             MPI_COMM_WORLD),
              MPI_ERR_TYPE);
    EXPECT_EQ(MPI_Allgatherv(&v, 1, MPI_INT, out, bad_counts, displs, MPI_INT, MPI_COMM_WORLD),
              MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Allgather(&v, 1, MPI_DATATYPE_NULL, out, 1, MPI_INT, MPI_COMM_WORLD),
              MPI_ERR_TYPE);
    EXPECT_EQ(MPI_Alltoallv(MPI_IN_PLACE, counts, displs, MPI_INT, out, counts, displs, MPI_INT,
                            MPI_COMM_WORLD),
              MPI_ERR_ARG);
    EXPECT_EQ(MPI_Alltoallv(out, counts, displs, MPI_DATATYPE_NULL, out + 2, counts, displs,
                            MPI_INT, MPI_COMM_WORLD),
              MPI_ERR_TYPE);
    EXPECT_EQ(MPI_Alltoallv(out, bad_counts, displs, MPI_INT, out + 2, counts, displs, MPI_INT,
                            MPI_COMM_WORLD),
              MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Alltoall(out, 1, MPI_DATATYPE_NULL, out + 2, 1, MPI_INT, MPI_COMM_WORLD),
              MPI_ERR_TYPE);
    EXPECT_EQ(MPI_Gatherv(&v, 1, MPI_DATATYPE_NULL, out, counts, displs, MPI_INT, 0,
                          MPI_COMM_WORLD),
              MPI_ERR_TYPE);
    EXPECT_EQ(MPI_Scatterv(out, counts, displs, MPI_INT, &v, -1, MPI_INT, 0, MPI_COMM_WORLD),
              MPI_ERR_COUNT);
  });
  // MPI_IN_PLACE is valid at the root only. A non-root passing it gets
  // MPI_ERR_ARG before anything is sent, so the root never joins the call.
  run_mpi(4, [] {
    if (my_rank() != 2) return;
    int out[4] = {0, 0, 0, 0};
    const int counts[4] = {1, 1, 1, 1};
    const int displs[4] = {0, 1, 2, 3};
    EXPECT_EQ(MPI_Gather(MPI_IN_PLACE, 1, MPI_INT, out, 1, MPI_INT, 0, MPI_COMM_WORLD),
              MPI_ERR_ARG);
    EXPECT_EQ(MPI_Gatherv(MPI_IN_PLACE, 1, MPI_INT, out, counts, displs, MPI_INT, 0,
                          MPI_COMM_WORLD),
              MPI_ERR_ARG);
    EXPECT_EQ(MPI_Scatter(out, 1, MPI_INT, MPI_IN_PLACE, 1, MPI_INT, 0, MPI_COMM_WORLD),
              MPI_ERR_ARG);
    EXPECT_EQ(MPI_Scatterv(out, counts, displs, MPI_INT, MPI_IN_PLACE, 1, MPI_INT, 0,
                           MPI_COMM_WORLD),
              MPI_ERR_ARG);
  });
  // Root-only arguments, checked where only the root reads them.
  run_mpi(1, [] {
    int v = 0;
    int out[2] = {0, 0};
    const int counts[1] = {1};
    const int bad_counts[1] = {-1};
    const int displs[1] = {0};
    EXPECT_EQ(MPI_Gatherv(&v, 1, MPI_INT, out, counts, displs, MPI_DATATYPE_NULL, 0,
                          MPI_COMM_WORLD),
              MPI_ERR_TYPE);
    EXPECT_EQ(MPI_Gatherv(&v, 1, MPI_INT, out, bad_counts, displs, MPI_INT, 0, MPI_COMM_WORLD),
              MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Scatterv(out, counts, displs, MPI_DATATYPE_NULL, &v, 1, MPI_INT, 0,
                           MPI_COMM_WORLD),
              MPI_ERR_TYPE);
    EXPECT_EQ(MPI_Scatterv(out, bad_counts, displs, MPI_INT, &v, 1, MPI_INT, 0, MPI_COMM_WORLD),
              MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Scatterv(out, nullptr, displs, MPI_INT, &v, 1, MPI_INT, 0, MPI_COMM_WORLD),
              MPI_ERR_ARG);
  });
}

// The send side of MPI_Scatter is significant at the root only: non-roots
// passing a zero count and a null type still receive their blocks.
TEST(SmpiColl, ScatterIgnoresNonRootSendArguments) {
  for (const int n : {4, 6}) {
    SCOPED_TRACE(n);
    run_mpi(n, [] {
      const int rank = my_rank();
      const int root = 1;
      std::vector<int> all(8 * static_cast<std::size_t>(world_size()));
      std::iota(all.begin(), all.end(), 0);
      std::vector<int> mine(8, -1);
      ASSERT_EQ(MPI_Scatter(rank == root ? all.data() : nullptr, rank == root ? 8 : 0,
                            rank == root ? MPI_INT : MPI_DATATYPE_NULL, mine.data(), 8, MPI_INT,
                            root, MPI_COMM_WORLD),
                MPI_SUCCESS);
      for (int i = 0; i < 8; ++i) EXPECT_EQ(mine[static_cast<std::size_t>(i)], 8 * rank + i);
    });
  }
}

// A rank's own block moves min(send bytes, receive bytes): with one int sent
// into two-int slots, the second int of every slot keeps its prior value
// instead of bytes read past the sender's buffer. Runs the ring (3 ranks),
// recursive doubling (4), the linear gather, the basic alltoall and Bruck's.
TEST(SmpiColl, OwnBlockCopyStopsAtTheSentBytes) {
  for (const int n : {3, 4}) {
    SCOPED_TRACE(n);
    run_mpi(n, [] {
      const int rank = my_rank();
      const int size = world_size();
      const int mine = 100 + rank;
      std::vector<int> all(2 * static_cast<std::size_t>(size), -1);
      ASSERT_EQ(MPI_Allgather(&mine, 1, MPI_INT, all.data(), 2, MPI_INT, MPI_COMM_WORLD),
                MPI_SUCCESS);
      for (int r = 0; r < size; ++r) {
        EXPECT_EQ(all[2 * static_cast<std::size_t>(r)], 100 + r);
        EXPECT_EQ(all[2 * static_cast<std::size_t>(r) + 1], -1) << "slot " << r;
      }

      std::vector<int> counts(static_cast<std::size_t>(size), 2);
      std::vector<int> displs(static_cast<std::size_t>(size));
      for (int r = 0; r < size; ++r) displs[static_cast<std::size_t>(r)] = 2 * r;
      std::vector<int> gathered(all.size(), -1);
      ASSERT_EQ(MPI_Gatherv(&mine, 1, MPI_INT, gathered.data(), counts.data(), displs.data(),
                            MPI_INT, 0, MPI_COMM_WORLD),
                MPI_SUCCESS);
      if (rank == 0) EXPECT_EQ(gathered[1], -1);

      std::vector<int> ones(static_cast<std::size_t>(size), 1);
      std::vector<int> next(static_cast<std::size_t>(size));
      std::iota(next.begin(), next.end(), 0);
      std::vector<int> to_each(static_cast<std::size_t>(size), mine);
      std::vector<int> from_each(all.size(), -1);
      ASSERT_EQ(MPI_Alltoallv(to_each.data(), ones.data(), next.data(), MPI_INT,
                              from_each.data(), counts.data(), displs.data(), MPI_INT,
                              MPI_COMM_WORLD),
                MPI_SUCCESS);
      EXPECT_EQ(from_each[2 * static_cast<std::size_t>(rank)], mine);
      EXPECT_EQ(from_each[2 * static_cast<std::size_t>(rank) + 1], -1);
    });
  }
  // Bruck's alltoall stages packed blocks of the sent size: it unpacks no
  // more than that into each receive block either.
  smpi::core::SmpiConfig bruck = fast_config();
  bruck.coll.alltoall = "bruck";
  run_mpi(
      4,
      [] {
        const std::vector<int> out(4, 100 + my_rank());
        std::vector<int> in(8, -1);
        ASSERT_EQ(MPI_Alltoall(out.data(), 1, MPI_INT, in.data(), 2, MPI_INT, MPI_COMM_WORLD),
                  MPI_SUCCESS);
        for (int r = 0; r < 4; ++r) {
          EXPECT_EQ(in[2 * static_cast<std::size_t>(r)], 100 + r);
          EXPECT_EQ(in[2 * static_cast<std::size_t>(r) + 1], -1) << "slot " << r;
        }
      },
      bruck);
}

// ---------------------------------------------------------------------------
// Scan / Reduce_scatter edge cases: zero counts, a single rank, and
// non-commutative operator ordering (the MPI-mandated low-rank-first fold).
// ---------------------------------------------------------------------------

namespace {

// Affine-function composition over (m, c) int pairs: a ∘-then-∘ b maps
// x -> b.m * (a.m * x + a.c) + b.c. Associative (function composition) but
// NOT commutative, so it discriminates the MPI-mandated rank-ascending fold
// from any reordering while staying legal for tree-shaped reductions.
void affine_compose(void* in, void* inout, int* len, MPI_Datatype*) {
  auto* a = static_cast<int*>(in);     // lower-rank operand, applied first
  auto* b = static_cast<int*>(inout);  // higher-rank operand and result
  for (int i = 0; i + 1 < *len; i += 2) {
    const int m = a[i] * b[i];
    const int c = b[i] * a[i + 1] + b[i + 1];
    b[i] = m;
    b[i + 1] = c;
  }
}

void affine_compose_ref(const int a[2], int b_and_result[2]) {
  int len = 2;
  affine_compose(const_cast<int*>(a), b_and_result, &len, nullptr);
}

}  // namespace

TEST(SmpiColl, ScanZeroCountCompletesOnEveryRank) {
  run_mpi(5, [] {
    int dummy = 7;
    int out = 7;
    ASSERT_EQ(MPI_Scan(&dummy, &out, 0, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
    EXPECT_EQ(out, 7);  // zero elements: output untouched
  });
}

TEST(SmpiColl, ScanSingleRankIsIdentity) {
  run_mpi(1, [] {
    const int mine = 41;
    int prefix = -1;
    ASSERT_EQ(MPI_Scan(&mine, &prefix, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD), MPI_SUCCESS);
    EXPECT_EQ(prefix, 41);
  });
}

TEST(SmpiColl, ScanNonCommutativeFoldsInRankOrder) {
  constexpr int kRanks = 6;
  run_mpi(kRanks, [] {
    const int rank = my_rank();
    MPI_Op op;
    ASSERT_EQ(MPI_Op_create(&affine_compose, 0, &op), MPI_SUCCESS);
    // Rank q contributes the affine map x -> 2x + (q + 1).
    int contribution[2] = {2, rank + 1};
    int prefix[2] = {-1, -1};
    ASSERT_EQ(MPI_Scan(contribution, prefix, 2, MPI_INT, op, MPI_COMM_WORLD), MPI_SUCCESS);
    // Reference: strict left fold over ranks 0..rank (lower rank applied
    // first, i.e. it is the `in` operand of every step).
    int expected[2] = {2, 1};
    for (int q = 1; q <= rank; ++q) {
      int step[2] = {2, q + 1};
      affine_compose_ref(expected, step);
      expected[0] = step[0];
      expected[1] = step[1];
    }
    EXPECT_EQ(prefix[0], expected[0]);
    EXPECT_EQ(prefix[1], expected[1]);
    MPI_Op_free(&op);
  });
}

TEST(SmpiColl, ReduceScatterAllZeroCountsCompletes) {
  run_mpi(4, [] {
    const int size = world_size();
    std::vector<int> counts(static_cast<std::size_t>(size), 0);
    int dummy = 3;
    int out = 3;
    ASSERT_EQ(MPI_Reduce_scatter(&dummy, &out, counts.data(), MPI_INT, MPI_SUM, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(out, 3);
  });
}

TEST(SmpiColl, ReduceScatterSingleRankReducesOwnBlock) {
  run_mpi(1, [] {
    const int counts[1] = {3};
    const int input[3] = {4, 5, 6};
    int out[3] = {-1, -1, -1};
    ASSERT_EQ(MPI_Reduce_scatter(input, out, counts, MPI_INT, MPI_SUM, MPI_COMM_WORLD),
              MPI_SUCCESS);
    EXPECT_EQ(out[0], 4);
    EXPECT_EQ(out[1], 5);
    EXPECT_EQ(out[2], 6);
  });
}

TEST(SmpiColl, ReduceScatterMixedZeroAndNonZeroCounts) {
  run_mpi(4, [] {
    const int rank = my_rank();
    const int size = world_size();
    // Ranks 0 and 2 receive two elements, ranks 1 and 3 receive none.
    std::vector<int> counts(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) counts[static_cast<std::size_t>(r)] = (r % 2 == 0) ? 2 : 0;
    std::vector<int> input(4);
    for (int i = 0; i < 4; ++i) input[static_cast<std::size_t>(i)] = rank * 100 + i;
    std::vector<int> out(2, -7);
    ASSERT_EQ(MPI_Reduce_scatter(input.data(), out.data(), counts.data(), MPI_INT, MPI_SUM,
                                 MPI_COMM_WORLD),
              MPI_SUCCESS);
    const int rank_sum = 100 * (size * (size - 1) / 2);
    if (rank % 2 == 0) {
      const int offset = rank == 0 ? 0 : 2;  // rank 2's block starts after rank 0's
      EXPECT_EQ(out[0], rank_sum + size * offset);
      EXPECT_EQ(out[1], rank_sum + size * (offset + 1));
    } else {
      EXPECT_EQ(out[0], -7);  // zero-count ranks receive nothing
    }
  });
}

TEST(SmpiColl, ReduceScatterNonCommutativeFoldsInRankOrder) {
  constexpr int kRanks = 5;
  run_mpi(kRanks, [] {
    const int rank = my_rank();
    const int size = world_size();
    MPI_Op op;
    ASSERT_EQ(MPI_Op_create(&affine_compose, 0, &op), MPI_SUCCESS);
    // One affine pair per destination rank; rank q's contribution for block
    // j is x -> 2x + (10q + j). Non-commutative ops take the
    // reduce-to-root + scatterv fallback, which must still fold rank-first.
    std::vector<int> counts(static_cast<std::size_t>(size), 2);
    std::vector<int> input(static_cast<std::size_t>(size) * 2);
    for (int j = 0; j < size; ++j) {
      input[static_cast<std::size_t>(2 * j)] = 2;
      input[static_cast<std::size_t>(2 * j + 1)] = 10 * rank + j;
    }
    int out[2] = {-1, -1};
    ASSERT_EQ(MPI_Reduce_scatter(input.data(), out, counts.data(), MPI_INT, op, MPI_COMM_WORLD),
              MPI_SUCCESS);
    int expected[2] = {2, rank};  // rank 0's contribution for block `rank`
    for (int q = 1; q < size; ++q) {
      int step[2] = {2, 10 * q + rank};
      affine_compose_ref(expected, step);
      expected[0] = step[0];
      expected[1] = step[1];
    }
    EXPECT_EQ(out[0], expected[0]);
    EXPECT_EQ(out[1], expected[1]);
    MPI_Op_free(&op);
  });
}

TEST(SmpiColl, ContentionMakesAlltoallSlowerThanNoContention) {
  // The qualitative claim behind Figures 7/11: a model without contention
  // underestimates collective completion times. Contention arises on shared
  // links — here the inter-cabinet uplink crossed by several concurrent
  // pairwise exchanges at every step.
  auto measure = [](bool contention) {
    auto config = fast_config();
    config.network.contention = contention;
    auto platform = two_cabinet_cluster(4);
    return run_mpi_on(
        platform, 8,
        [] {
          const int size = world_size();
          std::vector<char> send(static_cast<std::size_t>(size) * 512 * 1024, 'x');
          std::vector<char> recv(static_cast<std::size_t>(size) * 512 * 1024);
          smpi::coll::alltoall_pairwise(send.data(), 512 * 1024, MPI_CHAR, recv.data(),
                                        512 * 1024, MPI_CHAR, MPI_COMM_WORLD);
        },
        config);
  };
  const double with_contention = measure(true);
  const double without = measure(false);
  EXPECT_GT(with_contention, without * 1.2);
}
