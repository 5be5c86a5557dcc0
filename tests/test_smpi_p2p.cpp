#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "smpi_test_util.hpp"

using namespace smpi_test;

TEST(SmpiP2P, BlockingSendRecvMovesData) {
  run_mpi(2, [] {
    const int rank = my_rank();
    if (rank == 0) {
      std::vector<int> data(100);
      std::iota(data.begin(), data.end(), 7);
      ASSERT_EQ(MPI_Send(data.data(), 100, MPI_INT, 1, 42, MPI_COMM_WORLD), MPI_SUCCESS);
    } else if (rank == 1) {
      std::vector<int> data(100, -1);
      MPI_Status status;
      ASSERT_EQ(MPI_Recv(data.data(), 100, MPI_INT, 0, 42, MPI_COMM_WORLD, &status), MPI_SUCCESS);
      EXPECT_EQ(status.MPI_SOURCE, 0);
      EXPECT_EQ(status.MPI_TAG, 42);
      for (int i = 0; i < 100; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], 7 + i);
      int count = -1;
      MPI_Get_count(&status, MPI_INT, &count);
      EXPECT_EQ(count, 100);
    }
  });
}

TEST(SmpiP2P, TransferTakesSimulatedTime) {
  const double t = run_mpi(2, [] {
    if (my_rank() == 0) {
      std::vector<char> buf(1000000);
      MPI_Send(buf.data(), 1000000, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
    } else if (my_rank() == 1) {
      std::vector<char> buf(1000000);
      MPI_Recv(buf.data(), 1000000, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
  });
  // 1e6 bytes at 1e8 B/s + 2e-4 latency = ~10.2ms (plus finalize barrier).
  EXPECT_GT(t, 0.0100);
  EXPECT_LT(t, 0.0115);
}

TEST(SmpiP2P, AnySourceAnyTag) {
  run_mpi(3, [] {
    const int rank = my_rank();
    if (rank == 0) {
      int got = -1;
      MPI_Status status;
      MPI_Recv(&got, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, &status);
      EXPECT_TRUE(status.MPI_SOURCE == 1 || status.MPI_SOURCE == 2);
      EXPECT_EQ(status.MPI_TAG, status.MPI_SOURCE * 10);
      EXPECT_EQ(got, status.MPI_SOURCE * 100);
      MPI_Recv(&got, 1, MPI_INT, MPI_ANY_SOURCE, MPI_ANY_TAG, MPI_COMM_WORLD, &status);
    } else {
      const int value = rank * 100;
      MPI_Send(&value, 1, MPI_INT, 0, rank * 10, MPI_COMM_WORLD);
    }
  });
}

TEST(SmpiP2P, NonOvertakingSameSourceSameTag) {
  run_mpi(2, [] {
    if (my_rank() == 0) {
      for (int i = 0; i < 5; ++i) MPI_Send(&i, 1, MPI_INT, 1, 9, MPI_COMM_WORLD);
    } else if (my_rank() == 1) {
      for (int i = 0; i < 5; ++i) {
        int got = -1;
        MPI_Recv(&got, 1, MPI_INT, 0, 9, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        EXPECT_EQ(got, i);
      }
    }
  });
}

TEST(SmpiP2P, TagsSelectMessages) {
  run_mpi(2, [] {
    if (my_rank() == 0) {
      const int a = 1, b = 2;
      MPI_Send(&a, 1, MPI_INT, 1, 100, MPI_COMM_WORLD);
      MPI_Send(&b, 1, MPI_INT, 1, 200, MPI_COMM_WORLD);
    } else if (my_rank() == 1) {
      int got = -1;
      // Receive the tag-200 message first even though it was sent second.
      MPI_Recv(&got, 1, MPI_INT, 0, 200, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(got, 2);
      MPI_Recv(&got, 1, MPI_INT, 0, 100, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(got, 1);
    }
  });
}

TEST(SmpiP2P, EagerSendCompletesWithoutReceiver) {
  // Below the eager threshold MPI_Send is buffered: it must return even
  // though the receive is posted much later.
  run_mpi(2, [] {
    if (my_rank() == 0) {
      std::vector<char> buf(1024);
      const double before = MPI_Wtime();
      MPI_Send(buf.data(), 1024, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
      EXPECT_LT(MPI_Wtime() - before, 1e-3);  // returned promptly
    } else if (my_rank() == 1) {
      smpi_sleep(0.5);  // make the sender wait if it were synchronous
      std::vector<char> buf(1024);
      MPI_Recv(buf.data(), 1024, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
  });
}

TEST(SmpiP2P, RendezvousSendBlocksUntilReceiverArrives) {
  run_mpi(2, [] {
    if (my_rank() == 0) {
      std::vector<char> buf(256 * 1024);  // above the 64 KiB threshold
      const double before = MPI_Wtime();
      MPI_Send(buf.data(), static_cast<int>(buf.size()), MPI_CHAR, 1, 0, MPI_COMM_WORLD);
      EXPECT_GT(MPI_Wtime() - before, 0.5);  // waited for the receiver
    } else if (my_rank() == 1) {
      smpi_sleep(0.5);
      std::vector<char> buf(256 * 1024);
      MPI_Recv(buf.data(), static_cast<int>(buf.size()), MPI_CHAR, 0, 0, MPI_COMM_WORLD,
               MPI_STATUS_IGNORE);
    }
  });
}

TEST(SmpiP2P, IsendIrecvWaitall) {
  run_mpi(2, [] {
    const int rank = my_rank();
    std::vector<int> send(64, rank);
    std::vector<int> recv(64, -1);
    MPI_Request reqs[2];
    MPI_Irecv(recv.data(), 64, MPI_INT, 1 - rank, 5, MPI_COMM_WORLD, &reqs[0]);
    MPI_Isend(send.data(), 64, MPI_INT, 1 - rank, 5, MPI_COMM_WORLD, &reqs[1]);
    ASSERT_EQ(MPI_Waitall(2, reqs, MPI_STATUSES_IGNORE), MPI_SUCCESS);
    EXPECT_EQ(reqs[0], MPI_REQUEST_NULL);
    EXPECT_EQ(reqs[1], MPI_REQUEST_NULL);
    for (int v : recv) EXPECT_EQ(v, 1 - rank);
  });
}

TEST(SmpiP2P, WaitanyReturnsFirstCompleted) {
  run_mpi(3, [] {
    const int rank = my_rank();
    if (rank == 0) {
      int a = -1, b = -1;
      MPI_Request reqs[2];
      MPI_Irecv(&a, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &reqs[0]);
      MPI_Irecv(&b, 1, MPI_INT, 2, 0, MPI_COMM_WORLD, &reqs[1]);
      int index = -1;
      MPI_Status status;
      MPI_Waitany(2, reqs, &index, &status);
      // Rank 2 sends immediately; rank 1 sleeps first.
      EXPECT_EQ(index, 1);
      EXPECT_EQ(b, 222);
      EXPECT_EQ(reqs[1], MPI_REQUEST_NULL);
      MPI_Waitany(2, reqs, &index, &status);
      EXPECT_EQ(index, 0);
      EXPECT_EQ(a, 111);
    } else if (rank == 1) {
      smpi_sleep(0.2);
      const int v = 111;
      MPI_Send(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
    } else {
      const int v = 222;
      MPI_Send(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
    }
  });
}

TEST(SmpiP2P, WaitsomeCollectsCompleted) {
  run_mpi(3, [] {
    const int rank = my_rank();
    if (rank == 0) {
      int vals[2] = {-1, -1};
      MPI_Request reqs[2];
      MPI_Irecv(&vals[0], 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &reqs[0]);
      MPI_Irecv(&vals[1], 1, MPI_INT, 2, 0, MPI_COMM_WORLD, &reqs[1]);
      int outcount = 0;
      int indices[2];
      MPI_Waitsome(2, reqs, &outcount, indices, MPI_STATUSES_IGNORE);
      EXPECT_GE(outcount, 1);
      int total = outcount;
      while (total < 2) {
        MPI_Waitsome(2, reqs, &outcount, indices, MPI_STATUSES_IGNORE);
        if (outcount == MPI_UNDEFINED) break;
        total += outcount;
      }
      EXPECT_EQ(vals[0], 111);
      EXPECT_EQ(vals[1], 222);
    } else {
      if (rank == 1) smpi_sleep(0.1);
      const int v = rank == 1 ? 111 : 222;
      MPI_Send(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
    }
  });
}

// Every returned index gets its status, the one that ended the block too.
TEST(SmpiP2P, WaitsomeFillsEveryStatus) {
  run_mpi(4, [] {
    const int rank = my_rank();
    if (rank == 0) {
      int vals[3] = {-1, -1, -1};
      MPI_Request reqs[3];
      for (int peer = 1; peer <= 3; ++peer) {
        MPI_Irecv(&vals[peer - 1], 1, MPI_INT, peer, 10 + peer, MPI_COMM_WORLD, &reqs[peer - 1]);
      }
      smpi_sleep(0.01);  // ranks 2 and 3 have arrived, rank 1 has not
      int total = 0;
      for (int call = 0; call < 2; ++call) {
        int outcount = 0;
        int indices[3];
        MPI_Status statuses[3];
        std::memset(statuses, 0x5a, sizeof statuses);
        EXPECT_EQ(MPI_Waitsome(3, reqs, &outcount, indices, statuses), MPI_SUCCESS);
        EXPECT_EQ(outcount, call == 0 ? 2 : 1);
        for (int k = 0; k < outcount; ++k) {
          const int peer = indices[k] + 1;
          EXPECT_EQ(statuses[k].MPI_SOURCE, peer) << "call " << call << " slot " << k;
          EXPECT_EQ(statuses[k].MPI_TAG, 10 + peer) << "call " << call << " slot " << k;
          EXPECT_EQ(statuses[k].MPI_ERROR, MPI_SUCCESS);
          EXPECT_EQ(vals[indices[k]], 100 * peer);
        }
        total += outcount;
      }
      EXPECT_EQ(total, 3);
    } else {
      if (rank == 1) smpi_sleep(0.05);
      const int v = 100 * rank;
      MPI_Send(&v, 1, MPI_INT, 0, 10 + rank, MPI_COMM_WORLD);
    }
  });
}

TEST(SmpiP2P, TestPollsWithoutBlocking) {
  run_mpi(2, [] {
    if (my_rank() == 0) {
      int got = -1;
      MPI_Request req;
      MPI_Irecv(&got, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &req);
      int flag = 0;
      int polls = 0;
      while (flag == 0) {
        MPI_Test(&req, &flag, MPI_STATUS_IGNORE);
        ++polls;
        ASSERT_LT(polls, 10000000) << "Test never completed";
      }
      EXPECT_GT(polls, 1);  // message needed simulated time to arrive
      EXPECT_EQ(got, 33);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
    } else if (my_rank() == 1) {
      smpi_sleep(0.001);
      const int v = 33;
      MPI_Send(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
    }
  });
}

TEST(SmpiP2P, TightTestLoopSubscribesInsteadOfBurningTimers) {
  // A tight MPI_Test polling loop across a long wait used to create one
  // timer per 1e-7 s poll (500k for the 0.05 s wait below). The
  // completion-subscription path blocks on the request's state with a
  // backed-off fallback timer, so the timer count stays sub-linear while
  // the observable result (completion, payload, quantized timing) matches.
  run_mpi(2, [] {
    if (my_rank() == 0) {
      int got = -1;
      MPI_Request req;
      MPI_Irecv(&got, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &req);
      int flag = 0;
      long polls = 0;
      while (flag == 0) {
        MPI_Test(&req, &flag, MPI_STATUS_IGNORE);
        ++polls;
        ASSERT_LT(polls, 1000000) << "Test never completed";
      }
      auto& engine = smpi::core::SmpiWorld::instance()->engine();
      EXPECT_EQ(got, 77);
      EXPECT_GE(engine.now(), 0.05);          // the wait really happened
      EXPECT_LT(polls, 2000);                 // not one return per 1e-7 s
      EXPECT_LT(engine.timers_created(), 5000u);  // ... and not one timer either
    } else {
      smpi_sleep(0.05);
      const int v = 77;
      MPI_Send(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
    }
  });
}

TEST(SmpiP2P, TightIprobeLoopSubscribesToArrivals) {
  run_mpi(2, [] {
    if (my_rank() == 0) {
      int flag = 0;
      long polls = 0;
      MPI_Status status;
      while (flag == 0) {
        MPI_Iprobe(1, 5, MPI_COMM_WORLD, &flag, &status);
        ++polls;
        ASSERT_LT(polls, 1000000) << "Iprobe never saw the message";
      }
      EXPECT_EQ(status.MPI_SOURCE, 1);
      EXPECT_EQ(status.MPI_TAG, 5);
      int got = -1;
      MPI_Recv(&got, 1, MPI_INT, 1, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(got, 41);
      EXPECT_LT(polls, 2000);
    } else {
      smpi_sleep(0.02);
      const int v = 41;
      MPI_Send(&v, 1, MPI_INT, 0, 5, MPI_COMM_WORLD);
    }
  });
}

TEST(SmpiP2P, InterleavedTestsKeepPayingPerPollSleeps) {
  // A Test with real work between polls is *not* a tight loop: it must not
  // block until completion — time advances by the work plus one poll each
  // round, exactly as before.
  run_mpi(2, [] {
    if (my_rank() == 0) {
      auto& engine = smpi::core::SmpiWorld::instance()->engine();
      int got = -1;
      MPI_Request req;
      MPI_Irecv(&got, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &req);
      int flag = 0;
      int rounds = 0;
      while (flag == 0 && rounds < 4) {
        const double before = engine.now();
        MPI_Test(&req, &flag, MPI_STATUS_IGNORE);
        if (flag == 0) {
          // An unsuccessful interleaved poll costs ~one poll interval, not
          // the full remaining wait.
          EXPECT_LT(engine.now() - before, 1e-3);
          smpi_sleep(0.001);  // "compute"
        }
        ++rounds;
      }
      MPI_Wait(&req, MPI_STATUS_IGNORE);
      EXPECT_EQ(got, 99);
    } else {
      smpi_sleep(0.01);
      const int v = 99;
      MPI_Send(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD);
    }
  });
}

TEST(SmpiP2P, SendrecvExchangesWithoutDeadlock) {
  run_mpi(4, [] {
    const int rank = my_rank();
    const int size = world_size();
    const int right = (rank + 1) % size;
    const int left = (rank - 1 + size) % size;
    // Everyone sends a large (rendezvous) message to the right while
    // receiving from the left; plain MPI_Send would deadlock here.
    std::vector<double> out(20000, rank);
    std::vector<double> in(20000, -1);
    MPI_Sendrecv(out.data(), 20000, MPI_DOUBLE, right, 0, in.data(), 20000, MPI_DOUBLE, left, 0,
                 MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    for (double v : in) EXPECT_DOUBLE_EQ(v, left);
  });
}

TEST(SmpiP2P, ProcNullIsImmediateNoOp) {
  run_mpi(2, [] {
    int v = 5;
    EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD), MPI_SUCCESS);
    MPI_Status status;
    int r = 7;
    EXPECT_EQ(MPI_Recv(&r, 1, MPI_INT, MPI_PROC_NULL, 0, MPI_COMM_WORLD, &status), MPI_SUCCESS);
    EXPECT_EQ(r, 7);  // untouched
    EXPECT_EQ(status.MPI_SOURCE, MPI_PROC_NULL);
    int count = -1;
    MPI_Get_count(&status, MPI_INT, &count);
    EXPECT_EQ(count, 0);
  });
}

TEST(SmpiP2P, TruncationReportsError) {
  run_mpi(2, [] {
    if (my_rank() == 0) {
      std::vector<int> data(100, 3);
      MPI_Send(data.data(), 100, MPI_INT, 1, 0, MPI_COMM_WORLD);
      MPI_Send(data.data(), 100, MPI_INT, 1, 1, MPI_COMM_WORLD);
    } else if (my_rank() == 1) {
      std::vector<int> data(10, -1);
      MPI_Status status;
      MPI_Recv(data.data(), 10, MPI_INT, 0, 0, MPI_COMM_WORLD, &status);
      EXPECT_EQ(status.MPI_ERROR, MPI_ERR_TRUNCATE);
      for (int v : data) EXPECT_EQ(v, 3);  // first 10 elements arrived
      int count = -1;
      MPI_Get_count(&status, MPI_INT, &count);
      EXPECT_EQ(count, 10);
      // MPI_Waitsome returns a truncated request's index with its status.
      MPI_Request req;
      MPI_Irecv(data.data(), 10, MPI_INT, 0, 1, MPI_COMM_WORLD, &req);
      int outcount = 0;
      int index = -1;
      EXPECT_EQ(MPI_Waitsome(1, &req, &outcount, &index, &status), MPI_ERR_IN_STATUS);
      EXPECT_EQ(outcount, 1);
      EXPECT_EQ(index, 0);
      EXPECT_EQ(status.MPI_ERROR, MPI_ERR_TRUNCATE);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
    }
  });
}

TEST(SmpiP2P, PersistentRequestsRestart) {
  run_mpi(2, [] {
    const int rank = my_rank();
    int value = -1;
    MPI_Request req;
    if (rank == 0) {
      MPI_Send_init(&value, 1, MPI_INT, 1, 0, MPI_COMM_WORLD, &req);
      for (int i = 0; i < 5; ++i) {
        value = i * i;
        MPI_Start(&req);
        MPI_Wait(&req, MPI_STATUS_IGNORE);
        EXPECT_NE(req, MPI_REQUEST_NULL);  // persistent requests survive Wait
      }
      MPI_Request_free(&req);
      EXPECT_EQ(req, MPI_REQUEST_NULL);
    } else if (rank == 1) {
      MPI_Recv_init(&value, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, &req);
      for (int i = 0; i < 5; ++i) {
        MPI_Start(&req);
        MPI_Wait(&req, MPI_STATUS_IGNORE);
        EXPECT_EQ(value, i * i);
      }
      MPI_Request_free(&req);
    }
  });
}

TEST(SmpiP2P, StartallLaunchesBatch) {
  run_mpi(2, [] {
    const int rank = my_rank();
    int out[3] = {10, 20, 30};
    int in[3] = {-1, -1, -1};
    MPI_Request reqs[3];
    if (rank == 0) {
      for (int i = 0; i < 3; ++i) {
        MPI_Send_init(&out[i], 1, MPI_INT, 1, i, MPI_COMM_WORLD, &reqs[i]);
      }
      MPI_Startall(3, reqs);
      MPI_Waitall(3, reqs, MPI_STATUSES_IGNORE);
      for (auto& r : reqs) MPI_Request_free(&r);
    } else if (rank == 1) {
      for (int i = 0; i < 3; ++i) {
        MPI_Recv_init(&in[i], 1, MPI_INT, 0, i, MPI_COMM_WORLD, &reqs[i]);
      }
      MPI_Startall(3, reqs);
      MPI_Waitall(3, reqs, MPI_STATUSES_IGNORE);
      EXPECT_EQ(in[0], 10);
      EXPECT_EQ(in[1], 20);
      EXPECT_EQ(in[2], 30);
      for (auto& r : reqs) MPI_Request_free(&r);
    }
  });
}

TEST(SmpiP2P, ProbeSeesPendingMessage) {
  run_mpi(2, [] {
    if (my_rank() == 0) {
      std::vector<int> data(50, 4);
      MPI_Send(data.data(), 50, MPI_INT, 1, 77, MPI_COMM_WORLD);
    } else if (my_rank() == 1) {
      MPI_Status status;
      MPI_Probe(0, MPI_ANY_TAG, MPI_COMM_WORLD, &status);
      EXPECT_EQ(status.MPI_TAG, 77);
      int count = -1;
      MPI_Get_count(&status, MPI_INT, &count);
      EXPECT_EQ(count, 50);
      std::vector<int> data(static_cast<std::size_t>(count), -1);
      MPI_Recv(data.data(), count, MPI_INT, 0, 77, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(data[49], 4);
    }
  });
}

TEST(SmpiP2P, IprobeReturnsImmediately) {
  run_mpi(2, [] {
    if (my_rank() == 1) {
      int flag = 12345;
      MPI_Status status;
      EXPECT_EQ(MPI_Iprobe(0, MPI_ANY_TAG, MPI_COMM_WORLD, &flag, &status), MPI_SUCCESS);
      EXPECT_EQ(flag, 0);  // nothing sent
    }
  });
}

// A probe of MPI_PROC_NULL returns at once, like a receive from it: source
// MPI_PROC_NULL, tag MPI_ANY_TAG, count 0, and Iprobe's flag set. No rank
// sends anything, so a probe that waited would end in the deadlock report.
TEST(SmpiP2P, ProbeOfProcNullReturnsAtOnce) {
  const double elapsed = run_mpi(2, [] {
    MPI_Status status;
    status.MPI_SOURCE = 12345;
    EXPECT_EQ(MPI_Probe(MPI_PROC_NULL, 3, MPI_COMM_WORLD, &status), MPI_SUCCESS);
    EXPECT_EQ(status.MPI_SOURCE, MPI_PROC_NULL);
    EXPECT_EQ(status.MPI_TAG, MPI_ANY_TAG);
    int count = -1;
    MPI_Get_count(&status, MPI_INT, &count);
    EXPECT_EQ(count, 0);

    int flag = 0;
    status.MPI_SOURCE = 12345;
    EXPECT_EQ(MPI_Iprobe(MPI_PROC_NULL, MPI_ANY_TAG, MPI_COMM_WORLD, &flag, &status),
              MPI_SUCCESS);
    EXPECT_EQ(flag, 1);
    EXPECT_EQ(status.MPI_SOURCE, MPI_PROC_NULL);
    EXPECT_EQ(status.MPI_TAG, MPI_ANY_TAG);
    count = -1;
    MPI_Get_count(&status, MPI_INT, &count);
    EXPECT_EQ(count, 0);
    EXPECT_EQ(MPI_Probe(MPI_PROC_NULL, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE), MPI_SUCCESS);
  });
  // Neither probe costs simulated time (only Finalize's barrier does).
  EXPECT_EQ(elapsed, run_mpi(2, [] {}));
}

TEST(SmpiP2P, WaitOnNullRequestIsEmptySuccess) {
  run_mpi(2, [] {
    MPI_Request req = MPI_REQUEST_NULL;
    MPI_Status status;
    EXPECT_EQ(MPI_Wait(&req, &status), MPI_SUCCESS);
    EXPECT_EQ(status.MPI_SOURCE, MPI_ANY_SOURCE);
    EXPECT_EQ(status.MPI_TAG, MPI_ANY_TAG);
  });
}

TEST(SmpiP2P, ArgumentValidation) {
  run_mpi(2, [] {
    int v = 0;
    EXPECT_EQ(MPI_Send(&v, -1, MPI_INT, 1, 0, MPI_COMM_WORLD), MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Send(&v, 1, MPI_DATATYPE_NULL, 1, 0, MPI_COMM_WORLD), MPI_ERR_TYPE);
    EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, 99, 0, MPI_COMM_WORLD), MPI_ERR_RANK);
    EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, 1, -3, MPI_COMM_WORLD), MPI_ERR_TAG);
    EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, 1, 0, MPI_COMM_NULL), MPI_ERR_COMM);
    EXPECT_EQ(MPI_Send(nullptr, 1, MPI_INT, 1, 0, MPI_COMM_WORLD), MPI_ERR_BUFFER);
    // ANY_SOURCE is a receive-side wildcard only.
    EXPECT_EQ(MPI_Send(&v, 1, MPI_INT, MPI_ANY_SOURCE, 0, MPI_COMM_WORLD), MPI_ERR_RANK);
    // Every call that takes a request array rejects a negative count and a
    // missing array.
    int index = 0;
    int flag = 0;
    int outcount = 0;
    EXPECT_EQ(MPI_Waitany(1, nullptr, &index, MPI_STATUS_IGNORE), MPI_ERR_REQUEST);
    EXPECT_EQ(MPI_Testany(1, nullptr, &index, &flag, MPI_STATUS_IGNORE), MPI_ERR_REQUEST);
    EXPECT_EQ(MPI_Testall(1, nullptr, &flag, MPI_STATUSES_IGNORE), MPI_ERR_REQUEST);
    EXPECT_EQ(MPI_Waitall(1, nullptr, MPI_STATUSES_IGNORE), MPI_ERR_REQUEST);
    EXPECT_EQ(MPI_Waitsome(1, nullptr, &outcount, &index, MPI_STATUSES_IGNORE), MPI_ERR_REQUEST);
    EXPECT_EQ(MPI_Startall(1, nullptr), MPI_ERR_REQUEST);
    MPI_Request none = MPI_REQUEST_NULL;
    EXPECT_EQ(MPI_Waitany(-1, &none, &index, MPI_STATUS_IGNORE), MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Testany(-1, &none, &index, &flag, MPI_STATUS_IGNORE), MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Testall(-1, &none, &flag, MPI_STATUSES_IGNORE), MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Waitall(-1, &none, MPI_STATUSES_IGNORE), MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Waitsome(-1, &none, &outcount, &index, MPI_STATUSES_IGNORE), MPI_ERR_COUNT);
    EXPECT_EQ(MPI_Startall(-1, &none), MPI_ERR_COUNT);
  });
}

TEST(SmpiP2P, DerivedVectorTypeTransfers) {
  run_mpi(2, [] {
    const int rank = my_rank();
    MPI_Datatype column;
    // 4 blocks of 1 int, stride 3: a "column" of a 4x3 row-major matrix.
    MPI_Type_vector(4, 1, 3, MPI_INT, &column);
    MPI_Type_commit(&column);
    if (rank == 0) {
      int matrix[12];
      for (int i = 0; i < 12; ++i) matrix[i] = i;
      MPI_Send(matrix, 1, column, 1, 0, MPI_COMM_WORLD);  // column 0: 0,3,6,9
    } else if (rank == 1) {
      int out[4] = {-1, -1, -1, -1};
      MPI_Recv(out, 4, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_EQ(out[0], 0);
      EXPECT_EQ(out[1], 3);
      EXPECT_EQ(out[2], 6);
      EXPECT_EQ(out[3], 9);
    }
    MPI_Type_free(&column);
  });
}

TEST(SmpiP2P, ContiguousTypeRoundTrip) {
  run_mpi(2, [] {
    MPI_Datatype pair;
    MPI_Type_contiguous(2, MPI_DOUBLE, &pair);
    MPI_Type_commit(&pair);
    int size = 0;
    MPI_Type_size(pair, &size);
    EXPECT_EQ(size, 16);
    if (my_rank() == 0) {
      double data[6] = {1, 2, 3, 4, 5, 6};
      MPI_Send(data, 3, pair, 1, 0, MPI_COMM_WORLD);
    } else if (my_rank() == 1) {
      double data[6] = {0};
      MPI_Recv(data, 3, pair, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      EXPECT_DOUBLE_EQ(data[5], 6);
    }
    MPI_Type_free(&pair);
  });
}
