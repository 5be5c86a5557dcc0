// Trace subsystem tests: record round-trips, capture/replay equivalence on
// the paper's applications (replayed simulated time == online simulated time
// within 1e-9 relative), payload-free p2p semantics, what-if replays on a
// different platform, and the Paje timeline writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "apps/dt.hpp"
#include "apps/ep.hpp"
#include "obs/span.hpp"
#include "smpi_test_util.hpp"
#include "trace/paje.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "util/check.hpp"

namespace fs = std::filesystem;
namespace tr = smpi::trace;
using namespace smpi_test;

namespace {

// Fresh temp directory per use, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("smpi_trace_test_" + std::to_string(::getpid()) + "_" + std::to_string(counter++));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

// Runs `app` over `nprocs` ranks on `platform` while capturing a TI trace
// into `dir`; returns the online simulated time.
double capture_run(const smpi::platform::Platform& platform, const smpi::core::SmpiConfig& config,
                   int nprocs, smpi::core::MpiMain app, const std::string& dir) {
  tr::TiWriter writer(dir, nprocs, "test");
  smpi::core::SmpiWorld world(platform, config, {&writer});
  world.run(nprocs, std::move(app));
  return world.simulated_time();
}

}  // namespace

// ---------------------------------------------------------------------------
// Record serialization
// ---------------------------------------------------------------------------

namespace {

// Compares every member, so a field left at its default or read into the
// wrong member shows up.
void expect_same_record(const tr::TiRecord& actual, const tr::TiRecord& expected,
                        const std::string& line) {
  EXPECT_EQ(actual.op, expected.op) << line;
  EXPECT_EQ(actual.value, expected.value) << line;  // bit-exact doubles
  EXPECT_EQ(actual.peer, expected.peer) << line;
  EXPECT_EQ(actual.peer2, expected.peer2) << line;
  EXPECT_EQ(actual.tag, expected.tag) << line;
  EXPECT_EQ(actual.tag2, expected.tag2) << line;
  EXPECT_EQ(actual.count, expected.count) << line;
  EXPECT_EQ(actual.count2, expected.count2) << line;
  EXPECT_EQ(actual.elem, expected.elem) << line;
  EXPECT_EQ(actual.elem2, expected.elem2) << line;
  EXPECT_EQ(actual.req, expected.req) << line;
  EXPECT_EQ(actual.commutative, expected.commutative) << line;
  EXPECT_EQ(actual.reqs, expected.reqs) << line;
  EXPECT_EQ(actual.counts, expected.counts) << line;
  EXPECT_EQ(actual.counts2, expected.counts2) << line;
}

}  // namespace

// One canonical line per op, with a distinct value in every field it
// carries, next to the record it stands for. A round trip alone cannot see
// a field order swapped on both the write and the read side; this can.
TEST(TiRecord, RoundTripsEveryOpKind) {
  struct Case {
    const char* line;
    tr::TiRecord record;
  };
  const auto make = [](tr::TiOp op, const std::function<void(tr::TiRecord&)>& set) {
    tr::TiRecord r;
    r.op = op;
    set(r);
    return r;
  };
  const auto none = [](tr::TiRecord&) {};
  using Op = tr::TiOp;
  const Case cases[] = {
      {"init", make(Op::kInit, none)},
      {"finalize", make(Op::kFinalize, none)},
      {"compute 1234567890.1234567",
       make(Op::kCompute, [](tr::TiRecord& r) { r.value = 1234567890.1234567; })},
      {"sleep 0.25", make(Op::kSleep, [](tr::TiRecord& r) { r.value = 0.25; })},
      {"send 3 1000 8 17", make(Op::kSend,
                                [](tr::TiRecord& r) {
                                  r.peer = 3; r.count = 1000; r.elem = 8; r.tag = 17;
                                })},
      // 8 GiB message: count*elem must never flatten to an int.
      {"isend 4 1073741824 8 18 5",
       make(Op::kIsend,
            [](tr::TiRecord& r) {
              r.peer = 4; r.count = 1LL << 30; r.elem = 8; r.tag = 18; r.req = 5;
            })},
      {"recv 6 1002 24 19", make(Op::kRecv,
                                 [](tr::TiRecord& r) {
                                   r.peer = 6; r.count = 1002; r.elem = 24; r.tag = 19;
                                 })},
      {"irecv 7 1003 32 20 8",
       make(Op::kIrecv,
            [](tr::TiRecord& r) {
              r.peer = 7; r.count = 1003; r.elem = 32; r.tag = 20; r.req = 8;
            })},
      {"wait 9", make(Op::kWait, [](tr::TiRecord& r) { r.req = 9; })},
      {"waitall 3 10 11 12", make(Op::kWaitall, [](tr::TiRecord& r) { r.reqs = {10, 11, 12}; })},
      {"reqfree 13", make(Op::kReqFree, [](tr::TiRecord& r) { r.req = 13; })},
      {"probe 14 21", make(Op::kProbe, [](tr::TiRecord& r) { r.peer = 14; r.tag = 21; })},
      {"sendrecv 1 100 2 3 4 200 5 6",
       make(Op::kSendrecv,
            [](tr::TiRecord& r) {
              r.peer = 1; r.count = 100; r.elem = 2; r.tag = 3;
              r.peer2 = 4; r.count2 = 200; r.elem2 = 5; r.tag2 = 6;
            })},
      {"barrier", make(Op::kBarrier, none)},
      {"bcast 300 8 2",
       make(Op::kBcast, [](tr::TiRecord& r) { r.count = 300; r.elem = 8; r.peer = 2; })},
      {"reduce 301 4 3 0", make(Op::kReduce,
                                [](tr::TiRecord& r) {
                                  r.count = 301; r.elem = 4; r.peer = 3; r.commutative = false;
                                })},
      {"allreduce 302 8 0",
       make(Op::kAllreduce,
            [](tr::TiRecord& r) { r.count = 302; r.elem = 8; r.commutative = false; })},
      {"scan 303 16 1", make(Op::kScan, [](tr::TiRecord& r) { r.count = 303; r.elem = 16; })},
      {"gather 304 4 305 8 5",
       make(Op::kGather,
            [](tr::TiRecord& r) {
              r.count = 304; r.elem = 4; r.count2 = 305; r.elem2 = 8; r.peer = 5;
            })},
      {"gatherv 306 4 8 6 3 1 2 3",
       make(Op::kGatherv,
            [](tr::TiRecord& r) {
              r.count = 306; r.elem = 4; r.elem2 = 8; r.peer = 6; r.counts = {1, 2, 3};
            })},
      {"scatter 307 8 308 4 7",
       make(Op::kScatter,
            [](tr::TiRecord& r) {
              r.count = 307; r.elem = 8; r.count2 = 308; r.elem2 = 4; r.peer = 7;
            })},
      {"scatterv 309 4 8 1 2 5 6",
       make(Op::kScatterv,
            [](tr::TiRecord& r) {
              r.count2 = 309; r.elem2 = 4; r.elem = 8; r.peer = 1; r.counts = {5, 6};
            })},
      {"allgather 310 8 311 16",
       make(Op::kAllgather,
            [](tr::TiRecord& r) { r.count = 310; r.elem = 8; r.count2 = 311; r.elem2 = 16; })},
      {"allgatherv 312 4 8 2 7 9",
       make(Op::kAllgatherv,
            [](tr::TiRecord& r) {
              r.count = 312; r.elem = 4; r.elem2 = 8; r.counts = {7, 9};
            })},
      {"alltoall 313 8 314 16",
       make(Op::kAlltoall,
            [](tr::TiRecord& r) { r.count = 313; r.elem = 8; r.count2 = 314; r.elem2 = 16; })},
      {"alltoallv 4 8 2 1 2 2 3 4",
       make(Op::kAlltoallv,
            [](tr::TiRecord& r) {
              r.elem = 4; r.elem2 = 8; r.counts = {1, 2}; r.counts2 = {3, 4};
            })},
      {"reducescatter 8 0 3 5 6 7",
       make(Op::kReduceScatter,
            [](tr::TiRecord& r) { r.elem = 8; r.commutative = false; r.counts = {5, 6, 7}; })},
  };
  std::vector<bool> seen(static_cast<std::size_t>(tr::TiOp::kReduceScatter) + 1, false);
  for (const auto& c : cases) {
    seen[static_cast<std::size_t>(c.record.op)] = true;
    EXPECT_EQ(tr::serialize_record(c.record), c.line);
    tr::TiRecord parsed;
    ASSERT_TRUE(tr::parse_record(c.line, &parsed)) << c.line;
    expect_same_record(parsed, c.record, c.line);
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0) << "an op has no canonical line";
  tr::TiRecord bad;
  EXPECT_FALSE(tr::parse_record("frobnicate 1 2 3", &bad));
  EXPECT_FALSE(tr::parse_record("send 1", &bad));
}

// The line grammar: blank-separated decimal tokens that each fill a whole
// token, finite doubles, nothing after the last field. `expected` is the
// canonical (serialized) form of an accepted line, nullptr for a rejected one.
TEST(TiRecord, ParserAcceptsWholeTokensAndRejectsEverythingElse) {
  struct Case {
    const char* line;
    const char* expected;
  };
  const Case cases[] = {
      // Accepted, including the old parser's leniencies.
      {"send 1 2 3 4", "send 1 2 3 4"},
      {"   send 1 2 3 4", "send 1 2 3 4"},    // leading whitespace
      {"send\t1\t2 3\t\t4", "send 1 2 3 4"},  // tabs
      {"send 1 2 3 4\r", "send 1 2 3 4"},     // CRLF line ending
      {"send 1 2 3 4  \t", "send 1 2 3 4"},
      {"recv -1 8 1 -1", "recv -1 8 1 -1"},
      {"compute 1.5e6", "compute 1500000"},
      {"compute 4.9406564584124654e-324", "compute 4.9406564584124654e-324"},
      {"compute -0", "compute -0"},
      {"waitall 0", "waitall 0"},
      {"waitall 2 7 8", "waitall 2 7 8"},
      {"barrier", "barrier"},
      {"finalize\r", "finalize"},
      // Silently misread by the old istream parser; rejected now.
      {"compute 0x10", nullptr},
      {"compute 1.5abc", nullptr},
      {"send 1 2 3 4.5", nullptr},
      {"send 1 2 3 4 junk", nullptr},
      {"send 1 2 3 4 5", nullptr},
      {"init extra", nullptr},
      {"waitall 2 7 8 9", nullptr},
      // Non-finite and out-of-range numbers.
      {"compute inf", nullptr},
      {"compute -inf", nullptr},
      {"compute nan", nullptr},
      {"compute 1e400", nullptr},
      {"send 1 2 3 99999999999999999999", nullptr},
      // Lists whose count the line cannot hold fail before allocating.
      {"waitall 3 1 2", nullptr},
      {"waitall -1", nullptr},
      {"waitall 200000000 1", nullptr},
      {"waitall 1000000000000 1", nullptr},
      // Everything else.
      {"", nullptr},
      {"   ", nullptr},
      {"\r", nullptr},
      {"# comment", nullptr},  // comments are the loader's business
      {"Send 1 2 3 4", nullptr},
      {"sendx 1 2 3 4", nullptr},
      {"send +1 2 3 4", nullptr},  // serialize never writes a '+'
      {"send 1,2 3 4", nullptr},
      {"compute\v5", nullptr},
  };
  for (const auto& c : cases) {
    tr::TiRecord parsed;
    const bool ok = tr::parse_record(c.line, &parsed);
    EXPECT_EQ(ok, c.expected != nullptr) << "'" << c.line << "'";
    if (ok && c.expected != nullptr) {
      EXPECT_EQ(tr::serialize_record(parsed), c.expected) << "'" << c.line << "'";
    }
  }
}

// ---------------------------------------------------------------------------
// Packed in-memory form
// ---------------------------------------------------------------------------

namespace {

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

// Every op, with every field cycled through the varint edge cases, the
// sentinels, -0.0, a denormal and 1e308, and empty, short and long lists:
// unpacked, each record serializes to its original line, keeps its value's
// bits, and equals what parse_record makes of that line, so the fields
// outside the op's row read back at their defaults.
TEST(TiRecords, EveryOpRoundTripsThroughThePackedForm) {
  const std::vector<long long> integers = {0,   1,    tr::kPeerAny, tr::kPeerNull, 63,
                                           -64, 64,   -65,          1LL << 40,     LLONG_MAX,
                                           LLONG_MIN, LLONG_MIN + 1};
  const std::vector<double> values = {0.0, -0.0, 4.9406564584124654e-324, 1e308,
                                      -1.2345678901234567e9};
  std::vector<long long> long_list;
  for (long long i = 0; i < 1000; ++i) long_list.push_back(i % 2 ? -i * 9973 : i << 50);
  const std::vector<std::vector<long long>> lists = {
      {}, {LLONG_MIN, tr::kPeerNull, tr::kPeerAny, 0, LLONG_MAX}, long_list};

  std::vector<tr::TiRecord> originals;
  tr::TiRecords packed;
  EXPECT_TRUE(packed.empty());
  const std::size_t n = integers.size();
  for (int op = 0; op <= static_cast<int>(tr::TiOp::kReduceScatter); ++op) {
    for (std::size_t i = 0; i < n; ++i) {
      tr::TiRecord r;
      r.op = static_cast<tr::TiOp>(op);
      r.peer = integers[i];
      r.count = integers[(i + 1) % n];
      r.elem = integers[(i + 2) % n];
      r.tag = integers[(i + 3) % n];
      r.req = integers[(i + 4) % n];
      r.peer2 = integers[(i + 5) % n];
      r.count2 = integers[(i + 6) % n];
      r.elem2 = integers[(i + 7) % n];
      r.tag2 = integers[(i + 8) % n];
      r.value = values[i % values.size()];
      r.commutative = i % 2 == 0;
      r.reqs = lists[i % 3];
      r.counts = lists[(i + 1) % 3];
      r.counts2 = lists[(i + 2) % 3];
      packed.push_back(r);
      originals.push_back(r);
    }
  }
  ASSERT_EQ(packed.size(), originals.size());
  EXPECT_FALSE(packed.empty());

  std::size_t i = 0;
  for (const tr::TiRecord& r : packed) {
    ASSERT_LT(i, originals.size());
    const tr::TiRecord& original = originals[i++];
    const std::string line = tr::serialize_record(original);
    EXPECT_EQ(tr::serialize_record(r), line);
    tr::TiRecord parsed;
    ASSERT_TRUE(tr::parse_record(line, &parsed)) << line;
    expect_same_record(r, parsed, line);
    EXPECT_EQ(bits_of(r.value), bits_of(parsed.value)) << line;
    if (r.op == tr::TiOp::kCompute || r.op == tr::TiOp::kSleep) {
      EXPECT_EQ(bits_of(r.value), bits_of(original.value)) << line;
    }
  }
  EXPECT_EQ(i, originals.size());
  EXPECT_EQ(tr::serialize_record(packed.front()), tr::serialize_record(originals.front()));
  EXPECT_EQ(tr::serialize_record(packed.back()), tr::serialize_record(originals.back()));
}

TEST(TiWriterReader, WriterProducesLoadableTraces) {
  TempDir dir;
  {
    tr::TiWriter writer(dir.str(), 2, "unit");
    tr::TiRecord r;
    r.op = tr::TiOp::kInit;
    writer.append(0, r);
    writer.append(1, r);
    r.op = tr::TiOp::kCompute;
    r.value = 5e6;
    writer.append(0, r);
    r.op = tr::TiOp::kFinalize;
    writer.append(0, r);
    writer.append(1, r);
    writer.finish();
    EXPECT_EQ(writer.records_written(), 5u);
  }
  const tr::TiTrace trace = tr::load_ti_trace(dir.str());
  EXPECT_EQ(trace.nranks, 2);
  EXPECT_EQ(trace.app, "unit");
  ASSERT_EQ(trace.ranks[0].size(), 3u);
  ASSERT_EQ(trace.ranks[1].size(), 2u);
  const std::vector<tr::TiRecord> rank0 = unpack(trace.ranks[0]);
  EXPECT_EQ(rank0[1].op, tr::TiOp::kCompute);
  EXPECT_EQ(rank0[1].value, 5e6);
}

// The writer bounds the text all ranks buffer together, not each rank's:
// 64 ranks that together pass kBufferBytes, each far below it, have all
// reached their files before finish(), and the files read back in order.
TEST(TiWriterReader, WriterBoundsTotalBufferedText) {
  TempDir dir;
  const int nranks = 64;
  tr::TiRecord r;
  r.op = tr::TiOp::kCompute;
  r.value = 123456789.0;
  const std::size_t line = tr::serialize_record(r).size() + 1;
  const std::size_t per_rank = tr::TiWriter::kBufferBytes / line / nranks + 1;
  {
    tr::TiWriter writer(dir.str(), nranks, "bound");
    for (std::size_t i = 0; i < per_rank; ++i) {
      for (int rank = 0; rank < nranks; ++rank) writer.append(rank, r);
    }
    for (int rank = 0; rank < nranks; ++rank) {
      const fs::path file = dir.path / ("rank_" + std::to_string(rank) + ".ti");
      ASSERT_TRUE(fs::exists(file)) << file;
      EXPECT_GT(fs::file_size(file), 0u) << file;
    }
  }
  const tr::TiTrace trace = tr::load_ti_trace(dir.str(), /*validate=*/false);
  ASSERT_EQ(trace.nranks, nranks);
  for (int rank = 0; rank < nranks; ++rank) {
    ASSERT_EQ(trace.ranks[static_cast<std::size_t>(rank)].size(), per_rank);
  }
}

// ---------------------------------------------------------------------------
// Capture -> replay equivalence
// ---------------------------------------------------------------------------

TEST(TraceReplay, EpReplayReproducesOnlineTime) {
  TempDir dir;
  auto platform = test_cluster(8);
  auto config = fast_config();
  smpi::apps::EpParams params;
  params.log2_pairs = 14;
  const double online =
      capture_run(platform, config, 8, smpi::apps::make_ep_app(params), dir.str());
  ASSERT_GT(online, 0);

  const auto result = tr::replay_trace(platform, config, dir.str());
  EXPECT_EQ(result.ranks, 8);
  EXPECT_GT(result.records, 0);
  EXPECT_NEAR(result.simulated_time, online, 1e-9 * online);
}

TEST(TraceReplay, EpWithFoldedSamplingReplaysExactly) {
  TempDir dir;
  auto platform = test_cluster(8);
  auto config = fast_config();
  smpi::apps::EpParams params;
  params.log2_pairs = 14;
  params.sampling_ratio = 0.25;  // most bursts folded to the measured mean
  const double online =
      capture_run(platform, config, 8, smpi::apps::make_ep_app(params), dir.str());
  const auto result = tr::replay_trace(platform, config, dir.str());
  EXPECT_NEAR(result.simulated_time, online, 1e-9 * online);
}

TEST(TraceReplay, DtReplayReproducesOnlineTime) {
  TempDir dir;
  smpi::apps::DtParams params;
  params.cls = smpi::apps::DtClass::kS;
  params.graph = smpi::apps::DtGraph::kWhiteHole;
  const int np = smpi::apps::dt_process_count(params.graph, params.cls);
  auto platform = test_cluster(np);
  auto config = fast_config();
  const double online =
      capture_run(platform, config, np, smpi::apps::make_dt_app(params), dir.str());
  ASSERT_GT(online, 0);

  const auto result = tr::replay_trace(platform, config, dir.str());
  EXPECT_EQ(result.ranks, np);
  EXPECT_NEAR(result.simulated_time, online, 1e-9 * online);
}

TEST(TraceReplay, CollectiveMixReplaysExactly) {
  TempDir dir;
  auto platform = test_cluster(7);  // non-power-of-two exercises other paths
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    const int rank = my_rank();
    const int size = world_size();
    std::vector<double> buf(2048, rank);
    std::vector<double> out(2048 * static_cast<std::size_t>(size));
    MPI_Bcast(buf.data(), 2048, MPI_DOUBLE, 0, MPI_COMM_WORLD);
    MPI_Allreduce(buf.data(), buf.data() + 1024, 1024, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    MPI_Barrier(MPI_COMM_WORLD);
    MPI_Gather(buf.data(), 64, MPI_DOUBLE, out.data(), 64, MPI_DOUBLE, size - 1,
               MPI_COMM_WORLD);
    MPI_Alltoall(out.data(), 16, MPI_DOUBLE, out.data() + 1024, 16, MPI_DOUBLE, MPI_COMM_WORLD);
    double prefix = 0;
    MPI_Scan(buf.data(), &prefix, 1, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    std::vector<int> counts(static_cast<std::size_t>(size), 4);
    std::vector<double> slice(4);
    MPI_Reduce_scatter(out.data(), slice.data(), counts.data(), MPI_DOUBLE, MPI_SUM,
                       MPI_COMM_WORLD);
    // Point-to-point ring with nonblocking requests.
    std::vector<MPI_Request> reqs(2);
    MPI_Isend(buf.data(), 256, MPI_DOUBLE, (rank + 1) % size, 9, MPI_COMM_WORLD, &reqs[0]);
    MPI_Irecv(out.data(), 256, MPI_DOUBLE, (rank - 1 + size) % size, 9, MPI_COMM_WORLD,
              &reqs[1]);
    MPI_Waitall(2, reqs.data(), MPI_STATUSES_IGNORE);
    smpi_execute_flops(1e6);
    MPI_Finalize();
  };
  const double online = capture_run(platform, config, 7, app, dir.str());
  ASSERT_GT(online, 0);
  const auto result = tr::replay_trace(platform, config, dir.str());
  EXPECT_NEAR(result.simulated_time, online, 1e-9 * online);
}

// Covers the replay arms CollectiveMixReplaysExactly does not: reduce,
// scatter, the v-variants (including the nullptr non-root argument paths),
// sendrecv, probe, and request-free.
TEST(TraceReplay, VariantMixReplaysExactly) {
  TempDir dir;
  auto platform = test_cluster(5);
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    const int rank = my_rank();
    const int size = world_size();
    const int root = size - 1;
    std::vector<int> mine(64, rank);
    std::vector<int> all(64 * static_cast<std::size_t>(size));
    std::vector<int> counts(static_cast<std::size_t>(size));
    std::vector<int> displs(static_cast<std::size_t>(size));
    int offset = 0;
    for (int r = 0; r < size; ++r) {
      counts[static_cast<std::size_t>(r)] = 8 * (r + 1);
      displs[static_cast<std::size_t>(r)] = offset;
      offset += counts[static_cast<std::size_t>(r)];
    }
    std::vector<int> uneven(static_cast<std::size_t>(offset));

    std::vector<int> reduced(64);
    MPI_Reduce(mine.data(), reduced.data(), 64, MPI_INT, MPI_SUM, root, MPI_COMM_WORLD);
    MPI_Scatter(rank == root ? all.data() : nullptr, 64, MPI_INT, mine.data(), 64, MPI_INT,
                root, MPI_COMM_WORLD);
    MPI_Gatherv(mine.data(), counts[static_cast<std::size_t>(rank)], MPI_INT,
                rank == root ? uneven.data() : nullptr,
                rank == root ? counts.data() : nullptr, rank == root ? displs.data() : nullptr,
                MPI_INT, root, MPI_COMM_WORLD);
    MPI_Scatterv(rank == root ? uneven.data() : nullptr,
                 rank == root ? counts.data() : nullptr,
                 rank == root ? displs.data() : nullptr, MPI_INT, mine.data(),
                 counts[static_cast<std::size_t>(rank)], MPI_INT, root, MPI_COMM_WORLD);
    MPI_Allgatherv(mine.data(), counts[static_cast<std::size_t>(rank)], MPI_INT, uneven.data(),
                   counts.data(), displs.data(), MPI_INT, MPI_COMM_WORLD);
    std::vector<int> acounts(static_cast<std::size_t>(size), 4);
    std::vector<int> adispls(static_cast<std::size_t>(size));
    for (int r = 0; r < size; ++r) adispls[static_cast<std::size_t>(r)] = 4 * r;
    MPI_Alltoallv(all.data(), acounts.data(), adispls.data(), MPI_INT, uneven.data(),
                  acounts.data(), adispls.data(), MPI_INT, MPI_COMM_WORLD);

    // Sendrecv ring, a probed message, and an abandoned request.
    MPI_Sendrecv(mine.data(), 32, MPI_INT, (rank + 1) % size, 5, all.data(), 32, MPI_INT,
                 (rank - 1 + size) % size, 5, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    if (rank == 0) {
      MPI_Send(mine.data(), 16, MPI_INT, 1, 6, MPI_COMM_WORLD);
    } else if (rank == 1) {
      MPI_Status status;
      MPI_Probe(0, 6, MPI_COMM_WORLD, &status);
      MPI_Recv(all.data(), 16, MPI_INT, 0, 6, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Request orphan;
      MPI_Irecv(all.data(), 8, MPI_INT, MPI_ANY_SOURCE, 99, MPI_COMM_WORLD, &orphan);
      MPI_Request_free(&orphan);
    }
    MPI_Finalize();
  };
  const double online = capture_run(platform, config, 5, app, dir.str());
  ASSERT_GT(online, 0);
  const auto result = tr::replay_trace(platform, config, dir.str());
  EXPECT_NEAR(result.simulated_time, online, 1e-9 * online);
}

// One per-rank time account for both modes: an online run fills
// rank_compute_s/rank_comm_s without any observer, and a replay of its
// capture fills the same split. Imbalanced compute, an overlapped ring, a
// probed message, send overhead and collectives give every rank both parts.
TEST(TraceReplay, OnlineAndReplayRankSplitsAgree) {
  TempDir dir;
  auto platform = test_cluster(16);
  auto config = fast_config();
  config.personality.overhead_send_s = 2e-6;
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    const int rank = my_rank();
    const int size = world_size();
    std::vector<double> buf(16384, rank);
    std::vector<double> out(16384);
    smpi_execute_flops(1e5 * (rank + 1));
    MPI_Bcast(buf.data(), 2048, MPI_DOUBLE, 0, MPI_COMM_WORLD);
    std::vector<MPI_Request> reqs(2);
    MPI_Irecv(out.data(), 16384, MPI_DOUBLE, (rank - 1 + size) % size, 3, MPI_COMM_WORLD,
              &reqs[0]);
    MPI_Isend(buf.data(), 16384, MPI_DOUBLE, (rank + 1) % size, 3, MPI_COMM_WORLD, &reqs[1]);
    smpi_execute_flops(5e5);
    MPI_Waitall(2, reqs.data(), MPI_STATUSES_IGNORE);
    if (rank % 2 == 0) {
      MPI_Send(buf.data(), 64, MPI_DOUBLE, rank + 1, 4, MPI_COMM_WORLD);
    } else {
      MPI_Probe(rank - 1, 4, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Recv(out.data(), 64, MPI_DOUBLE, rank - 1, 4, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    }
    MPI_Allreduce(buf.data(), out.data(), 1024, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
    MPI_Finalize();
  };
  smpi::core::RunResult online;
  {
    tr::TiWriter writer(dir.str(), 16, "test");
    smpi::core::SmpiWorld world(platform, config, {&writer});
    world.run(16, app);
    online = world.result();
  }
  EXPECT_FALSE(online.analyzed);
  ASSERT_EQ(online.rank_compute_s.size(), 16u);
  ASSERT_EQ(online.rank_comm_s.size(), 16u);

  const tr::ReplayResult replayed = tr::replay_trace(platform, config, dir.str());
  EXPECT_FALSE(replayed.analyzed);
  EXPECT_NEAR(replayed.simulated_time, online.simulated_time, 1e-9 * online.simulated_time);
  ASSERT_EQ(replayed.rank_compute_s.size(), 16u);
  ASSERT_EQ(replayed.rank_comm_s.size(), 16u);
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_GT(online.rank_compute_s[r], 0.0) << "rank " << r;
    EXPECT_GT(online.rank_comm_s[r], 0.0) << "rank " << r;
    EXPECT_NEAR(replayed.rank_compute_s[r], online.rank_compute_s[r],
                1e-9 * online.rank_compute_s[r])
        << "rank " << r;
    EXPECT_NEAR(replayed.rank_comm_s[r], online.rank_comm_s[r], 1e-9 * online.rank_comm_s[r])
        << "rank " << r;
  }
}

TEST(TraceReplay, ReplayOnSlowerPlatformTakesLonger) {
  TempDir dir;
  auto platform = test_cluster(8);
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    std::vector<char> buf(1 << 20);
    MPI_Bcast(buf.data(), 1 << 20, MPI_CHAR, 0, MPI_COMM_WORLD);
    MPI_Finalize();
  };
  const double online = capture_run(platform, config, 8, app, dir.str());

  // Same trace, 10x slower links: the what-if axis the subsystem exists for.
  smpi::platform::FlatClusterParams slow;
  slow.nodes = 8;
  slow.link_bandwidth_bps = 1e7;
  slow.link_latency_s = 1e-4;
  slow.speed_flops = 1e9;
  auto slow_platform = smpi::platform::build_flat_cluster(slow);
  const auto slow_result = tr::replay_trace(slow_platform, config, dir.str());
  EXPECT_GT(slow_result.simulated_time, online * 2);
}

TEST(TraceReplay, CaptureRejectsCollectivesOnDerivedComms) {
  TempDir dir;
  auto platform = test_cluster(4);
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    MPI_Comm half;
    MPI_Comm_split(MPI_COMM_WORLD, my_rank() % 2, 0, &half);
    int v = 1, s = 0;
    MPI_Allreduce(&v, &s, 1, MPI_INT, MPI_SUM, half);  // must throw under capture
    MPI_Finalize();
  };
  EXPECT_THROW(capture_run(platform, config, 4, app, dir.str()), smpi::util::ContractError);
}

// A probe of MPI_PROC_NULL is captured as `probe -2 ...` and replays
// without blocking, to the online time.
TEST(TraceReplay, ProcNullProbeReplaysWithoutBlocking) {
  TempDir dir;
  auto platform = test_cluster(2);
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    smpi_execute_flops(1e6);
    MPI_Probe(MPI_PROC_NULL, 4, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
    smpi_execute_flops(1e6);
    MPI_Finalize();
  };
  const double online = capture_run(platform, config, 2, app, dir.str());
  const tr::TiTrace trace = tr::load_ti_trace(dir.str());
  std::vector<std::string> lines;
  for (const tr::TiRecord& r : trace.ranks[0]) lines.push_back(tr::serialize_record(r));
  EXPECT_NE(std::find(lines.begin(), lines.end(), "probe -2 4"), lines.end());
  const auto result = tr::replay_trace(platform, config, trace);
  EXPECT_FALSE(result.aborted);
  EXPECT_NEAR(result.simulated_time, online, 1e-9 * online);
}

namespace {

// Two ranks exchange `messages` messages each way through nonblocking
// requests whose ids come from `id`. Each rank waits for its first request
// alone, then for the rest in one waitall that lists them in reverse.
tr::TiTrace exchange_trace(int messages, const std::function<long long(int)>& id) {
  std::vector<std::vector<tr::TiRecord>> ranks(2);
  for (int rank = 0; rank < 2; ++rank) {
    auto& out = ranks[static_cast<std::size_t>(rank)];
    tr::TiRecord r;
    r.op = tr::TiOp::kInit;
    out.push_back(r);
    std::vector<long long> posted;
    for (int m = 0; m < messages; ++m) {
      for (const tr::TiOp op : {tr::TiOp::kIrecv, tr::TiOp::kIsend}) {
        r = tr::TiRecord{};
        r.op = op;
        r.peer = 1 - rank;
        r.count = 1000 * (m + 1);
        r.tag = m;
        r.req = id(2 * m + (op == tr::TiOp::kIsend ? 1 : 0));
        out.push_back(r);
        posted.push_back(r.req);
      }
    }
    // The last receive first, out of posting order...
    r = tr::TiRecord{};
    r.op = tr::TiOp::kWait;
    r.req = posted[posted.size() - 2];
    out.push_back(r);
    posted.erase(posted.end() - 2);
    // ...then everything else, newest first.
    r = tr::TiRecord{};
    r.op = tr::TiOp::kWaitall;
    r.reqs.assign(posted.rbegin(), posted.rend());
    out.push_back(r);
    r = tr::TiRecord{};
    r.op = tr::TiOp::kFinalize;
    out.push_back(r);
  }
  return pack_trace(ranks);
}

}  // namespace

// Request ids are opaque: sparse, huge or negative ids, waited on out of
// order, replay exactly like dense ones, and enough of them are outstanding
// at once to make the rank's request table grow.
TEST(TraceReplay, SparseRequestIdsReplayLikeDenseOnes) {
  auto platform = test_cluster(2);
  auto config = fast_config();
  const tr::TiTrace dense = exchange_trace(40, [](int i) { return static_cast<long long>(i); });
  const tr::TiTrace sparse = exchange_trace(40, [](int i) {
    return i % 3 == 0 ? LLONG_MAX - i : (i % 3 == 1 ? 1000000000000000LL * (i + 1) : -7LL * i - 3);
  });
  const auto expected = tr::replay_trace(platform, config, dense);
  const auto actual = tr::replay_trace(platform, config, sparse);
  ASSERT_FALSE(expected.aborted);
  EXPECT_FALSE(actual.aborted);
  EXPECT_GT(expected.simulated_time, 0);
  EXPECT_EQ(actual.simulated_time, expected.simulated_time);
  EXPECT_EQ(actual.records, expected.records);
}

TEST(TraceReplay, WaitOnUnknownRequestIdIsAContractError) {
  auto platform = test_cluster(2);
  tr::TiTrace trace = exchange_trace(2, [](int i) { return 1000000000000000LL + i; });
  std::vector<std::vector<tr::TiRecord>> ranks = {unpack(trace.ranks[0]), unpack(trace.ranks[1])};
  tr::TiRecord again;  // rank 0 waits once more on a request it already completed
  again.op = tr::TiOp::kWait;
  again.req = 1000000000000000LL;
  ranks[0].insert(ranks[0].end() - 1, again);
  try {
    tr::replay_trace(platform, fast_config(), pack_trace(ranks));
    ADD_FAILURE() << "a wait on a completed request id must throw";
  } catch (const smpi::util::ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("trace waits on unknown request id"), std::string::npos)
        << e.what();
  }
}

// The capture side's (count, elem) rule at its edges: a zero-size datatype
// records zero elements of one byte, and a side that is not significant on a
// rank (a scatter leaf's sendcount and sendtype, here garbage and
// MPI_DATATYPE_NULL) is never read.
TEST(TraceCapture, ZeroSizeAndNullTypesRecordPinnedBlocks) {
  TempDir dir;
  auto platform = test_cluster(3);
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    const int rank = my_rank();
    MPI_Datatype empty;
    MPI_Type_contiguous(0, MPI_INT, &empty);
    MPI_Type_commit(&empty);
    int buf[8] = {};
    MPI_Bcast(buf, 5, empty, 1, MPI_COMM_WORLD);
    std::vector<int> all(9);
    if (rank == 0) {
      MPI_Scatter(all.data(), 3, MPI_INT, buf, 3, MPI_INT, 0, MPI_COMM_WORLD);
    } else {
      MPI_Scatter(nullptr, 99, MPI_DATATYPE_NULL, buf, 3, MPI_INT, 0, MPI_COMM_WORLD);
    }
    MPI_Type_free(&empty);
    MPI_Finalize();
  };
  capture_run(platform, fast_config(), 3, app, dir.str());
  for (int rank = 0; rank < 3; ++rank) {
    std::ifstream in(dir.path / ("rank_" + std::to_string(rank) + ".ti"));
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    const std::vector<std::string> expected = {"init", "bcast 0 1 1", "scatter 3 4 3 4 0",
                                               "finalize"};
    EXPECT_EQ(lines, expected) << "rank " << rank;
  }
}

// A zero-size datatype moves no bytes on either side of a collective, and
// its capture records zero elements there (scalar counts and count arrays
// alike), so the replay moves the same zero bytes and takes the same
// size-based algorithm dispatch, with and without payloads.
TEST(TraceReplay, ZeroSizeTypesReplayExactly) {
  TempDir dir;
  auto platform = test_cluster(8);
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    MPI_Datatype empty;
    MPI_Type_contiguous(0, MPI_INT, &empty);
    MPI_Type_commit(&empty);
    int in[8] = {};
    int out[8] = {};
    const int counts[8] = {4096, 4096, 4096, 4096, 4096, 4096, 4096, 4096};
    const int displs[8] = {};
    MPI_Alltoall(in, 4096, empty, out, 4096, empty, MPI_COMM_WORLD);
    MPI_Gather(in, 4096, empty, out, 4096, empty, 0, MPI_COMM_WORLD);
    MPI_Scatter(in, 4096, empty, out, 4096, empty, 0, MPI_COMM_WORLD);
    MPI_Allgather(in, 4096, empty, out, 4096, empty, MPI_COMM_WORLD);
    MPI_Scatterv(in, counts, displs, empty, out, 4096, empty, 0, MPI_COMM_WORLD);
    MPI_Gatherv(in, 4096, empty, out, counts, displs, empty, 0, MPI_COMM_WORLD);
    MPI_Allgatherv(in, 4096, empty, out, counts, displs, empty, MPI_COMM_WORLD);
    MPI_Alltoallv(in, counts, displs, empty, out, counts, displs, empty, MPI_COMM_WORLD);
    MPI_Type_free(&empty);
    MPI_Finalize();
  };
  const double online = capture_run(platform, config, 8, app, dir.str());
  const tr::TiTrace trace = tr::load_ti_trace(dir.str());
  for (int rank : {0, 1}) {
    for (const tr::TiRecord& r : trace.ranks[rank]) {
      long long bytes = r.count * r.elem + r.count2 * r.elem2;
      for (long long c : r.counts) bytes += c * r.elem;
      for (long long c : r.counts2) bytes += c * r.elem2;
      EXPECT_EQ(bytes, 0) << "rank " << rank << ": " << tr::serialize_record(r);
    }
  }
  for (bool payload_free : {true, false}) {
    tr::ReplayOptions options;
    options.payload_free = payload_free;
    const auto result = tr::replay_trace(platform, config, dir.str(), options);
    EXPECT_FALSE(result.aborted) << "payload_free=" << payload_free << ": " << result.failure;
    EXPECT_NEAR(result.simulated_time, online, 1e-9 * online) << "payload_free=" << payload_free;
  }
}

// ---------------------------------------------------------------------------
// Payload-free mode
// ---------------------------------------------------------------------------

TEST(PayloadFree, TimingMatchesNormalModeWithoutTouchingPayload) {
  auto run = [](bool payload_free) {
    auto config = fast_config();
    config.payload_free = payload_free;
    return run_mpi(4, [] {
      const int rank = my_rank();
      std::vector<char> buf(1 << 16, static_cast<char>(rank));
      if (rank == 0) {
        MPI_Send(buf.data(), 1 << 16, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
      } else if (rank == 1) {
        MPI_Status status;
        MPI_Recv(buf.data(), 1 << 16, MPI_CHAR, 0, 0, MPI_COMM_WORLD, &status);
        int got = 0;
        MPI_Get_count(&status, MPI_CHAR, &got);
        EXPECT_EQ(got, 1 << 16);  // statuses still track sizes
      }
      std::vector<char> all(4);
      char mine = static_cast<char>('a' + rank);
      MPI_Allgather(&mine, 1, MPI_CHAR, all.data(), 1, MPI_CHAR, MPI_COMM_WORLD);
    }, config);
  };
  const double normal = run(false);
  const double payload_free = run(true);
  EXPECT_NEAR(payload_free, normal, 1e-12 * normal);
}

TEST(PayloadFree, ReceiverBufferIsNeverWritten) {
  auto config = fast_config();
  config.payload_free = true;
  run_mpi(2, [] {
    const int rank = my_rank();
    std::vector<char> buf(1024, rank == 0 ? 'S' : 'R');
    if (rank == 0) {
      MPI_Send(buf.data(), 1024, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
    } else {
      MPI_Recv(buf.data(), 1024, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      for (char c : buf) ASSERT_EQ(c, 'R');  // payload never materialized
    }
  }, config);
}

// ---------------------------------------------------------------------------
// Paje timeline
// ---------------------------------------------------------------------------

TEST(Paje, TimelineHasBalancedStatesAndContainers) {
  TempDir dir;
  const std::string path = (dir.path / "out.paje").string();
  auto platform = test_cluster(4);
  auto config = fast_config();
  {
    tr::PajeWriter paje(path);
    smpi::core::SmpiWorld world(platform, config, {nullptr, &paje});
    world.run(4, [](int, char**) {
      MPI_Init(nullptr, nullptr);
      std::vector<char> buf(4096);
      MPI_Bcast(buf.data(), 4096, MPI_CHAR, 0, MPI_COMM_WORLD);
      smpi_execute_flops(1e6);
      MPI_Finalize();
    });
    EXPECT_GT(paje.events(), 0u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int pushes = 0, pops = 0, creates = 0, destroys = 0;
  bool header = false;
  while (std::getline(in, line)) {
    if (line.rfind("%EventDef PajeDefineContainerType", 0) == 0) header = true;
    if (line.rfind("4 ", 0) == 0) ++pushes;
    if (line.rfind("5 ", 0) == 0) ++pops;
    if (line.rfind("2 ", 0) == 0) ++creates;
    if (line.rfind("3 ", 0) == 0) ++destroys;
  }
  EXPECT_TRUE(header);
  EXPECT_EQ(pushes, pops);         // every MPI call opens and closes a state
  EXPECT_EQ(creates, destroys);    // sim + one container per rank
  EXPECT_EQ(creates, 5);
  // init, bcast, computing, finalize per rank.
  EXPECT_EQ(pushes, 4 * 4);
}

// Ranks still parked inside an MPI call when an abort ends the run unwind
// in ~SmpiWorld, after run() returned. The world finished its observers at
// the abort and never touches them again, so the caller may destroy them
// first (a use-after-free under ASan otherwise).
TEST(Paje, ObserversMayDieBeforeTheWorldAfterAnAbort) {
  TempDir dir;
  const std::string path = (dir.path / "abort.paje").string();
  auto platform = test_cluster(2);
  auto paje = std::make_unique<tr::PajeWriter>(path);
  auto spans = std::make_unique<smpi::obs::SpanCollector>(2);
  auto world = std::make_unique<smpi::core::SmpiWorld>(
      platform, fast_config(), smpi::core::Observers{nullptr, paje.get(), spans.get()});
  world->run(2, [](int, char**) {
    MPI_Init(nullptr, nullptr);
    if (my_rank() == 0) {
      smpi_execute_flops(1e6);
      MPI_Abort(MPI_COMM_WORLD, 3);
    }
    int v = 0;
    MPI_Recv(&v, 1, MPI_INT, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);  // parks rank 1
  });
  EXPECT_TRUE(world->aborted());
  EXPECT_EQ(world->observers().paje, nullptr);
  EXPECT_EQ(world->observers().spans, nullptr);
  ASSERT_EQ(spans->spans(1).size(), 2u);  // init, then the recv still open at the abort
  EXPECT_EQ(std::string(spans->spans(1).back().op), "recv");
  paje.reset();
  spans.reset();
  world.reset();  // rank 1 unwinds out of MPI_Recv's ApiScope here
}

// Replay drives the same Paje hooks through the replayed MPI calls.
TEST(Paje, ReplayEmitsTimeline) {
  TempDir dir;
  auto platform = test_cluster(4);
  auto config = fast_config();
  auto app = [](int, char**) {
    MPI_Init(nullptr, nullptr);
    std::vector<char> buf(1024);
    MPI_Bcast(buf.data(), 1024, MPI_CHAR, 0, MPI_COMM_WORLD);
    MPI_Finalize();
  };
  capture_run(platform, config, 4, app, dir.str());

  const std::string path = (dir.path / "replay.paje").string();
  tr::PajeWriter paje(path);
  tr::ReplayOptions options;
  options.paje = &paje;
  const auto result = tr::replay_trace(platform, config, dir.str(), options);
  EXPECT_GT(result.simulated_time, 0);
  EXPECT_GT(paje.events(), 0u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
}

// ---------------------------------------------------------------------------
// Up-front trace validation (missing / truncated rank files)
// ---------------------------------------------------------------------------

namespace {

// A valid 2-rank trace to corrupt: init, compute, finalize per rank.
void write_valid_trace(const std::string& dir) {
  tr::TiWriter writer(dir, 2, "unit");
  tr::TiRecord r;
  r.op = tr::TiOp::kInit;
  writer.append(0, r);
  writer.append(1, r);
  r.op = tr::TiOp::kCompute;
  r.value = 1e6;
  writer.append(0, r);
  writer.append(1, r);
  r.op = tr::TiOp::kFinalize;
  writer.append(0, r);
  writer.append(1, r);
  writer.finish();
}

std::string load_error(const std::string& dir) {
  try {
    tr::load_ti_trace(dir);
  } catch (const smpi::util::ContractError& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(TraceValidation, MissingRankFileNamesRankAndPath) {
  TempDir dir;
  write_valid_trace(dir.str());
  fs::remove(dir.path / "rank_1.ti");
  const std::string error = load_error(dir.str());
  EXPECT_NE(error.find("rank 1"), std::string::npos) << error;
  EXPECT_NE(error.find("rank_1.ti"), std::string::npos) << error;
  EXPECT_NE(error.find("2 ranks"), std::string::npos) << error;
}

TEST(TraceValidation, TruncatedRankFileNamesLastRecordAndLine) {
  TempDir dir;
  write_valid_trace(dir.str());
  // Drop the trailing finalize from rank 0 — the shape an interrupted
  // capture leaves behind. Replaying it would deadlock; loading must not.
  {
    std::ofstream out(dir.path / "rank_0.ti", std::ios::trunc);
    tr::TiRecord r;
    r.op = tr::TiOp::kInit;
    out << tr::serialize_record(r) << "\n";
    r.op = tr::TiOp::kCompute;
    r.value = 1e6;
    out << tr::serialize_record(r) << "\n";
  }
  const std::string error = load_error(dir.str());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  EXPECT_NE(error.find("rank_0.ti"), std::string::npos) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("compute"), std::string::npos) << error;
}

TEST(TraceValidation, LenientLoadAcceptsTruncatedTraces) {
  TempDir dir;
  write_valid_trace(dir.str());
  {
    std::ofstream out(dir.path / "rank_0.ti", std::ios::trunc);
    tr::TiRecord r;
    r.op = tr::TiOp::kInit;
    out << tr::serialize_record(r) << "\n";
  }
  // ti_inspect's diagnostic mode: load whatever is there.
  const tr::TiTrace trace = tr::load_ti_trace(dir.str(), /*validate=*/false);
  EXPECT_EQ(trace.ranks[0].size(), 1u);
  EXPECT_EQ(trace.ranks[1].size(), 3u);
}

TEST(TraceValidation, EmptyRankFileIsRejected) {
  TempDir dir;
  write_valid_trace(dir.str());
  { std::ofstream out(dir.path / "rank_0.ti", std::ios::trunc); }
  const std::string error = load_error(dir.str());
  EXPECT_NE(error.find("empty"), std::string::npos) << error;
  EXPECT_NE(error.find("rank 0"), std::string::npos) << error;
}

TEST(TraceValidation, TraceNotStartingWithInitIsRejected) {
  TempDir dir;
  write_valid_trace(dir.str());
  {
    std::ofstream out(dir.path / "rank_1.ti", std::ios::trunc);
    tr::TiRecord r;
    r.op = tr::TiOp::kCompute;
    r.value = 1e6;
    out << tr::serialize_record(r) << "\n";
    r.op = tr::TiOp::kFinalize;
    out << tr::serialize_record(r) << "\n";
  }
  const std::string error = load_error(dir.str());
  EXPECT_NE(error.find("does not start with init"), std::string::npos) << error;
  EXPECT_NE(error.find("rank_1.ti"), std::string::npos) << error;
}

namespace {

// Writes a one-rank trace whose rank file holds exactly `rank0`.
void write_one_rank_trace(const std::string& dir, const std::string& rank0) {
  std::ofstream(dir + "/manifest.txt") << "smpi-ti 1\nranks 1\napp unit\n";
  std::ofstream(dir + "/rank_0.ti", std::ios::binary) << rank0;
}

}  // namespace

TEST(TraceValidation, LoaderKeepsCommentBlankAndCrlfLeniencies) {
  TempDir dir;
  write_one_rank_trace(dir.str(),
                       "# captured by hand\n"
                       "\n"
                       "init\r\n"
                       "\r\n"
                       "  compute\t1e6\r\n"
                       "#compute 5\n"
                       "\tsend 1 8 1 0\n"
                       "finalize");  // no trailing newline
  const tr::TiTrace trace = tr::load_ti_trace(dir.str(), /*validate=*/true);
  ASSERT_EQ(trace.ranks.size(), 1u);
  ASSERT_EQ(trace.ranks[0].size(), 4u);
  const std::vector<tr::TiRecord> records = unpack(trace.ranks[0]);
  EXPECT_EQ(records[1].op, tr::TiOp::kCompute);
  EXPECT_EQ(records[1].value, 1e6);
  EXPECT_EQ(tr::serialize_record(records[2]), "send 1 8 1 0");
  EXPECT_EQ(records[3].op, tr::TiOp::kFinalize);
}

TEST(TraceValidation, MalformedRecordNamesPathAndLine) {
  TempDir dir;
  // '#' starts a comment only at column 0.
  write_one_rank_trace(dir.str(), "init\n\n  # not a comment\nfinalize\n");
  const std::string error = load_error(dir.str());
  EXPECT_NE(error.find("malformed trace record"), std::string::npos) << error;
  EXPECT_NE(error.find("rank_0.ti:3"), std::string::npos) << error;
}

TEST(TraceValidation, HugeListCountFailsCleanly) {
  for (const char* line : {"waitall 200000000 1", "waitall 1000000000000 1"}) {
    TempDir dir;
    write_one_rank_trace(dir.str(), std::string("init\n") + line + "\nfinalize\n");
    const std::string error = load_error(dir.str());
    EXPECT_NE(error.find("rank_0.ti:2"), std::string::npos) << error;
    EXPECT_NE(error.find(line), std::string::npos) << error;
  }
}

TEST(TraceValidation, BogusManifestRankCountFailsOnFirstMissingFile) {
  TempDir dir;
  write_valid_trace(dir.str());
  std::ofstream(dir.path / "manifest.txt") << "smpi-ti 1\nranks 2000000000\napp unit\n";
  const std::string error = load_error(dir.str());
  EXPECT_NE(error.find("trace file missing for rank 2"), std::string::npos) << error;
  EXPECT_NE(error.find("2000000000 ranks"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzing of the TI reader
// ---------------------------------------------------------------------------

namespace {

// One record of every op, every field away from its default, so each
// field's token is present to be mutated.
std::vector<std::string> every_op_line() {
  std::vector<std::string> lines;
  for (int op = 0; op <= static_cast<int>(tr::TiOp::kReduceScatter); ++op) {
    tr::TiRecord r;
    r.op = static_cast<tr::TiOp>(op);
    r.value = 1.2345678901234567e9;
    r.peer = 3;
    r.peer2 = tr::kPeerAny;
    r.tag = 17;
    r.tag2 = tr::kTagAny;
    r.count = 1024;
    r.count2 = 2048;
    r.elem = 8;
    r.elem2 = 4;
    r.req = 5;
    r.commutative = false;
    r.reqs = {1, 2, 3};
    r.counts = {10, 20, 30};
    r.counts2 = {40, 50, 60};
    lines.push_back(tr::serialize_record(r));
  }
  return lines;
}

// Applies one mutation, picked by `rng`: a byte flip, a truncation, a digit
// run, a duplicated or deleted token, or a huge count before a token.
void mutate(std::string* text, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  static const std::string kBytes = "0123456789-+.eE \t\r\n#xinfa";
  const auto token_at = [text](std::size_t pos, std::size_t* begin, std::size_t* end) {
    *begin = text->find_last_of(" \n", pos);
    *begin = *begin == std::string::npos ? 0 : *begin + 1;
    *end = text->find_first_of(" \n", pos);
    if (*end == std::string::npos) *end = text->size();
  };
  const std::size_t pos = pick(text->size());
  switch (rng() % 6) {
    case 0:
      if (!text->empty()) {
        (*text)[pos] = rng() % 2 ? kBytes[pick(kBytes.size())] : static_cast<char>(rng());
      }
      break;
    case 1:
      text->resize(pos);
      break;
    case 2:
      text->insert(pos, 1 + pick(30), static_cast<char>('0' + pick(10)));
      break;
    case 3: {
      std::size_t begin = 0;
      std::size_t end = 0;
      token_at(pos, &begin, &end);
      text->insert(begin, text->substr(begin, end - begin) + " ");
      break;
    }
    case 4: {
      std::size_t begin = 0;
      std::size_t end = 0;
      token_at(pos, &begin, &end);
      text->erase(begin, std::min(end + 1, text->size()) - begin);
      break;
    }
    default: {
      static const char* const kHuge[] = {"200000000 ", "1000000000000 ", "9223372036854775807 ",
                                         "99999999999999999999 ", "-9223372036854775808 "};
      std::size_t begin = 0;
      std::size_t end = 0;
      token_at(pos, &begin, &end);
      text->insert(begin, kHuge[pick(std::size(kHuge))]);
      break;
    }
  }
}

}  // namespace

TEST(TiReaderFuzz, MutatedRecordsParseToRoundTrippingRecordsOrFail) {
  std::mt19937_64 rng(20240611);
  int accepted = 0;
  int rejected = 0;
  for (const std::string& seed : every_op_line()) {
    for (int iteration = 0; iteration < 2000; ++iteration) {
      std::string line = seed;
      for (int m = 1 + static_cast<int>(rng() % 3); m > 0; --m) mutate(&line, rng);
      tr::TiRecord parsed;
      if (!tr::parse_record(line, &parsed)) {
        ++rejected;
        continue;
      }
      ++accepted;
      const std::string canonical = tr::serialize_record(parsed);
      tr::TiRecord again;
      ASSERT_TRUE(tr::parse_record(canonical, &again))
          << "'" << line << "' -> '" << canonical << "'";
      ASSERT_EQ(tr::serialize_record(again), canonical) << "'" << line << "'";
      // Whatever the parser accepts must also survive the packed form.
      tr::TiRecords packed;
      packed.push_back(parsed);
      ASSERT_EQ(tr::serialize_record(*packed.begin()), canonical) << "'" << line << "'";
    }
  }
  // Both outcomes must be exercised, or the mutations are not probing much.
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(rejected, 1000);
}

TEST(TiReaderFuzz, MutatedTraceFilesLoadOrThrowContractError) {
  TempDir dir;
  write_valid_trace(dir.str());
  // Rank 0 gets every op, so list and v-variant lines get mutated too.
  std::string rank0 = "init\n";
  for (const std::string& line : every_op_line()) rank0 += line + "\n";
  rank0 += "finalize\n";
  const std::string manifest = "smpi-ti 1\nranks 2\napp unit\n";
  const auto write = [&dir](const char* name, const std::string& text) {
    std::ofstream(dir.path / name, std::ios::binary | std::ios::trunc) << text;
  };
  write("rank_0.ti", rank0);

  std::mt19937_64 rng(977);
  int loaded = 0;
  int rejected = 0;
  for (int iteration = 0; iteration < 1000; ++iteration) {
    const bool mutate_manifest = iteration % 4 == 3;
    const char* name = mutate_manifest ? "manifest.txt" : "rank_0.ti";
    const std::string& pristine = mutate_manifest ? manifest : rank0;
    std::string text = pristine;
    for (int m = 1 + static_cast<int>(rng() % 4); m > 0; --m) mutate(&text, rng);
    write(name, text);
    for (const bool validate : {true, false}) {
      try {
        tr::load_ti_trace(dir.str(), validate);
        ++loaded;
      } catch (const smpi::util::ContractError&) {
        ++rejected;
      } catch (const std::exception& e) {
        FAIL() << "non-contract exception '" << e.what() << "' on:\n" << text;
      }
    }
    write(name, pristine);
  }
  EXPECT_GT(loaded, 100);
  EXPECT_GT(rejected, 100);
}
