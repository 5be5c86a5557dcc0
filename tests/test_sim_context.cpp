#include "sim/context.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "smpi_test_util.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define SMPI_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SMPI_TEST_ASAN 1
#endif
#endif

namespace ss = smpi::sim;
namespace tr = smpi::trace;

namespace {

constexpr std::size_t kMiB = 1024 * 1024;

// Resident memory of this process right now, from /proc/self/statm.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// Peak resident memory of this process so far.
std::size_t peak_resident_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

// Recurses until the fiber runs out of stack; the depth cap only keeps the
// recursion finite in the compiler's eyes.
int recurse(int depth) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  if (depth > 1000000) return frame[0];
  return recurse(depth + 1) + frame[0];
}

// Both backends this code builds: "raw" is the platform's own (the raw
// switch on x86-64 Linux, ucontext elsewhere), "ucontext" the portable one.
std::unique_ptr<ss::ContextFactory> make_factory(const std::string& backend,
                                                 std::size_t stack_bytes) {
  return backend == "raw" ? ss::ContextFactory::make(stack_bytes)
                          : ss::ContextFactory::make_ucontext(stack_bytes);
}

}  // namespace

class ContextBackendTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ContextBackendTest, RunsBodyOnResume) {
  auto factory = make_factory(GetParam(), 64 * 1024);
  bool ran = false;
  auto ctx = factory->create([&] { ran = true; });
  EXPECT_FALSE(ran);
  ctx->resume();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(ctx->done());
}

TEST_P(ContextBackendTest, SuspendResumeRoundTrips) {
  auto factory = make_factory(GetParam(), 64 * 1024);
  std::vector<int> order;
  ss::Context* self = nullptr;
  auto ctx = factory->create([&] {
    order.push_back(1);
    self->suspend();
    order.push_back(3);
    self->suspend();
    order.push_back(5);
  });
  self = ctx.get();
  ctx->resume();
  order.push_back(2);
  ctx->resume();
  order.push_back(4);
  ctx->resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(ctx->done());
}

TEST_P(ContextBackendTest, LocalStateSurvivesSuspension) {
  auto factory = make_factory(GetParam(), 64 * 1024);
  ss::Context* self = nullptr;
  long long sum = 0;
  auto ctx = factory->create([&] {
    long long local = 0;
    for (int i = 0; i < 10; ++i) {
      local += i;
      self->suspend();
    }
    sum = local;
  });
  self = ctx.get();
  while (!ctx->done()) ctx->resume();
  EXPECT_EQ(sum, 45);
}

TEST_P(ContextBackendTest, DestroyingSuspendedContextUnwindsStack) {
  auto factory = make_factory(GetParam(), 64 * 1024);
  // The destructor of `guard` must run when the unfinished context is
  // destroyed — this is what releases application resources at teardown.
  bool destroyed = false;
  struct Guard {
    bool* flag;
    ~Guard() { *flag = true; }
  };
  ss::Context* self = nullptr;
  {
    auto ctx = factory->create([&] {
      Guard guard{&destroyed};
      self->suspend();
      // never reached
      FAIL() << "context resumed after kill";
    });
    self = ctx.get();
    ctx->resume();
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

TEST_P(ContextBackendTest, DestroyingNeverStartedContextIsSafe) {
  auto factory = make_factory(GetParam(), 64 * 1024);
  bool ran = false;
  { auto ctx = factory->create([&] { ran = true; }); }
  EXPECT_FALSE(ran);
}

TEST_P(ContextBackendTest, ManyContextsInterleave) {
  auto factory = make_factory(GetParam(), 64 * 1024);
  constexpr int kContexts = 50;
  std::vector<std::unique_ptr<ss::Context>> contexts(kContexts);
  std::vector<ss::Context*> raw(kContexts);
  int counter = 0;
  for (int i = 0; i < kContexts; ++i) {
    contexts[i] = factory->create([&raw, &counter, i] {
      for (int round = 0; round < 3; ++round) {
        ++counter;
        raw[i]->suspend();
      }
    });
    raw[i] = contexts[i].get();
  }
  for (int round = 0; round < 4; ++round) {
    for (auto& ctx : contexts) {
      if (!ctx->done()) ctx->resume();
    }
  }
  for (auto& ctx : contexts) EXPECT_TRUE(ctx->done());
  EXPECT_EQ(counter, kContexts * 3);
}

INSTANTIATE_TEST_SUITE_P(Backends, ContextBackendTest, ::testing::Values("raw", "ucontext"));

class FiberStackTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FiberStackTest, OverflowIsReportedByActorName) {
  EXPECT_EXIT(
      {
        auto factory = make_factory(GetParam(), 64 * 1024);
        auto ctx = factory->create([] { recurse(0); }, "rank-7");
        ctx->resume();
      },
      ::testing::KilledBySignal(SIGSEGV),
      "fiber stack overflow in actor rank-7 \\(64 KiB stack\\)");
}

TEST_P(FiberStackTest, SuspendedFibersCommitOnlyTouchedPages) {
#if defined(SMPI_TEST_ASAN)
  GTEST_SKIP() << "ASan's shadow memory makes resident-set sizes meaningless";
#endif
  auto factory = make_factory(GetParam(), 512 * 1024);
  constexpr int kFibers = 1024;
  std::vector<std::unique_ptr<ss::Context>> contexts(kFibers);
  std::vector<ss::Context*> raw(kFibers);
  const std::size_t before = resident_bytes();
  for (int i = 0; i < kFibers; ++i) {
    contexts[i] = factory->create([&raw, i] { raw[i]->suspend(); });
    raw[i] = contexts[i].get();
    contexts[i]->resume();
  }
  // 1024 x 512 KiB = 512 MiB if the stacks were committed up front.
  const std::size_t grown = resident_bytes() - before;
  EXPECT_LT(grown, 64 * kMiB) << "resident memory grew by " << grown / kMiB << " MiB";
  for (auto& ctx : contexts) ctx->resume();
  for (auto& ctx : contexts) EXPECT_TRUE(ctx->done());
}

INSTANTIATE_TEST_SUITE_P(Backends, FiberStackTest, ::testing::Values("raw", "ucontext"));

// A payload-free replay never writes message data, so its 256 MiB arena
// must stay uncommitted. replay_trace owns its fibers, so the check reads
// the peak reached while they ran, in a child process of its own.
TEST(LazyCommit, PayloadFreeReplayLeavesArenaUncommitted) {
#if defined(SMPI_TEST_ASAN)
  GTEST_SKIP() << "ASan's shadow memory makes resident-set sizes meaningless";
#endif
  constexpr long long kBytes = 256LL * 1024 * 1024;
  std::vector<std::vector<tr::TiRecord>> ranks(2);
  for (int rank = 0; rank < 2; ++rank) {
    tr::TiRecord init;
    init.op = tr::TiOp::kInit;
    tr::TiRecord transfer;
    transfer.op = rank == 0 ? tr::TiOp::kSend : tr::TiOp::kRecv;
    transfer.peer = 1 - rank;
    transfer.count = kBytes;
    tr::TiRecord finalize;
    finalize.op = tr::TiOp::kFinalize;
    ranks[rank] = {init, transfer, finalize};
  }
  const tr::TiTrace trace = smpi_test::pack_trace(ranks, "lazy-arena");
  ASSERT_EQ(tr::compute_arena_bytes(trace), kBytes);
  EXPECT_EXIT(
      {
        const auto platform = smpi_test::test_cluster(2);
        const std::size_t before = resident_bytes();
        const auto result = tr::replay_trace(platform, smpi_test::fast_config(), trace);
        const std::size_t grown = peak_resident_bytes() - before;
        std::fprintf(stderr, "replayed %lld records; resident memory grew by %zu MiB\n",
                     result.records, grown / kMiB);
        std::exit(grown < 32 * kMiB ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "replayed 6 records");
}
