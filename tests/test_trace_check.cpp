// Static trace checker: unmatched p2p counterparts, collective divergence,
// and the wildcard-receive soundness rule (no per-bucket findings for ranks
// that post MPI_ANY_SOURCE / MPI_ANY_TAG).
#include "trace/check.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "smpi_test_util.hpp"
#include "trace/reader.hpp"

namespace st = smpi::trace;

namespace {

using Ranks = std::vector<std::vector<st::TiRecord>>;

st::TiRecord rec(st::TiOp op) {
  st::TiRecord r;
  r.op = op;
  return r;
}

st::TiRecord p2p(st::TiOp op, long long peer, long long tag) {
  st::TiRecord r;
  r.op = op;
  r.peer = peer;
  r.tag = tag;
  r.count = 1;
  r.elem = 8;
  return r;
}

// Two ranks exchanging one tagged message each, plus a barrier; each test
// edits these records, then packs them into the trace it checks.
Ranks clean_ranks() {
  Ranks ranks(2);
  for (int rank = 0; rank < 2; ++rank) {
    auto& records = ranks[static_cast<std::size_t>(rank)];
    records.push_back(rec(st::TiOp::kInit));
    records.push_back(p2p(st::TiOp::kIsend, rank ^ 1, 5));
    records.push_back(p2p(st::TiOp::kIrecv, rank ^ 1, 5));
    records.push_back(rec(st::TiOp::kBarrier));
    records.push_back(rec(st::TiOp::kFinalize));
  }
  return ranks;
}

st::TraceCheckReport check(const Ranks& ranks) {
  return st::check_trace(smpi_test::pack_trace(ranks));
}

bool any_finding_contains(const st::TraceCheckReport& report, const std::string& needle) {
  for (const auto& finding : report.findings) {
    if (finding.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

TEST(TraceCheck, CleanTraceHasNoFindings) {
  const auto report = check(clean_ranks());
  EXPECT_TRUE(report.ok()) << report.findings.front().message;
}

TEST(TraceCheck, MismatchedTagIsFlaggedBothWays) {
  auto ranks = clean_ranks();
  ranks[0][1].tag = 99;  // rank 0's send no longer matches rank 1's recv
  const auto report = check(ranks);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_finding_contains(report, "tag 99")) << "unmatched send must be flagged";
  EXPECT_TRUE(any_finding_contains(report, "without a matching send"));
}

TEST(TraceCheck, MissingRecvIsFlagged) {
  auto ranks = clean_ranks();
  auto& r1 = ranks[1];
  r1.erase(r1.begin() + 2);  // drop rank 1's irecv
  const auto report = check(ranks);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_finding_contains(report, "rank 1: peers send 1 message but it posts 0 receives"));
}

TEST(TraceCheck, WildcardRecvSuppressesPerBucketFindings) {
  auto ranks = clean_ranks();
  ranks[0][1].tag = 99;           // would be a per-bucket mismatch...
  ranks[1][2].tag = st::kTagAny;  // ...but rank 1 receives ANY_TAG
  const auto report = check(ranks);
  EXPECT_TRUE(report.ok()) << report.findings.front().message;
}

TEST(TraceCheck, WildcardStillChecksAggregateBalance) {
  auto ranks = clean_ranks();
  ranks[1][2].peer = st::kPeerAny;  // wildcard recv...
  auto& r0 = ranks[0];
  r0.insert(r0.begin() + 2, p2p(st::TiOp::kIsend, 1, 7));  // ...but 2 sends, 1 recv
  const auto report = check(ranks);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_finding_contains(report, "peers send 2 messages but it posts 1 receive"));
}

TEST(TraceCheck, CollectiveSequenceDivergenceIsFlagged) {
  auto ranks = clean_ranks();
  ranks[1][3] = rec(st::TiOp::kAllreduce);  // rank 0 enters barrier, rank 1 allreduce
  const auto report = check(ranks);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_finding_contains(report, "collective #0 is allreduce but rank 0 enters barrier"));
}

TEST(TraceCheck, CollectiveCountMismatchIsFlagged) {
  auto ranks = clean_ranks();
  ranks[0].insert(ranks[0].begin() + 4, rec(st::TiOp::kBarrier));
  const auto report = check(ranks);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_finding_contains(report, "rank 1: enters 1 collective but rank 0 enters 2"));
}

TEST(TraceCheck, SendrecvContributesBothSides) {
  Ranks ranks(2);
  for (int rank = 0; rank < 2; ++rank) {
    st::TiRecord r;
    r.op = st::TiOp::kSendrecv;
    r.peer = rank ^ 1;   // send side
    r.tag = 3;
    r.count = 4;
    r.elem = 8;
    r.peer2 = rank ^ 1;  // recv side
    r.tag2 = 3;
    r.count2 = 4;
    r.elem2 = 8;
    auto& records = ranks[static_cast<std::size_t>(rank)];
    records.push_back(rec(st::TiOp::kInit));
    records.push_back(r);
    records.push_back(rec(st::TiOp::kFinalize));
  }
  EXPECT_TRUE(check(ranks).ok());
  ranks[1][1].tag2 = 4;  // rank 1 now receives a tag nobody sends
  const auto report = check(ranks);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_finding_contains(report, "tag 4"));
}

TEST(TraceCheck, ProcNullSidesAreIgnored) {
  auto ranks = clean_ranks();
  // A stencil edge rank sends to MPI_PROC_NULL: no counterpart required.
  ranks[0].insert(ranks[0].begin() + 2, p2p(st::TiOp::kIsend, st::kPeerNull, 0));
  ranks[1].insert(ranks[1].begin() + 2, p2p(st::TiOp::kIrecv, st::kPeerNull, 0));
  EXPECT_TRUE(check(ranks).ok());
}

TEST(TraceCheck, OutOfWorldPeerIsFlagged) {
  auto ranks = clean_ranks();
  ranks[0][1].peer = 7;  // only ranks 0..1 exist
  const auto report = check(ranks);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_finding_contains(report, "outside the 2-rank trace"));
}
