// ti_inspect — summarize a captured TI trace directory.
//
//   ti_inspect <trace-dir>             per-op record counts + volume summary
//   ti_inspect <trace-dir> --dump [r]  print every record (of rank r)
//   ti_inspect <trace-dir> --summary   replay on a flat cluster and print the
//                                      result incl. p2p hot-path counters and
//                                      per-op message-size histograms
//                                      (count/total/min/p50/p95/max bytes)
//   ti_inspect <trace-dir> --check     static sanity check: unmatched p2p
//                                      counterparts, collective divergence
//
// Exit code: 0 on success, 1 on usage/load errors or --check findings. The
// --dump rank is a whole int in [0, ranks); any other mode is a usage error.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "platform/builders.hpp"
#include "trace/check.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "util/units.hpp"

namespace {

struct OpStats {
  long long records = 0;
  long long bytes = 0;  // p2p payload or collective send-side volume
};

long long record_bytes(const smpi::trace::TiRecord& r) {
  using smpi::trace::TiOp;
  switch (r.op) {
    case TiOp::kSend:
    case TiOp::kIsend:
    case TiOp::kRecv:
    case TiOp::kIrecv:
      return r.count * r.elem;
    case TiOp::kSendrecv:
      return r.count * r.elem + r.count2 * r.elem2;
    case TiOp::kBcast:
    case TiOp::kReduce:
    case TiOp::kAllreduce:
    case TiOp::kScan:
    case TiOp::kGather:
    case TiOp::kScatter:
    case TiOp::kAllgather:
    case TiOp::kAlltoall:
    case TiOp::kGatherv:
    case TiOp::kAllgatherv:
      return r.count * r.elem;
    case TiOp::kScatterv:  // send-side volume lives in the root's counts array
    case TiOp::kAlltoallv:
    case TiOp::kReduceScatter: {
      long long total = 0;
      for (long long c : r.counts) total += c;
      return total * r.elem;
    }
    default:
      return 0;
  }
}

// Nearest-rank percentile over an already-sorted sample.
long long percentile(const std::vector<long long>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(pos + 0.5)];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 3 ? argv[2] : "";
  if (argc < 2 || argc > (mode == "--dump" ? 4 : 3) ||
      !(mode.empty() || mode == "--dump" || mode == "--summary" || mode == "--check")) {
    std::fprintf(stderr, "usage: ti_inspect <trace-dir> [--dump [rank] | --summary | --check]\n");
    return 1;
  }
  const std::string dir = argv[1];

  try {
    const int dump_rank = argc == 4 ? smpi::util::parse_number<int>("--dump rank", argv[3]) : -1;
    // Lenient load: the inspector must be able to show how far an
    // interrupted capture got, which strict validation would reject.
    const smpi::trace::TiTrace trace = smpi::trace::load_ti_trace(dir, /*validate=*/false);
    if (mode == "--dump") {
      if (argc == 4 && (dump_rank < 0 || dump_rank >= trace.nranks)) {
        throw std::out_of_range("--dump rank " + std::to_string(dump_rank) + " is not in [0, " +
                                std::to_string(trace.nranks) + ")");
      }
      for (int rank = 0; rank < trace.nranks; ++rank) {
        if (dump_rank >= 0 && rank != dump_rank) continue;
        for (const auto& record : trace.ranks[static_cast<std::size_t>(rank)]) {
          std::printf("%-6d %s\n", rank, smpi::trace::serialize_record(record).c_str());
        }
      }
      return 0;
    }

    if (mode == "--check") {
      const smpi::trace::TraceCheckReport report = smpi::trace::check_trace(trace);
      if (report.ok()) {
        std::printf("trace: %s\nranks: %d\ncheck: ok\n", dir.c_str(), trace.nranks);
        return 0;
      }
      std::fprintf(stderr, "trace: %s\nranks: %d\ncheck: %zu finding(s)\n", dir.c_str(),
                   trace.nranks, report.findings.size());
      for (const auto& finding : report.findings) {
        std::fprintf(stderr, "  %s\n", finding.message.c_str());
      }
      return 1;
    }

    if (mode == "--summary") {
      // Replay on a flat cluster sized to the trace so the counters reflect
      // the same collective algorithms a real sweep would drive. Payload-free
      // replay moves no bytes, so the eager copy counters report pool reuse
      // and envelope traffic, not data motion.
      smpi::platform::FlatClusterParams params;
      params.nodes = trace.nranks;
      const smpi::platform::Platform platform = smpi::platform::build_flat_cluster(params);
      const smpi::trace::ReplayResult result =
          smpi::trace::replay_trace(platform, smpi::core::SmpiConfig{}, trace);
      std::printf("trace: %s\napp: %s\nranks: %d\nrecords: %lld\n", dir.c_str(),
                  trace.app.c_str(), trace.nranks, result.records);
      std::printf("simulated_time: %.9f s\n", result.simulated_time);
      std::printf("solver: solves=%llu vars_touched=%llu cons_touched=%llu\n",
                  static_cast<unsigned long long>(result.solver_solves),
                  static_cast<unsigned long long>(result.solver_vars_touched),
                  static_cast<unsigned long long>(result.solver_cons_touched));
      std::printf("p2p: pool_hits=%llu pool_misses=%llu eager_snapshots=%llu\n",
                  static_cast<unsigned long long>(result.p2p.pool_hits),
                  static_cast<unsigned long long>(result.p2p.pool_misses),
                  static_cast<unsigned long long>(result.p2p.eager_snapshots));
      std::printf("p2p: eager_copy_elided=%llu eager_flush_snapshots=%llu bytes_not_copied=%llu\n",
                  static_cast<unsigned long long>(result.p2p.eager_copy_elided),
                  static_cast<unsigned long long>(result.p2p.eager_flush_snapshots),
                  static_cast<unsigned long long>(result.p2p.bytes_not_copied));
      // Per-op message-size histograms: how big this trace's messages are,
      // op by op (records that move no bytes — init, barrier, waits — are
      // skipped; they would only flatten every distribution's min to 0).
      std::map<std::string, std::vector<long long>> sizes;
      for (const auto& rank_records : trace.ranks) {
        for (const auto& record : rank_records) {
          const long long bytes = record_bytes(record);
          if (bytes > 0) sizes[smpi::trace::ti_op_name(record.op)].push_back(bytes);
        }
      }
      std::printf("message sizes (bytes/record):\n");
      std::printf("  %-14s %10s %14s %10s %10s %10s %10s\n", "op", "records", "total", "min",
                  "p50", "p95", "max");
      for (auto& [name, values] : sizes) {
        std::sort(values.begin(), values.end());
        long long total = 0;
        for (long long v : values) total += v;
        std::printf("  %-14s %10zu %14lld %10lld %10lld %10lld %10lld\n", name.c_str(),
                    values.size(), total, values.front(), percentile(values, 0.5),
                    percentile(values, 0.95), values.back());
      }
      return 0;
    }

    std::map<std::string, OpStats> stats;
    double total_flops = 0;
    double total_sleep = 0;
    for (const auto& rank_records : trace.ranks) {
      for (const auto& record : rank_records) {
        OpStats& s = stats[smpi::trace::ti_op_name(record.op)];
        s.records += 1;
        s.bytes += record_bytes(record);
        if (record.op == smpi::trace::TiOp::kCompute) total_flops += record.value;
        if (record.op == smpi::trace::TiOp::kSleep) total_sleep += record.value;
      }
    }

    std::printf("trace: %s\napp: %s\nranks: %d\nrecords: %lld\n", dir.c_str(),
                trace.app.c_str(), trace.nranks, trace.total_records());
    std::printf("%-16s %12s %16s\n", "op", "records", "bytes");
    for (const auto& [name, s] : stats) {
      std::printf("%-16s %12lld %16lld\n", name.c_str(), s.records, s.bytes);
    }
    std::printf("total compute: %.6e flops\ntotal recorded sleep: %.6e s\n", total_flops,
                total_sleep);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ti_inspect: error: %s\n", e.what());
    return 1;
  }
}
