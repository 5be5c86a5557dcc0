#include "trace/replay.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/resource.hpp"
#include "obs/span.hpp"
#include "sim/mapped_region.hpp"
#include "smpi/internals.hpp"
#include "smpi/mpi.h"
#include "trace/reader.hpp"
#include "util/check.hpp"

namespace smpi::trace {

namespace {

long long sum_counts(const std::vector<long long>& counts) {
  long long total = 0;
  for (long long c : counts) total += c;
  return total;
}

// Largest buffer any pointer passed for this record may span. Payload-free
// mode never copies message data, but collective algorithms still stage
// their *own* rank's block through the user buffers, so those must be real
// memory of the logical size.
long long record_arena_need(const TiRecord& r, int ranks) {
  const long long n = ranks;
  switch (r.op) {
    case TiOp::kSend:
    case TiOp::kIsend:
    case TiOp::kRecv:
    case TiOp::kIrecv:
      return r.count * r.elem;
    case TiOp::kSendrecv:
      return std::max(r.count * r.elem, r.count2 * r.elem2);
    case TiOp::kBcast:
    case TiOp::kReduce:
    case TiOp::kAllreduce:
    case TiOp::kScan:
      return r.count * r.elem;
    case TiOp::kGather:
      return std::max(r.count * r.elem, n * r.count2 * r.elem2);
    case TiOp::kScatter:
      return std::max(n * r.count * r.elem, r.count2 * r.elem2);
    case TiOp::kAllgather:
      return std::max(r.count * r.elem, n * r.count2 * r.elem2);
    case TiOp::kAlltoall:
      return n * std::max(r.count * r.elem, r.count2 * r.elem2);
    case TiOp::kGatherv:
      return std::max(r.count * r.elem, sum_counts(r.counts) * r.elem2);
    case TiOp::kScatterv:
      return std::max(sum_counts(r.counts) * r.elem, r.count2 * r.elem2);
    case TiOp::kAllgatherv:
      return std::max(r.count * r.elem, sum_counts(r.counts) * r.elem2);
    case TiOp::kAlltoallv:
      return std::max(sum_counts(r.counts) * r.elem, sum_counts(r.counts2) * r.elem2);
    case TiOp::kReduceScatter:
      return sum_counts(r.counts) * r.elem;
    default:
      return 0;
  }
}

int as_int(long long value) {
  SMPI_REQUIRE(value >= std::numeric_limits<int>::min() &&
                   value <= std::numeric_limits<int>::max(),
               "trace value does not fit in int");
  return static_cast<int>(value);
}

int decode_rank(long long peer) {
  if (peer == kPeerNull) return MPI_PROC_NULL;
  if (peer == kPeerAny) return MPI_ANY_SOURCE;
  return as_int(peer);
}

int decode_tag(long long tag) { return tag == kTagAny ? MPI_ANY_TAG : as_int(tag); }

std::vector<int> to_ints(const std::vector<long long>& values) {
  std::vector<int> out;
  out.reserve(values.size());
  for (long long v : values) out.push_back(as_int(v));
  return out;
}

std::vector<int> prefix_displs(const std::vector<int>& counts) {
  std::vector<int> displs(counts.size());
  int offset = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    displs[i] = offset;
    offset += counts[i];
  }
  return displs;
}

// Non-commutative reductions only need the *shape* of the online dispatch;
// the reduction itself costs no simulated time, so the body is empty.
void replay_reduce_stub(void* /*in*/, void* /*inout*/, int* /*len*/, MPI_Datatype* /*type*/) {}

void replay_rank(const TiTrace& trace, unsigned char* base, ReplayResult& result) {
  core::SmpiWorld* world = core::SmpiWorld::instance();
  const auto rank = static_cast<std::size_t>(world->current_process()->world_rank);
  const auto& records = trace.ranks[rank];
  double& my_compute_s = result.rank_compute_s[rank];
  double& my_comm_s = result.rank_comm_s[rank];
  const sim::Engine& engine = world->engine();

  std::unordered_map<long long, MPI_Request> requests;
  std::unordered_map<long long, MPI_Datatype> types;
  MPI_Op noncommutative = MPI_OP_NULL;

  auto type_of = [&types](long long elem) -> MPI_Datatype {
    if (elem <= 1) return MPI_BYTE;
    auto it = types.find(elem);
    if (it != types.end()) return it->second;
    MPI_Datatype type = MPI_DATATYPE_NULL;
    SMPI_ENSURE(MPI_Type_contiguous(as_int(elem), MPI_BYTE, &type) == MPI_SUCCESS,
                "replay datatype creation failed");
    MPI_Type_commit(&type);
    types.emplace(elem, type);
    return type;
  };
  auto op_of = [&noncommutative](bool commutative) -> MPI_Op {
    if (commutative) return MPI_BOR;
    if (noncommutative == MPI_OP_NULL) {
      SMPI_ENSURE(MPI_Op_create(&replay_reduce_stub, 0, &noncommutative) == MPI_SUCCESS,
                  "replay op creation failed");
    }
    return noncommutative;
  };
  auto take_request = [&requests](long long id) -> MPI_Request {
    auto it = requests.find(id);
    SMPI_REQUIRE(it != requests.end(), "trace waits on unknown request id");
    MPI_Request handle = it->second;
    requests.erase(it);
    return handle;
  };
  auto check = [](int rc) { SMPI_ENSURE(rc == MPI_SUCCESS, "replayed MPI call failed"); };

  for (const TiRecord& r : records) {
    const double record_start = engine.now();
    switch (r.op) {
      case TiOp::kInit:
        check(MPI_Init(nullptr, nullptr));
        break;
      case TiOp::kFinalize:
        check(MPI_Finalize());
        break;
      case TiOp::kCompute:
        smpi_execute_flops(r.value);
        break;
      case TiOp::kSleep:
        smpi_sleep(r.value);
        break;
      case TiOp::kSend:
        check(MPI_Send(base, as_int(r.count), type_of(r.elem), decode_rank(r.peer),
                       decode_tag(r.tag), MPI_COMM_WORLD));
        break;
      case TiOp::kRecv:
        check(MPI_Recv(base, as_int(r.count), type_of(r.elem), decode_rank(r.peer),
                       decode_tag(r.tag), MPI_COMM_WORLD, MPI_STATUS_IGNORE));
        break;
      case TiOp::kIsend: {
        MPI_Request handle = MPI_REQUEST_NULL;
        check(MPI_Isend(base, as_int(r.count), type_of(r.elem), decode_rank(r.peer),
                        decode_tag(r.tag), MPI_COMM_WORLD, &handle));
        requests[r.req] = handle;
        break;
      }
      case TiOp::kIrecv: {
        MPI_Request handle = MPI_REQUEST_NULL;
        check(MPI_Irecv(base, as_int(r.count), type_of(r.elem), decode_rank(r.peer),
                        decode_tag(r.tag), MPI_COMM_WORLD, &handle));
        requests[r.req] = handle;
        break;
      }
      case TiOp::kWait: {
        MPI_Request handle = take_request(r.req);
        check(MPI_Wait(&handle, MPI_STATUS_IGNORE));
        break;
      }
      case TiOp::kWaitall:
        for (long long id : r.reqs) {
          MPI_Request handle = take_request(id);
          check(MPI_Wait(&handle, MPI_STATUS_IGNORE));
        }
        break;
      case TiOp::kReqFree: {
        MPI_Request handle = take_request(r.req);
        check(MPI_Request_free(&handle));
        break;
      }
      case TiOp::kProbe:
        check(MPI_Probe(decode_rank(r.peer), decode_tag(r.tag), MPI_COMM_WORLD,
                        MPI_STATUS_IGNORE));
        break;
      case TiOp::kSendrecv:
        check(MPI_Sendrecv(base, as_int(r.count), type_of(r.elem), decode_rank(r.peer),
                           decode_tag(r.tag), base, as_int(r.count2), type_of(r.elem2),
                           decode_rank(r.peer2), decode_tag(r.tag2), MPI_COMM_WORLD,
                           MPI_STATUS_IGNORE));
        break;
      case TiOp::kBarrier:
        check(MPI_Barrier(MPI_COMM_WORLD));
        break;
      case TiOp::kBcast:
        check(MPI_Bcast(base, as_int(r.count), type_of(r.elem), as_int(r.peer), MPI_COMM_WORLD));
        break;
      case TiOp::kReduce:
        check(MPI_Reduce(base, base, as_int(r.count), type_of(r.elem), op_of(r.commutative),
                         as_int(r.peer), MPI_COMM_WORLD));
        break;
      case TiOp::kAllreduce:
        check(MPI_Allreduce(base, base, as_int(r.count), type_of(r.elem), op_of(r.commutative),
                            MPI_COMM_WORLD));
        break;
      case TiOp::kScan:
        check(MPI_Scan(base, base, as_int(r.count), type_of(r.elem), op_of(r.commutative),
                       MPI_COMM_WORLD));
        break;
      case TiOp::kGather:
        check(MPI_Gather(base, as_int(r.count), type_of(r.elem), base, as_int(r.count2),
                         type_of(r.elem2), as_int(r.peer), MPI_COMM_WORLD));
        break;
      case TiOp::kScatter:
        check(MPI_Scatter(base, as_int(r.count), type_of(r.elem), base, as_int(r.count2),
                          type_of(r.elem2), as_int(r.peer), MPI_COMM_WORLD));
        break;
      case TiOp::kAllgather:
        check(MPI_Allgather(base, as_int(r.count), type_of(r.elem), base, as_int(r.count2),
                            type_of(r.elem2), MPI_COMM_WORLD));
        break;
      case TiOp::kAlltoall:
        check(MPI_Alltoall(base, as_int(r.count), type_of(r.elem), base, as_int(r.count2),
                           type_of(r.elem2), MPI_COMM_WORLD));
        break;
      case TiOp::kGatherv: {
        if (r.counts.empty()) {  // non-root: the array stays with the root
          check(MPI_Gatherv(base, as_int(r.count), type_of(r.elem), nullptr, nullptr, nullptr,
                            type_of(r.elem2), as_int(r.peer), MPI_COMM_WORLD));
        } else {
          const std::vector<int> counts = to_ints(r.counts);
          const std::vector<int> displs = prefix_displs(counts);
          check(MPI_Gatherv(base, as_int(r.count), type_of(r.elem), base, counts.data(),
                            displs.data(), type_of(r.elem2), as_int(r.peer), MPI_COMM_WORLD));
        }
        break;
      }
      case TiOp::kScatterv: {
        if (r.counts.empty()) {
          check(MPI_Scatterv(nullptr, nullptr, nullptr, type_of(r.elem), base, as_int(r.count2),
                             type_of(r.elem2), as_int(r.peer), MPI_COMM_WORLD));
        } else {
          const std::vector<int> counts = to_ints(r.counts);
          const std::vector<int> displs = prefix_displs(counts);
          check(MPI_Scatterv(base, counts.data(), displs.data(), type_of(r.elem), base,
                             as_int(r.count2), type_of(r.elem2), as_int(r.peer),
                             MPI_COMM_WORLD));
        }
        break;
      }
      case TiOp::kAllgatherv: {
        const std::vector<int> counts = to_ints(r.counts);
        const std::vector<int> displs = prefix_displs(counts);
        check(MPI_Allgatherv(base, as_int(r.count), type_of(r.elem), base, counts.data(),
                             displs.data(), type_of(r.elem2), MPI_COMM_WORLD));
        break;
      }
      case TiOp::kAlltoallv: {
        const std::vector<int> scounts = to_ints(r.counts);
        const std::vector<int> sdispls = prefix_displs(scounts);
        const std::vector<int> rcounts = to_ints(r.counts2);
        const std::vector<int> rdispls = prefix_displs(rcounts);
        check(MPI_Alltoallv(base, scounts.data(), sdispls.data(), type_of(r.elem), base,
                            rcounts.data(), rdispls.data(), type_of(r.elem2), MPI_COMM_WORLD));
        break;
      }
      case TiOp::kReduceScatter: {
        const std::vector<int> counts = to_ints(r.counts);
        check(MPI_Reduce_scatter(base, base, counts.data(), type_of(r.elem),
                                 op_of(r.commutative), MPI_COMM_WORLD));
        break;
      }
    }
    // Per-rank simulated-time breakdown: compute/sleep records burn local
    // time, everything else is communication (including the waiting).
    const double elapsed = engine.now() - record_start;
    if (r.op == TiOp::kCompute || r.op == TiOp::kSleep) {
      my_compute_s += elapsed;
    } else {
      my_comm_s += elapsed;
    }
  }
}

}  // namespace

long long compute_arena_bytes(const TiTrace& trace) {
  long long arena_bytes = 1;
  for (const auto& rank_records : trace.ranks) {
    for (const TiRecord& r : rank_records) {
      arena_bytes = std::max(arena_bytes, record_arena_need(r, trace.nranks));
    }
  }
  return arena_bytes;
}

ReplayResult replay_trace(const platform::Platform& platform, core::SmpiConfig config,
                          const TiTrace& trace, const ReplayOptions& options) {
  // Pre-size the shared arena before any actor runs: growing it mid-run
  // would move memory out from under a suspended rank's collective. It is a
  // lazy mapping, so payload-free replay, which never writes message data
  // into it, commits none of it.
  const long long arena_bytes =
      options.arena_bytes_hint > 0 ? options.arena_bytes_hint : compute_arena_bytes(trace);
  const sim::MappedRegion arena(static_cast<std::size_t>(arena_bytes));
  // Declared before the world so the ranks' usage slots outlive ~SmpiWorld.
  ReplayResult result;
  result.rank_compute_s.resize(static_cast<std::size_t>(trace.nranks));
  result.rank_comm_s.resize(static_cast<std::size_t>(trace.nranks));

  config.payload_free = options.payload_free;
  std::unique_ptr<obs::SpanCollector> own_spans;
  obs::SpanCollector* spans = options.spans;
  if (spans == nullptr && options.analyze) {
    own_spans = std::make_unique<obs::SpanCollector>(trace.nranks);
    spans = own_spans.get();
  }
  core::SmpiWorld world(platform, config, {nullptr, options.paje, spans, options.resources});
  world.run(trace.nranks,
            [&trace, base = arena.data(), &result](int, char**) {
              replay_rank(trace, base, result);
            },
            {},
            "ti-replay:" + trace.app);

  result.simulated_time = world.simulated_time();
  result.records = trace.total_records();
  result.ranks = trace.nranks;
  result.aborted = world.aborted();
  result.abort_code = world.abort_code();
  result.failure = world.failure_diagnostic();
  result.arena_bytes = static_cast<std::uint64_t>(arena_bytes);
  const core::SolverTotals solver = world.solver_totals();
  result.solver_solves = solver.solves;
  result.solver_vars_touched = solver.vars_touched;
  result.solver_cons_touched = solver.cons_touched;
  result.surf_observe = solver.observe;
  result.p2p = world.p2p_counters();
  if (options.resources != nullptr) {
    result.resources_analyzed = true;
    const obs::ResourceCollector::Summary summary = options.resources->summary();
    result.top_bottleneck = summary.top_bottleneck;
    result.bottleneck_saturated_s = summary.bottleneck_saturated_s;
    result.max_link_utilization = summary.max_link_utilization;
  }
  if (spans != nullptr) {
    result.analyzed = true;
    result.analysis = obs::analyze(*spans);
    // Re-derive the per-rank usage split from the span layer: wait/transfer
    // come from the recorded blocked intervals, compute is everything else —
    // including compute that overlapped an in-flight nonblocking transfer,
    // which the record-granularity split above misattributes.
    for (std::size_t r = 0; r < result.rank_compute_s.size(); ++r) {
      const obs::RankBreakdown& b = result.analysis.ranks[r];
      result.rank_compute_s[r] = b.compute_s;
      result.rank_comm_s[r] = b.wait_s + b.transfer_s;
      result.rank_wait_s.push_back(b.wait_s);
      result.rank_transfer_s.push_back(b.transfer_s);
    }
  }
  return result;
}

ReplayResult replay_trace(const platform::Platform& platform, core::SmpiConfig config,
                          const std::string& trace_dir, const ReplayOptions& options) {
  const TiTrace trace = load_ti_trace(trace_dir);
  return replay_trace(platform, std::move(config), trace, options);
}

}  // namespace smpi::trace
