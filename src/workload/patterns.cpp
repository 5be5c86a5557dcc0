#include "workload/patterns.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace smpi::workload {

namespace {

using trace::TiOp;
using trace::TiRecord;
using trace::TiRecords;

// Independent sub-streams per (phase, rank) and per (phase, iteration):
// every consumer seeds its own generator from a counter, so no pattern can
// perturb another's draws by consuming more or fewer values. The stream ids
// are phase-derived (phase << 1 | kind), the workload-seed domain's own
// slice of the registry documented in util/rng.hpp.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return util::mix_stream(seed, stream, index);
}

// Per-rank compute-cost stream: a static imbalance factor drawn once plus a
// fresh jitter factor per iteration. Zero-width distributions make no draws
// at all, so flops stay bit-equal to the spec value (the online-equivalence
// tests depend on that).
class ComputeDraw {
 public:
  ComputeDraw(const ComputeSpec& compute, std::uint64_t seed, int phase_index, int rank)
      : compute_(compute), rng_(mix(seed, static_cast<std::uint64_t>(phase_index) << 1,
                                    static_cast<std::uint64_t>(rank))) {
    if (compute_.imbalance > 0) {
      rank_factor_ = 1 + compute_.imbalance * (2 * rng_.next_double() - 1);
    }
  }

  double next() {
    double flops = compute_.flops * rank_factor_;
    if (compute_.jitter > 0) {
      flops *= 1 + compute_.jitter * (2 * rng_.next_double() - 1);
    }
    return flops;
  }

 private:
  ComputeSpec compute_;
  util::Xoshiro256StarStar rng_;
  double rank_factor_ = 1;
};

TiRecord compute_record(double flops) {
  TiRecord r;
  r.op = TiOp::kCompute;
  r.value = flops;
  return r;
}

TiRecord p2p_record(TiOp op, int peer, long long bytes, long long tag, long long req = -1) {
  TiRecord r;
  r.op = op;
  r.peer = peer;
  r.count = bytes;
  r.elem = 1;
  r.tag = tag;
  r.req = req;
  return r;
}

void maybe_compute(TiRecords& out, ComputeDraw& draw, const PhaseSpec& phase) {
  if (phase.compute.flops > 0) out.push_back(compute_record(draw.next()));
}

std::vector<ComputeDraw> make_draws(const WorkloadSpec& spec, const PhaseSpec& phase,
                                    int phase_index) {
  std::vector<ComputeDraw> draws;
  draws.reserve(static_cast<std::size_t>(spec.ranks));
  for (int r = 0; r < spec.ranks; ++r) {
    draws.emplace_back(phase.compute, spec.seed, phase_index, r);
  }
  return draws;
}

// --- grid geometry ----------------------------------------------------------

struct Grid {
  int dims[3] = {1, 1, 1};
  int nd = 2;

  int rank_of(const int coord[3]) const {
    return (coord[2] * dims[1] + coord[1]) * dims[0] + coord[0];
  }
  void coord_of(int rank, int coord[3]) const {
    coord[0] = rank % dims[0];
    coord[1] = (rank / dims[0]) % dims[1];
    coord[2] = rank / (dims[0] * dims[1]);
  }
  // Neighbour on side `direction` (2*axis = minus, 2*axis+1 = plus), or -1
  // when the grid edge is not periodic.
  int neighbor(int rank, int direction, bool periodic) const {
    const int axis = direction / 2;
    const int step = (direction & 1) ? 1 : -1;
    int coord[3];
    coord_of(rank, coord);
    coord[axis] += step;
    if (coord[axis] < 0 || coord[axis] >= dims[axis]) {
      if (!periodic || dims[axis] == 1) return -1;
      coord[axis] = (coord[axis] + dims[axis]) % dims[axis];
    }
    const int nb = rank_of(coord);
    return nb == rank ? -1 : nb;  // periodic wrap on a size-2 axis still dedups below
  }
};

Grid stencil_grid(const WorkloadSpec& spec, const PhaseSpec& phase, bool is_3d) {
  Grid grid;
  grid.nd = is_3d ? 3 : 2;
  if (phase.px > 0) {
    grid.dims[0] = phase.px;
    grid.dims[1] = phase.py;
    grid.dims[2] = is_3d ? phase.pz : 1;
  } else if (is_3d) {
    factor_grid_3d(spec.ranks, &grid.dims[0], &grid.dims[1], &grid.dims[2]);
  } else {
    factor_grid_2d(spec.ranks, &grid.dims[0], &grid.dims[1]);
  }
  return grid;
}

// Messages are tagged with the *sender's* direction, so a receive from side
// d matches the opposite tag: my west neighbour reaches me travelling +x.
int opposite(int direction) { return direction ^ 1; }

// --- patterns ---------------------------------------------------------------

// Halo exchange: per iteration, each rank computes, posts a receive from and
// a send to every existing neighbour (nonblocking), then waits for all.
void emit_stencil(const WorkloadSpec& spec, const PhaseSpec& phase, int phase_index,
                  std::vector<TiRecords>& ranks, std::vector<long long>& next_req,
                  bool is_3d) {
  const Grid grid = stencil_grid(spec, phase, is_3d);
  auto draws = make_draws(spec, phase, phase_index);
  const int directions = 2 * grid.nd;

  for (int iter = 0; iter < phase.iterations; ++iter) {
    const long long bytes = phase.bytes_at(iter);
    for (int r = 0; r < spec.ranks; ++r) {
      auto& out = ranks[static_cast<std::size_t>(r)];
      maybe_compute(out, draws[static_cast<std::size_t>(r)], phase);
      std::vector<long long> reqs;
      for (int d = 0; d < directions; ++d) {
        const int nb = grid.neighbor(r, d, phase.periodic);
        if (nb < 0) continue;
        const long long id = next_req[static_cast<std::size_t>(r)]++;
        out.push_back(p2p_record(TiOp::kIrecv, nb, bytes, opposite(d), id));
        reqs.push_back(id);
      }
      for (int d = 0; d < directions; ++d) {
        const int nb = grid.neighbor(r, d, phase.periodic);
        if (nb < 0) continue;
        const long long id = next_req[static_cast<std::size_t>(r)]++;
        out.push_back(p2p_record(TiOp::kIsend, nb, bytes, d, id));
        reqs.push_back(id);
      }
      if (reqs.empty()) continue;
      TiRecord wait;
      wait.op = TiOp::kWaitall;
      wait.reqs = std::move(reqs);
      out.push_back(wait);
    }
  }
}

// Ring pipeline: a simultaneous shift — send to the right neighbour while
// receiving from the left one.
void emit_ring(const WorkloadSpec& spec, const PhaseSpec& phase, int phase_index,
               std::vector<TiRecords>& ranks) {
  const int n = spec.ranks;
  auto draws = make_draws(spec, phase, phase_index);
  for (int iter = 0; iter < phase.iterations; ++iter) {
    const long long bytes = phase.bytes_at(iter);
    for (int r = 0; r < n; ++r) {
      auto& out = ranks[static_cast<std::size_t>(r)];
      maybe_compute(out, draws[static_cast<std::size_t>(r)], phase);
      if (n == 1) continue;
      TiRecord rec;
      rec.op = TiOp::kSendrecv;
      rec.peer = (r + 1) % n;
      rec.count = bytes;
      rec.elem = 1;
      rec.tag = 0;
      rec.peer2 = (r + n - 1) % n;
      rec.count2 = bytes;
      rec.elem2 = 1;
      rec.tag2 = 0;
      out.push_back(rec);
    }
  }
}

// FFT-style transpose: one MPI_Alltoall per iteration, `bytes` per pair.
void emit_alltoall(const WorkloadSpec& spec, const PhaseSpec& phase, int phase_index,
                   std::vector<TiRecords>& ranks) {
  auto draws = make_draws(spec, phase, phase_index);
  for (int iter = 0; iter < phase.iterations; ++iter) {
    const long long bytes = phase.bytes_at(iter);
    for (int r = 0; r < spec.ranks; ++r) {
      auto& out = ranks[static_cast<std::size_t>(r)];
      maybe_compute(out, draws[static_cast<std::size_t>(r)], phase);
      TiRecord rec;
      rec.op = TiOp::kAlltoall;
      rec.count = bytes;
      rec.elem = 1;
      rec.count2 = bytes;
      rec.elem2 = 1;
      out.push_back(rec);
    }
  }
}

// Tree phases: reduce everything to the root, broadcast the result back —
// the backbone of iterative solvers' convergence checks.
void emit_reduce_bcast(const WorkloadSpec& spec, const PhaseSpec& phase, int phase_index,
                       std::vector<TiRecords>& ranks) {
  auto draws = make_draws(spec, phase, phase_index);
  for (int iter = 0; iter < phase.iterations; ++iter) {
    const long long bytes = phase.bytes_at(iter);
    for (int r = 0; r < spec.ranks; ++r) {
      auto& out = ranks[static_cast<std::size_t>(r)];
      maybe_compute(out, draws[static_cast<std::size_t>(r)], phase);
      TiRecord reduce;
      reduce.op = TiOp::kReduce;
      reduce.count = bytes;
      reduce.elem = 1;
      reduce.peer = phase.root;
      reduce.commutative = phase.commutative;
      out.push_back(reduce);
      TiRecord bcast;
      bcast.op = TiOp::kBcast;
      bcast.count = bytes;
      bcast.elem = 1;
      bcast.peer = phase.root;
      out.push_back(bcast);
    }
  }
}

// Dependency sweep over a 2D grid: receive from west and north, compute,
// send to east and south. Ranks on the top-left front start immediately;
// the wave propagates along the diagonal (blocking calls, but the
// dependency graph is a DAG, so the order is deadlock-free).
void emit_wavefront(const WorkloadSpec& spec, const PhaseSpec& phase, int phase_index,
                    std::vector<TiRecords>& ranks) {
  const Grid grid = stencil_grid(spec, phase, /*is_3d=*/false);
  auto draws = make_draws(spec, phase, phase_index);
  const int px = grid.dims[0];
  const int py = grid.dims[1];

  for (int iter = 0; iter < phase.iterations; ++iter) {
    const long long bytes = phase.bytes_at(iter);
    for (int r = 0; r < spec.ranks; ++r) {
      auto& out = ranks[static_cast<std::size_t>(r)];
      int coord[3];
      grid.coord_of(r, coord);
      const int x = coord[0];
      const int y = coord[1];
      if (x > 0) out.push_back(p2p_record(TiOp::kRecv, r - 1, bytes, 0));
      if (y > 0) out.push_back(p2p_record(TiOp::kRecv, r - px, bytes, 1));
      maybe_compute(out, draws[static_cast<std::size_t>(r)], phase);
      if (x < px - 1) out.push_back(p2p_record(TiOp::kSend, r + 1, bytes, 0));
      if (y < py - 1) out.push_back(p2p_record(TiOp::kSend, r + px, bytes, 1));
    }
  }
}

// Seeded sparse point-to-point: every iteration redraws a global edge set
// (each rank sends to `degree` distinct random peers); both endpoints are
// emitted from the same edge list, so the trace always matches up.
void emit_random_sparse(const WorkloadSpec& spec, const PhaseSpec& phase, int phase_index,
                        std::vector<TiRecords>& ranks,
                        std::vector<long long>& next_req) {
  const int n = spec.ranks;
  auto draws = make_draws(spec, phase, phase_index);

  for (int iter = 0; iter < phase.iterations; ++iter) {
    const long long bytes = phase.bytes_at(iter);
    // Odd stream index: the per-rank compute streams above use even ones.
    util::Xoshiro256StarStar edge_rng(
        mix(spec.seed, (static_cast<std::uint64_t>(phase_index) << 1) | 1,
            static_cast<std::uint64_t>(iter)));
    std::vector<std::vector<int>> out_peers(static_cast<std::size_t>(n));
    std::vector<std::vector<int>> in_peers(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      auto& peers = out_peers[static_cast<std::size_t>(r)];
      while (static_cast<int>(peers.size()) < phase.degree) {
        // Uniform over the other ranks; reject repeats (degree < ranks).
        int p = static_cast<int>(
            edge_rng.next_in_range(0, static_cast<std::uint64_t>(n) - 2));
        if (p >= r) ++p;
        if (std::find(peers.begin(), peers.end(), p) != peers.end()) continue;
        peers.push_back(p);
        in_peers[static_cast<std::size_t>(p)].push_back(r);  // senders ascend
      }
    }

    for (int r = 0; r < n; ++r) {
      auto& out = ranks[static_cast<std::size_t>(r)];
      maybe_compute(out, draws[static_cast<std::size_t>(r)], phase);
      std::vector<long long> reqs;
      for (int src : in_peers[static_cast<std::size_t>(r)]) {
        const long long id = next_req[static_cast<std::size_t>(r)]++;
        out.push_back(p2p_record(TiOp::kIrecv, src, bytes, iter, id));
        reqs.push_back(id);
      }
      for (int dst : out_peers[static_cast<std::size_t>(r)]) {
        const long long id = next_req[static_cast<std::size_t>(r)]++;
        out.push_back(p2p_record(TiOp::kIsend, dst, bytes, iter, id));
        reqs.push_back(id);
      }
      if (reqs.empty()) continue;
      TiRecord wait;
      wait.op = TiOp::kWaitall;
      wait.reqs = std::move(reqs);
      out.push_back(wait);
    }
  }
}

}  // namespace

void factor_grid_2d(int ranks, int* px, int* py) {
  SMPI_REQUIRE(ranks > 0, "cannot factor a non-positive rank count");
  int best = 1;
  for (int d = 1; d * d <= ranks; ++d) {
    if (ranks % d == 0) best = d;
  }
  *px = best;
  *py = ranks / best;
}

void factor_grid_3d(int ranks, int* px, int* py, int* pz) {
  SMPI_REQUIRE(ranks > 0, "cannot factor a non-positive rank count");
  int a = 1;
  for (int d = 1; static_cast<long long>(d) * d * d <= ranks; ++d) {
    if (ranks % d == 0) a = d;
  }
  int b = 1, c = 1;
  factor_grid_2d(ranks / a, &b, &c);
  int dims[3] = {a, b, c};
  std::sort(dims, dims + 3);
  *px = dims[0];
  *py = dims[1];
  *pz = dims[2];
}

void emit_phase(const WorkloadSpec& spec, const PhaseSpec& phase, int phase_index,
                std::vector<trace::TiRecords>& ranks,
                std::vector<long long>& next_req) {
  SMPI_REQUIRE(static_cast<int>(ranks.size()) == spec.ranks &&
                   static_cast<int>(next_req.size()) == spec.ranks,
               "workload emission: rank-list size mismatch");
  switch (phase.pattern) {
    case Pattern::kStencil2d:
      emit_stencil(spec, phase, phase_index, ranks, next_req, /*is_3d=*/false);
      return;
    case Pattern::kStencil3d:
      emit_stencil(spec, phase, phase_index, ranks, next_req, /*is_3d=*/true);
      return;
    case Pattern::kRing:
      emit_ring(spec, phase, phase_index, ranks);
      return;
    case Pattern::kAlltoall:
      emit_alltoall(spec, phase, phase_index, ranks);
      return;
    case Pattern::kReduceBcast:
      emit_reduce_bcast(spec, phase, phase_index, ranks);
      return;
    case Pattern::kWavefront:
      emit_wavefront(spec, phase, phase_index, ranks);
      return;
    case Pattern::kRandomSparse:
      emit_random_sparse(spec, phase, phase_index, ranks, next_req);
      return;
  }
  SMPI_UNREACHABLE("bad workload pattern");
}

}  // namespace smpi::workload
