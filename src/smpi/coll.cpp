// Collective communication algorithms, each expressed as a set of
// point-to-point messages that contend in the shared network model (§4.2) —
// never as monolithic formulas. The algorithms mirror the MPICH2/OpenMPI
// implementations the paper copied (§5.3): binomial trees for rooted
// operations, recursive doubling / ring for allgather-style ones, pairwise
// exchange for many-to-many.
#include <cstring>
#include <vector>

#include "smpi/coll.h"
#include "smpi/internals.hpp"
#include "trace/capture.hpp"
#include "util/check.hpp"

namespace smpi::coll {
namespace {

using namespace smpi::core;

// Tags separating the collective kinds inside the shadow matching scope.
enum CollTag {
  kTagBarrier = 1,
  kTagBcast,
  kTagGather,
  kTagScatter,
  kTagAllgather,
  kTagAlltoall,
  kTagReduce,
  kTagAllreduce,
  kTagScan,
  kTagReduceScatter,
};

int comm_rank_of(MPI_Comm comm) {
  return comm->rank_of_world(current_process_checked().world_rank);
}

bool is_power_of_two(int x) { return x > 0 && (x & (x - 1)) == 0; }

// Ordered reduction helper: result placed in `accumulator`, computed as
// lower-rank-operand OP higher-rank-operand, which is what MPI mandates for
// non-commutative operators.
void reduce_ordered(const void* low, void* high_and_result, int count, Datatype* type, Op* op) {
  op->apply(low, high_and_result, count, type);
}

int check_buffer_args(const void* buf, int count, MPI_Datatype type) {
  if (!valid_count(count)) return MPI_ERR_COUNT;
  if (!valid_type(type)) return MPI_ERR_TYPE;
  if (buf == nullptr && count > 0) return MPI_ERR_BUFFER;
  return MPI_SUCCESS;
}

// In payload-free mode the transfer engine never dereferences payload
// pointers (p2p ships sizes only, pack/unpack/Op::apply are no-ops), so the
// collectives' internal staging buffers — ring-rotation scratch, Bruck phase
// buffers, binomial subtree blocks, reduction accumulators — are pure
// overhead. Each algorithm gates its allocations and memcpys on this flag
// and degrades every staged segment to a user-buffer base pointer; the
// message *sizes* are computed exactly as before, so the simulated traffic
// (and therefore the simulated time) is bit-identical.
//
// The per-function `pf` locals below all read smpi::core::payload_free_mode().

}  // namespace

// ---------------------------------------------------------------------------
// Barrier: dissemination — ceil(log2 P) rounds of zero-byte messages.
// ---------------------------------------------------------------------------

int barrier_dissemination(MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  if (size == 1) return MPI_SUCCESS;
  for (int mask = 1; mask < size; mask <<= 1) {
    const int dst = (rank + mask) % size;
    const int src = (rank - mask + size) % size;
    Request* sreq = nullptr;
    Request* rreq = nullptr;
    internal_isend(nullptr, 0, MPI_BYTE, dst, kTagBarrier, comm, &sreq, true);
    internal_irecv(nullptr, 0, MPI_BYTE, src, kTagBarrier, comm, &rreq, true);
    internal_wait(sreq);
    internal_wait(rreq);
  }
  return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Broadcast: binomial tree (Figure 6's shape, rooted at `root`).
// ---------------------------------------------------------------------------

int bcast_binomial(void* buffer, int count, MPI_Datatype datatype, int root, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  const int relative = (rank - root + size) % size;
  if (size == 1) return MPI_SUCCESS;

  // Zero-copy eligible: each rank receives into `buffer` exactly once,
  // strictly before posting any send from it, and never writes it again.
  CollSendScope zc_scope(current_process_checked(), buffer,
                         static_cast<std::size_t>(count) * datatype->size());
  int mask = 1;
  while (mask < size) {
    if (relative & mask) {
      const int src = (rank - mask + size) % size;
      const int rc = internal_recv(buffer, count, datatype, src, kTagBcast, comm,
                                   MPI_STATUS_IGNORE, true);
      if (rc != MPI_SUCCESS) return rc;
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < size) {
      const int dst = (rank + mask) % size;
      const int rc = internal_send(buffer, count, datatype, dst, kTagBcast, comm, true);
      if (rc != MPI_SUCCESS) return rc;
    }
    mask >>= 1;
  }
  return MPI_SUCCESS;
}

int bcast_scatter_ring_allgather(void* buffer, int count, MPI_Datatype datatype, int root,
                                 MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  if (size == 1) return MPI_SUCCESS;
  const std::size_t total = static_cast<std::size_t>(count) * datatype->size();

  // Work on the packed representation; per-rank byte blocks are near-equal.
  // For contiguous datatypes the user buffer *is* the packed representation:
  // skip the per-rank scratch entirely — at 1024 ranks x 1 MiB the scratch
  // buffers alone were a gigabyte of allocation, zeroing, and copying per
  // bcast (the §3.2 memory-footprint concern, inside our own collective).
  // Payload-free mode skips it for every datatype (nothing reads the bytes).
  const bool contiguous = !datatype->needs_packing() || payload_free_mode();
  std::unique_ptr<unsigned char[]> scratch;
  unsigned char* data;
  if (contiguous) {
    data = static_cast<unsigned char*>(buffer);
  } else {
    scratch = std::make_unique<unsigned char[]>(std::max<std::size_t>(total, 1));
    data = scratch.get();
    if (rank == root) datatype->pack(buffer, count, data);
  }
  Process& proc = current_process_checked();
  std::vector<std::size_t>& displs = proc.coll_displs;  // per-rank scratch
  displs.assign(static_cast<std::size_t>(size) + 1, 0);
  for (int r = 0; r < size; ++r) {
    const std::size_t block = total / static_cast<std::size_t>(size) +
                              (static_cast<std::size_t>(r) < total % static_cast<std::size_t>(size)
                                   ? 1
                                   : 0);
    displs[static_cast<std::size_t>(r) + 1] = displs[static_cast<std::size_t>(r)] + block;
  }
  auto block_of = [&displs](int r) {
    return displs[static_cast<std::size_t>(r) + 1] - displs[static_cast<std::size_t>(r)];
  };

  // Zero-copy eligible over `data` (user buffer or scratch — both outlive
  // the scope): every block is written by at most one recv, strictly before
  // any send of that block is posted, and never rewritten.
  CollSendScope zc_scope(proc, data, total);
  // A rank posts at most 2(size-1) zero-copy sends per scope (scatter +
  // ring). Reserving the analytic bound up front keeps later rounds off the
  // heap even when a message interleaving peaks above every earlier round's
  // high-water mark (clear() keeps capacity, but only up to the peak seen).
  proc.zc_outstanding.reserve(2 * static_cast<std::size_t>(size));
  // Receiver side of the same bound: at most `size` envelopes can sit
  // unmatched in this rank's coll-scope queue at once.
  reserve_coll_queues(proc, comm, static_cast<std::size_t>(size) + 1);

  // Phase 1: root scatters the blocks (linear, block r to comm rank r).
  if (rank == root) {
    std::vector<Request*>& sends = proc.coll_requests;  // per-rank scratch
    sends.clear();
    for (int r = 0; r < size; ++r) {
      if (r == root || block_of(r) == 0) continue;
      Request* req = nullptr;
      internal_isend(data + displs[static_cast<std::size_t>(r)],
                     static_cast<int>(block_of(r)), MPI_BYTE, r, kTagBcast, comm, &req, true);
      sends.push_back(req);
    }
    for (Request* req : sends) internal_wait(req);
  } else if (block_of(rank) > 0) {
    const int rc = internal_recv(data + displs[static_cast<std::size_t>(rank)],
                                 static_cast<int>(block_of(rank)), MPI_BYTE, root, kTagBcast,
                                 comm, MPI_STATUS_IGNORE, true);
    if (rc != MPI_SUCCESS) return rc;
  }

  // Phase 2: ring allgather of the blocks.
  const int right = (rank + 1) % size;
  const int left = (rank - 1 + size) % size;
  for (int step = 0; step < size - 1; ++step) {
    const int send_block = (rank - step + size) % size;
    const int recv_block = (rank - step - 1 + size) % size;
    Request* sreq = nullptr;
    Request* rreq = nullptr;
    internal_isend(data + displs[static_cast<std::size_t>(send_block)],
                   static_cast<int>(block_of(send_block)), MPI_BYTE, right, kTagBcast, comm,
                   &sreq, true);
    internal_irecv(data + displs[static_cast<std::size_t>(recv_block)],
                   static_cast<int>(block_of(recv_block)), MPI_BYTE, left, kTagBcast, comm,
                   &rreq, true);
    internal_wait(sreq);
    internal_wait(rreq);
  }
  if (!contiguous && rank != root) datatype->unpack(data, count, buffer);
  return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Scatter: binomial tree. Process 0 (relative to root) holds all blocks and
// halves its payload towards each subtree head — 8/4/2/1 blocks for P=16,
// exactly the communication scheme of Figure 6.
// ---------------------------------------------------------------------------

int scatter_binomial(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                     int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  const int relative = (rank - root + size) % size;
  const std::size_t block = static_cast<std::size_t>(sendcount) *
                            (rank == root ? sendtype->size() : recvtype->size());

  // Packed staging buffer in *relative* rank order. The root rotates its send
  // buffer so subtree payloads are contiguous; an interior node at relative
  // rank r receives the blocks for relative ranks [r, r + min(mask, size-r)).
  // Payload-free: no staging, every segment is the caller's buffer base.
  const bool pf = payload_free_mode();
  std::vector<unsigned char> staging;
  auto* user = static_cast<unsigned char*>(rank == root ? const_cast<void*>(sendbuf) : recvbuf);
  auto seg = [&](std::size_t offset) { return pf ? user : staging.data() + offset; };
  int mask = 1;

  if (relative == 0) {
    if (!pf) {
      staging.resize(std::max<std::size_t>(block * static_cast<std::size_t>(size), 1));
      std::vector<unsigned char> packed(staging.size());
      sendtype->pack(sendbuf, sendcount * size, packed.data());
      for (int r = 0; r < size; ++r) {
        const int rel = (r - root + size) % size;
        std::memcpy(staging.data() + static_cast<std::size_t>(rel) * block,
                    packed.data() + static_cast<std::size_t>(r) * block, block);
      }
    }
    while (mask < size) mask <<= 1;
  } else {
    while (!(relative & mask)) mask <<= 1;
    const int src = (rank - mask + size) % size;
    const auto held_blocks = static_cast<std::size_t>(std::min(mask, size - relative));
    if (!pf) staging.resize(block * held_blocks);
    const int rc = internal_recv(seg(0), static_cast<int>(block * held_blocks), MPI_BYTE, src,
                                 kTagScatter, comm, MPI_STATUS_IGNORE, true);
    if (rc != MPI_SUCCESS) return rc;
  }

  // Forward sub-blocks to subtree heads, largest subtree first — the 8/4/2/1
  // halving of Figure 6. Sends are posted nonblocking and progress
  // concurrently: the subtree transfers share this node's uplink, which is
  // exactly the self-contention Figures 7-9 study.
  std::vector<Request*> forwards;
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < size) {
      const int dst = (rank + mask) % size;
      const auto send_blocks = static_cast<std::size_t>(std::min(mask, size - relative - mask));
      Request* req = nullptr;
      const int rc = internal_isend(seg(static_cast<std::size_t>(mask) * block),
                                    static_cast<int>(send_blocks * block), MPI_BYTE, dst,
                                    kTagScatter, comm, &req, true);
      if (rc != MPI_SUCCESS) return rc;
      forwards.push_back(req);
    }
    mask >>= 1;
  }
  for (Request* req : forwards) internal_wait(req);

  // Own block is block 0 of the staging area.
  if (!pf && recvbuf != MPI_IN_PLACE) {
    recvtype->unpack(staging.data(), recvcount, recvbuf);
  }
  return MPI_SUCCESS;
}

int scatter_linear(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  if (rank == root) {
    const auto* base = static_cast<const unsigned char*>(sendbuf);
    std::vector<Request*> requests;
    for (int r = 0; r < size; ++r) {
      const void* chunk = base + static_cast<std::size_t>(r) *
                                     static_cast<std::size_t>(sendcount) * sendtype->extent();
      if (r == rank) {
        if (recvbuf != MPI_IN_PLACE && !payload_free_mode()) {
          std::vector<unsigned char> packed(static_cast<std::size_t>(sendcount) *
                                            sendtype->size());
          sendtype->pack(chunk, sendcount, packed.data());
          recvtype->unpack(packed.data(), recvcount, recvbuf);
        }
        continue;
      }
      Request* req = nullptr;
      internal_isend(chunk, sendcount, sendtype, r, kTagScatter, comm, &req, true);
      requests.push_back(req);
    }
    for (Request* req : requests) internal_wait(req);
    return MPI_SUCCESS;
  }
  return internal_recv(recvbuf, recvcount, recvtype, root, kTagScatter, comm, MPI_STATUS_IGNORE,
                       true);
}

// ---------------------------------------------------------------------------
// Gather: binomial tree (reverse scatter).
// ---------------------------------------------------------------------------

int gather_binomial(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                    int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  const int relative = (rank - root + size) % size;
  const bool in_place_root = (rank == root && sendbuf == MPI_IN_PLACE);
  const std::size_t block = in_place_root
                                ? static_cast<std::size_t>(recvcount) * recvtype->size()
                                : static_cast<std::size_t>(sendcount) * sendtype->size();

  // My subtree covers relative ranks [relative, relative + span).
  const int lowbit = relative == 0 ? size : (relative & -relative);
  const auto span = static_cast<std::size_t>(std::min(lowbit, size - relative));
  const bool pf = payload_free_mode();
  std::vector<unsigned char> staging;
  auto* user = static_cast<unsigned char*>(rank == root ? recvbuf : const_cast<void*>(sendbuf));
  auto seg = [&](std::size_t offset) { return pf ? user : staging.data() + offset; };
  if (!pf) {
    staging.resize(std::max<std::size_t>(block * span, 1));
    // Own block at offset 0 (packed).
    if (in_place_root) {
      const auto* base = static_cast<const unsigned char*>(recvbuf);
      recvtype->pack(base + static_cast<std::size_t>(rank) *
                                static_cast<std::size_t>(recvcount) * recvtype->extent(),
                     recvcount, staging.data());
    } else {
      sendtype->pack(sendbuf, sendcount, staging.data());
    }
  }

  std::size_t filled = 1;
  int mask = 1;
  while (mask < lowbit && relative + mask < size) {
    const int src = (rank + mask) % size;
    const auto child_span = static_cast<std::size_t>(std::min(mask, size - relative - mask));
    const int rc = internal_recv(seg(static_cast<std::size_t>(mask) * block),
                                 static_cast<int>(child_span * block), MPI_BYTE, src, kTagGather,
                                 comm, MPI_STATUS_IGNORE, true);
    if (rc != MPI_SUCCESS) return rc;
    filled += child_span;
    mask <<= 1;
  }
  if (relative != 0) {
    const int dst = (rank - lowbit + size) % size;
    SMPI_ENSURE(filled == span, "gather subtree incomplete");
    return internal_send(seg(0), static_cast<int>(filled * block), MPI_BYTE, dst, kTagGather,
                         comm, true);
  }
  // Root: un-rotate into recvbuf.
  const std::size_t recv_block = static_cast<std::size_t>(recvcount) * recvtype->size();
  SMPI_ENSURE(recv_block == block, "gather block size mismatch");
  if (!pf) {
    auto* out = static_cast<unsigned char*>(recvbuf);
    for (int rel = 0; rel < size; ++rel) {
      const int r = (rel + root) % size;
      recvtype->unpack(staging.data() + static_cast<std::size_t>(rel) * block, recvcount,
                       out + static_cast<std::size_t>(r) * static_cast<std::size_t>(recvcount) *
                                 recvtype->extent());
    }
  }
  return MPI_SUCCESS;
}

int gather_linear(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  if (rank != root) {
    return internal_send(sendbuf, sendcount, sendtype, root, kTagGather, comm, true);
  }
  auto* out = static_cast<unsigned char*>(recvbuf);
  std::vector<Request*> requests;
  for (int r = 0; r < size; ++r) {
    void* slot = out + static_cast<std::size_t>(r) * static_cast<std::size_t>(recvcount) *
                           recvtype->extent();
    if (r == rank) {
      if (sendbuf != MPI_IN_PLACE && !payload_free_mode()) {
        std::vector<unsigned char> packed(static_cast<std::size_t>(sendcount) * sendtype->size());
        sendtype->pack(sendbuf, sendcount, packed.data());
        recvtype->unpack(packed.data(), recvcount, slot);
      }
      continue;
    }
    Request* req = nullptr;
    internal_irecv(slot, recvcount, recvtype, r, kTagGather, comm, &req, true);
    requests.push_back(req);
  }
  for (Request* req : requests) internal_wait(req);
  return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Allgather: recursive doubling (power of two) or ring.
// ---------------------------------------------------------------------------

int allgather_recursive_doubling(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                                 void* recvbuf, int recvcount, MPI_Datatype recvtype,
                                 MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  SMPI_REQUIRE(is_power_of_two(size), "recursive doubling requires a power-of-two size");
  auto* out = static_cast<unsigned char*>(recvbuf);
  const std::size_t block = static_cast<std::size_t>(recvcount) * recvtype->extent();
  if (sendbuf != MPI_IN_PLACE && !payload_free_mode()) {
    std::vector<unsigned char> packed(static_cast<std::size_t>(sendcount) * sendtype->size());
    sendtype->pack(sendbuf, sendcount, packed.data());
    recvtype->unpack(packed.data(), recvcount, out + static_cast<std::size_t>(rank) * block);
  }
  // Zero-copy eligible: round k sends a region assembled in rounds < k;
  // received regions are disjoint from everything already sent.
  CollSendScope zc_scope(current_process_checked(), out,
                         static_cast<std::size_t>(size) * block);
  for (int mask = 1; mask < size; mask <<= 1) {
    const int partner = rank ^ mask;
    const int my_start = rank & ~(mask - 1);
    const int partner_start = partner & ~(mask - 1);
    Request* sreq = nullptr;
    Request* rreq = nullptr;
    internal_isend(out + static_cast<std::size_t>(my_start) * block, recvcount * mask, recvtype,
                   partner, kTagAllgather, comm, &sreq, true);
    internal_irecv(out + static_cast<std::size_t>(partner_start) * block, recvcount * mask,
                   recvtype, partner, kTagAllgather, comm, &rreq, true);
    internal_wait(sreq);
    internal_wait(rreq);
  }
  return MPI_SUCCESS;
}

int allgather_ring(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  auto* out = static_cast<unsigned char*>(recvbuf);
  const std::size_t block = static_cast<std::size_t>(recvcount) * recvtype->extent();
  if (sendbuf != MPI_IN_PLACE && !payload_free_mode()) {
    std::vector<unsigned char> packed(static_cast<std::size_t>(sendcount) * sendtype->size());
    sendtype->pack(sendbuf, sendcount, packed.data());
    recvtype->unpack(packed.data(), recvcount, out + static_cast<std::size_t>(rank) * block);
  }
  // Zero-copy eligible: each ring step forwards the block received in the
  // previous step; a block is written once, before its first send.
  CollSendScope zc_scope(current_process_checked(), out,
                         static_cast<std::size_t>(size) * block);
  const int right = (rank + 1) % size;
  const int left = (rank - 1 + size) % size;
  for (int step = 0; step < size - 1; ++step) {
    const int send_block = (rank - step + size) % size;
    const int recv_block = (rank - step - 1 + size) % size;
    Request* sreq = nullptr;
    Request* rreq = nullptr;
    internal_isend(out + static_cast<std::size_t>(send_block) * block, recvcount, recvtype, right,
                   kTagAllgather, comm, &sreq, true);
    internal_irecv(out + static_cast<std::size_t>(recv_block) * block, recvcount, recvtype, left,
                   kTagAllgather, comm, &rreq, true);
    internal_wait(sreq);
    internal_wait(rreq);
  }
  return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Alltoall: pairwise exchange (Figure 10) and basic isend/irecv.
// ---------------------------------------------------------------------------

int alltoall_pairwise(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                      int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  const auto* in = static_cast<const unsigned char*>(sendbuf);
  auto* out = static_cast<unsigned char*>(recvbuf);
  const std::size_t send_block = static_cast<std::size_t>(sendcount) * sendtype->extent();
  const std::size_t recv_block = static_cast<std::size_t>(recvcount) * recvtype->extent();

  // Own block.
  if (!payload_free_mode()) {
    std::vector<unsigned char> packed(static_cast<std::size_t>(sendcount) * sendtype->size());
    sendtype->pack(in + static_cast<std::size_t>(rank) * send_block, sendcount, packed.data());
    recvtype->unpack(packed.data(), recvcount, out + static_cast<std::size_t>(rank) * recv_block);
  }
  // Zero-copy eligible: the send buffer is caller-const for the whole call
  // (MPI_Alltoall rejects MPI_IN_PLACE, so it cannot alias recvbuf).
  CollSendScope zc_scope(current_process_checked(), in,
                         static_cast<std::size_t>(size) * send_block);
  // size-1 steps; at step k exchange with ranks at distance k (Figure 10).
  for (int step = 1; step < size; ++step) {
    const int dst = (rank + step) % size;
    const int src = (rank - step + size) % size;
    Request* sreq = nullptr;
    Request* rreq = nullptr;
    internal_isend(in + static_cast<std::size_t>(dst) * send_block, sendcount, sendtype, dst,
                   kTagAlltoall, comm, &sreq, true);
    internal_irecv(out + static_cast<std::size_t>(src) * recv_block, recvcount, recvtype, src,
                   kTagAlltoall, comm, &rreq, true);
    internal_wait(sreq);
    internal_wait(rreq);
  }
  return MPI_SUCCESS;
}

int alltoall_basic(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  const auto* in = static_cast<const unsigned char*>(sendbuf);
  auto* out = static_cast<unsigned char*>(recvbuf);
  const std::size_t send_block = static_cast<std::size_t>(sendcount) * sendtype->extent();
  const std::size_t recv_block = static_cast<std::size_t>(recvcount) * recvtype->extent();
  // Zero-copy eligible: caller-const send buffer, no MPI_IN_PLACE aliasing.
  CollSendScope zc_scope(current_process_checked(), in,
                         static_cast<std::size_t>(size) * send_block);
  std::vector<Request*> requests;
  for (int r = 0; r < size; ++r) {
    if (r == rank) continue;
    Request* rreq = nullptr;
    internal_irecv(out + static_cast<std::size_t>(r) * recv_block, recvcount, recvtype, r,
                   kTagAlltoall, comm, &rreq, true);
    requests.push_back(rreq);
  }
  for (int r = 0; r < size; ++r) {
    if (r == rank) {
      if (!payload_free_mode()) {
        std::vector<unsigned char> packed(static_cast<std::size_t>(sendcount) * sendtype->size());
        sendtype->pack(in + static_cast<std::size_t>(rank) * send_block, sendcount, packed.data());
        recvtype->unpack(packed.data(), recvcount,
                         out + static_cast<std::size_t>(rank) * recv_block);
      }
      continue;
    }
    Request* sreq = nullptr;
    internal_isend(in + static_cast<std::size_t>(r) * send_block, sendcount, sendtype, r,
                   kTagAlltoall, comm, &sreq, true);
    requests.push_back(sreq);
  }
  for (Request* req : requests) internal_wait(req);
  return MPI_SUCCESS;
}

int alltoall_bruck(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  const std::size_t block = static_cast<std::size_t>(sendcount) * sendtype->size();

  // Payload-free: the three phase buffers (rotated copy, per-round staging,
  // per-round incoming) and every rotation memcpy disappear; each round
  // ships the same `moving * block` bytes from/into the user buffers.
  const bool pf = payload_free_mode();

  // Phase 0: pack and rotate so tmp[i] = my block for rank (rank + i) % size.
  std::vector<unsigned char> tmp;
  if (!pf) {
    tmp.resize(std::max<std::size_t>(block * static_cast<std::size_t>(size), 1));
    std::vector<unsigned char> packed(tmp.size());
    sendtype->pack(sendbuf, sendcount * size, packed.data());
    for (int i = 0; i < size; ++i) {
      const int src_block = (rank + i) % size;
      std::memcpy(tmp.data() + static_cast<std::size_t>(i) * block,
                  packed.data() + static_cast<std::size_t>(src_block) * block, block);
    }
  }

  // Phase 1: log2(size) rounds; round k ships every block whose index has
  // bit k set, aggregated into one message.
  std::vector<unsigned char> staging(pf ? 0 : tmp.size());
  for (int pow = 1; pow < size; pow <<= 1) {
    const int dst = (rank + pow) % size;
    const int src = (rank - pow + size) % size;
    std::size_t moving = 0;
    for (int i = 0; i < size; ++i) {
      if (i & pow) {
        if (!pf) {
          std::memcpy(staging.data() + moving * block,
                      tmp.data() + static_cast<std::size_t>(i) * block, block);
        }
        ++moving;
      }
    }
    std::vector<unsigned char> incoming;
    if (!pf) incoming.resize(std::max<std::size_t>(moving * block, 1));
    Request* sreq = nullptr;
    Request* rreq = nullptr;
    internal_isend(pf ? sendbuf : staging.data(), static_cast<int>(moving * block), MPI_BYTE, dst,
                   kTagAlltoall, comm, &sreq, true);
    internal_irecv(pf ? recvbuf : incoming.data(), static_cast<int>(moving * block), MPI_BYTE,
                   src, kTagAlltoall, comm, &rreq, true);
    internal_wait(sreq);
    internal_wait(rreq);
    if (!pf) {
      std::size_t landed = 0;
      for (int i = 0; i < size; ++i) {
        if (i & pow) {
          std::memcpy(tmp.data() + static_cast<std::size_t>(i) * block,
                      incoming.data() + landed * block, block);
          ++landed;
        }
      }
    }
  }

  // Phase 2: inverse rotation — tmp[i] now holds the data from rank
  // (rank - i + size) % size.
  if (!pf) {
    auto* out = static_cast<unsigned char*>(recvbuf);
    const std::size_t recv_block = static_cast<std::size_t>(recvcount) * recvtype->extent();
    for (int i = 0; i < size; ++i) {
      const int src = (rank - i + size) % size;
      recvtype->unpack(tmp.data() + static_cast<std::size_t>(i) * block, recvcount,
                       out + static_cast<std::size_t>(src) * recv_block);
    }
  }
  return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

int reduce_binomial(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype,
                    MPI_Op op, int root, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  const int relative = (rank - root + size) % size;
  const std::size_t bytes = static_cast<std::size_t>(count) * datatype->size();

  // Accumulator starts as my contribution (packed representation).
  // Payload-free: the accumulator and incoming buffers are elided — the
  // messages carry the same byte counts from the contribution pointer.
  const bool pf = payload_free_mode();
  const void* contribution = (sendbuf == MPI_IN_PLACE) ? recvbuf : sendbuf;
  std::vector<unsigned char> acc;
  std::vector<unsigned char> incoming;
  if (!pf) {
    acc.resize(std::max<std::size_t>(bytes, 1));
    datatype->pack(contribution, count, acc.data());
    incoming.resize(std::max<std::size_t>(bytes, 1));
  }
  auto* user = const_cast<void*>(contribution);
  int mask = 1;
  while (mask < size) {
    if (relative & mask) {
      const int dst = (rank - mask + size) % size;
      const int rc = internal_send(pf ? user : acc.data(), static_cast<int>(bytes), MPI_BYTE, dst,
                                   kTagReduce, comm, true);
      if (rc != MPI_SUCCESS) return rc;
      break;
    }
    if (relative + mask < size) {
      const int src = (rank + mask) % size;
      const int rc = internal_recv(pf ? user : incoming.data(), static_cast<int>(bytes), MPI_BYTE,
                                   src, kTagReduce, comm, MPI_STATUS_IGNORE, true);
      if (rc != MPI_SUCCESS) return rc;
      if (!pf) {
        // incoming holds higher relative ranks: acc = acc OP incoming, then
        // the result must live in acc.
        reduce_ordered(acc.data(), incoming.data(), count, datatype, op);
        acc.swap(incoming);
      }
    }
    mask <<= 1;
  }
  if (!pf && rank == root) datatype->unpack(acc.data(), count, recvbuf);
  return MPI_SUCCESS;
}

int allreduce_recursive_doubling(const void* sendbuf, void* recvbuf, int count,
                                 MPI_Datatype datatype, MPI_Op op, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  SMPI_REQUIRE(is_power_of_two(size), "recursive doubling requires a power-of-two size");
  const std::size_t bytes = static_cast<std::size_t>(count) * datatype->size();
  const bool pf = payload_free_mode();
  const void* contribution = (sendbuf == MPI_IN_PLACE) ? recvbuf : sendbuf;
  std::vector<unsigned char> acc;
  std::vector<unsigned char> incoming;
  if (!pf) {
    acc.resize(std::max<std::size_t>(bytes, 1));
    datatype->pack(contribution, count, acc.data());
    incoming.resize(std::max<std::size_t>(bytes, 1));
  }

  for (int mask = 1; mask < size; mask <<= 1) {
    const int partner = rank ^ mask;
    Request* sreq = nullptr;
    Request* rreq = nullptr;
    internal_isend(pf ? recvbuf : acc.data(), static_cast<int>(bytes), MPI_BYTE, partner,
                   kTagAllreduce, comm, &sreq, true);
    internal_irecv(pf ? recvbuf : incoming.data(), static_cast<int>(bytes), MPI_BYTE, partner,
                   kTagAllreduce, comm, &rreq, true);
    internal_wait(sreq);
    internal_wait(rreq);
    if (pf) continue;
    if (partner < rank) {
      // incoming is the lower-rank operand: acc = incoming OP acc.
      reduce_ordered(incoming.data(), acc.data(), count, datatype, op);
    } else {
      reduce_ordered(acc.data(), incoming.data(), count, datatype, op);
      acc.swap(incoming);
    }
  }
  if (!pf) datatype->unpack(acc.data(), count, recvbuf);
  return MPI_SUCCESS;
}

int allreduce_rabenseifner(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype,
                           MPI_Op op, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  SMPI_REQUIRE(is_power_of_two(size), "rabenseifner requires a power-of-two size");
  SMPI_REQUIRE(op->commutative(), "rabenseifner requires a commutative op");
  SMPI_REQUIRE(count >= size, "rabenseifner needs at least one element per rank");

  // Split the vector into `size` near-equal blocks (in elements).
  std::vector<int> counts(static_cast<std::size_t>(size));
  std::vector<int> displs(static_cast<std::size_t>(size));
  int offset = 0;
  for (int r = 0; r < size; ++r) {
    counts[static_cast<std::size_t>(r)] = count / size + (r < count % size ? 1 : 0);
    displs[static_cast<std::size_t>(r)] = offset;
    offset += counts[static_cast<std::size_t>(r)];
  }

  // Phase 1: reduce_scatter — I end with the reduction of my block.
  const bool pf = payload_free_mode();
  const int my_count = counts[static_cast<std::size_t>(rank)];
  std::vector<unsigned char> my_block;
  if (!pf) {
    my_block.resize(
        std::max<std::size_t>(static_cast<std::size_t>(my_count) * datatype->extent(), 1));
  }
  const void* contribution = (sendbuf == MPI_IN_PLACE) ? recvbuf : sendbuf;
  const int rs = reduce_scatter_pairwise(contribution, pf ? recvbuf : my_block.data(),
                                         counts.data(), datatype, op, comm);
  if (rs != MPI_SUCCESS) return rs;

  // Phase 2: allgatherv (ring) of the reduced blocks into recvbuf.
  auto* out = static_cast<unsigned char*>(recvbuf);
  if (!pf) {
    std::memcpy(out + static_cast<std::size_t>(displs[static_cast<std::size_t>(rank)]) *
                          datatype->extent(),
                my_block.data(), static_cast<std::size_t>(my_count) * datatype->extent());
  }
  // Zero-copy eligible for the allgather ring: same single-write-then-
  // forward causality as allgather_ring, over the reduced blocks.
  CollSendScope zc_scope(current_process_checked(), out,
                         static_cast<std::size_t>(offset) * datatype->extent());
  const int right = (rank + 1) % size;
  const int left = (rank - 1 + size) % size;
  for (int step = 0; step < size - 1; ++step) {
    const int send_block = (rank - step + size) % size;
    const int recv_block = (rank - step - 1 + size) % size;
    Request* sreq = nullptr;
    Request* rreq = nullptr;
    internal_isend(out + static_cast<std::size_t>(displs[static_cast<std::size_t>(send_block)]) *
                             datatype->extent(),
                   counts[static_cast<std::size_t>(send_block)], datatype, right, kTagAllreduce,
                   comm, &sreq, true);
    internal_irecv(out + static_cast<std::size_t>(displs[static_cast<std::size_t>(recv_block)]) *
                             datatype->extent(),
                   counts[static_cast<std::size_t>(recv_block)], datatype, left, kTagAllreduce,
                   comm, &rreq, true);
    internal_wait(sreq);
    internal_wait(rreq);
  }
  return MPI_SUCCESS;
}

int reduce_scatter_pairwise(const void* sendbuf, void* recvbuf, const int recvcounts[],
                            MPI_Datatype datatype, MPI_Op op, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  SMPI_REQUIRE(op->commutative(), "pairwise reduce_scatter needs a commutative op");
  std::vector<std::size_t> displs(static_cast<std::size_t>(size) + 1, 0);
  for (int r = 0; r < size; ++r) {
    displs[static_cast<std::size_t>(r) + 1] =
        displs[static_cast<std::size_t>(r)] + static_cast<std::size_t>(recvcounts[r]);
  }
  const auto* in = static_cast<const unsigned char*>(sendbuf);
  const std::size_t elem = datatype->extent();
  const int my_count = recvcounts[rank];
  const std::size_t my_bytes = static_cast<std::size_t>(my_count) * datatype->size();

  // Start from my own contribution for my block.
  const bool pf = payload_free_mode();
  std::vector<unsigned char> acc;
  std::vector<unsigned char> incoming;
  if (!pf) {
    acc.resize(std::max<std::size_t>(my_bytes, 1));
    datatype->pack(in + displs[static_cast<std::size_t>(rank)] * elem, my_count, acc.data());
    incoming.resize(std::max<std::size_t>(my_bytes, 1));
  }

  {
    // Zero-copy eligible: every send reads a distinct slice of the caller's
    // contribution, which nothing writes during the exchange. Inner block:
    // the scope must flush before the final unpack below, in case recvbuf
    // overlaps the contribution (in-place callers).
    CollSendScope zc_scope(current_process_checked(), in,
                           displs[static_cast<std::size_t>(size)] * elem);
    for (int step = 1; step < size; ++step) {
      const int dst = (rank - step + size) % size;  // they need my contribution for their block
      const int src = (rank + step) % size;         // they hold a contribution for my block
      Request* sreq = nullptr;
      Request* rreq = nullptr;
      internal_isend(in + displs[static_cast<std::size_t>(dst)] * elem, recvcounts[dst], datatype,
                     dst, kTagReduceScatter, comm, &sreq, true);
      internal_irecv(pf ? recvbuf : incoming.data(), static_cast<int>(my_bytes), MPI_BYTE, src,
                     kTagReduceScatter, comm, &rreq, true);
      internal_wait(sreq);
      internal_wait(rreq);
      if (!pf) op->apply(incoming.data(), acc.data(), my_count, datatype);
    }
  }
  if (!pf) datatype->unpack(acc.data(), my_count, recvbuf);
  return MPI_SUCCESS;
}

}  // namespace smpi::coll

// ---------------------------------------------------------------------------
// MPI entry points: validate, then dispatch to a variant the way real
// implementations pick algorithms by size (§5.3).
// ---------------------------------------------------------------------------

using namespace smpi::core;
using namespace smpi::coll;

namespace {

int check_coll_comm(MPI_Comm comm, int root, bool has_root) {
  if (!valid_comm(comm)) return MPI_ERR_COMM;
  if (has_root && (root < 0 || root >= comm->size())) return MPI_ERR_ROOT;
  return MPI_SUCCESS;
}

bool pow2(int x) { return x > 0 && (x & (x - 1)) == 0; }

// Forced collective-variant selection (SmpiConfig::coll): what-if campaigns
// sweep over algorithm choices by overriding the size-based auto dispatch.
// An unknown variant name is a hard error (a silently ignored override would
// invalidate a whole sweep).
const smpi::core::CollSelection& coll_selection() {
  return current_process_checked().world->config().coll;
}

// --- TI capture helpers ----------------------------------------------------

// TI traces replay collectives on MPI_COMM_WORLD; capturing one on a derived
// communicator would silently change the traffic pattern, so it is rejected
// outright (the documented capture limitation).
bool coll_recording(smpi::trace::ApiScope& scope, MPI_Comm comm) {
  if (!scope.recording()) return false;
  SMPI_REQUIRE(comm == current_process_checked().world->world_comm(),
               "TI capture supports collectives on MPI_COMM_WORLD only");
  return true;
}

}  // namespace

int MPI_Barrier(MPI_Comm comm) {
  const int rc = check_coll_comm(comm, 0, false);
  if (rc != MPI_SUCCESS) return rc;
  smpi::trace::ApiScope scope("barrier");
  if (coll_recording(scope, comm)) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kBarrier;
    scope.emit(r);
  }
  return barrier_dissemination(comm);
}

int MPI_Bcast(void* buffer, int count, MPI_Datatype datatype, int root, MPI_Comm comm) {
  int rc = check_coll_comm(comm, root, true);
  if (rc != MPI_SUCCESS) return rc;
  rc = check_buffer_args(buffer, count, datatype);
  if (rc != MPI_SUCCESS) return rc;
  smpi::trace::ApiScope scope("bcast");
  if (coll_recording(scope, comm)) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kBcast;
    ti_block(count, datatype, &r.count, &r.elem);
    r.peer = root;
    scope.emit(r);
  }
  const std::string& forced = coll_selection().bcast;
  if (forced == "binomial") return bcast_binomial(buffer, count, datatype, root, comm);
  if (forced == "scatter_ring_allgather") {
    return bcast_scatter_ring_allgather(buffer, count, datatype, root, comm);
  }
  SMPI_REQUIRE(forced == "auto", "unknown coll.bcast variant '" + forced + "'");
  // Size-based dispatch as in MPICH2 (§5.3): binomial tree for short
  // messages, scatter + ring allgather for long ones (avoids pushing the
  // whole payload through every tree level).
  const std::size_t bytes = static_cast<std::size_t>(count) * datatype->size();
  if (bytes >= 512 * 1024 && comm->size() >= 8) {
    return bcast_scatter_ring_allgather(buffer, count, datatype, root, comm);
  }
  return bcast_binomial(buffer, count, datatype, root, comm);
}

int MPI_Scatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
  int rc = check_coll_comm(comm, root, true);
  if (rc != MPI_SUCCESS) return rc;
  const int rank = comm->rank_of_world(current_process_checked().world_rank);
  if (rank == root) {
    rc = check_buffer_args(sendbuf, sendcount, sendtype);
    if (rc != MPI_SUCCESS) return rc;
  }
  if (recvbuf != MPI_IN_PLACE) {
    rc = check_buffer_args(recvbuf, recvcount, recvtype);
    if (rc != MPI_SUCCESS) return rc;
  }
  smpi::trace::ApiScope scope("scatter");
  if (coll_recording(scope, comm)) {
    // Only this rank's *significant* arguments are read: the send side is
    // defined at the root only (a conforming non-root may pass garbage
    // there, including a dangling datatype handle).
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kScatter;
    if (rank == root) {
      ti_block(sendcount, sendtype, &r.count, &r.elem);
      if (recvbuf == MPI_IN_PLACE) {
        ti_block(sendcount, sendtype, &r.count2, &r.elem2);
      } else {
        ti_block(recvcount, recvtype, &r.count2, &r.elem2);
      }
    } else {
      ti_block(recvcount, recvtype, &r.count, &r.elem);
      ti_block(recvcount, recvtype, &r.count2, &r.elem2);
    }
    r.peer = root;
    scope.emit(r);
  }
  return scatter_binomial(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root, comm);
}

int MPI_Scatterv(const void* sendbuf, const int sendcounts[], const int displs[],
                 MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 int root, MPI_Comm comm) {
  int rc = check_coll_comm(comm, root, true);
  if (rc != MPI_SUCCESS) return rc;
  const int size = comm->size();
  const int rank = comm->rank_of_world(current_process_checked().world_rank);
  smpi::trace::ApiScope scope("scatterv");
  if (coll_recording(scope, comm) && (rank != root || (sendcounts != nullptr && valid_type(sendtype)))) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kScatterv;
    ti_block(recvcount, recvtype, &r.count2, &r.elem2);
    r.peer = root;
    if (rank == root) ti_counts(sendcounts, size, sendtype, &r.counts, &r.elem);
    scope.emit(r);
  }
  if (rank == root) {
    if (sendcounts == nullptr || displs == nullptr) return MPI_ERR_ARG;
    if (!valid_type(sendtype)) return MPI_ERR_TYPE;
    const auto* base = static_cast<const unsigned char*>(sendbuf);
    std::vector<Request*> requests;
    for (int r = 0; r < size; ++r) {
      const void* chunk = base + static_cast<std::size_t>(displs[r]) * sendtype->extent();
      if (r == rank) {
        if (recvbuf != MPI_IN_PLACE && !payload_free_mode()) {
          std::vector<unsigned char> packed(static_cast<std::size_t>(sendcounts[r]) *
                                            sendtype->size());
          sendtype->pack(chunk, sendcounts[r], packed.data());
          recvtype->unpack(packed.data(), recvcount, recvbuf);
        }
        continue;
      }
      Request* req = nullptr;
      internal_isend(chunk, sendcounts[r], sendtype, r, 100, comm, &req, true);
      requests.push_back(req);
    }
    for (Request* req : requests) internal_wait(req);
    return MPI_SUCCESS;
  }
  if (recvbuf == MPI_IN_PLACE) return MPI_ERR_ARG;
  return internal_recv(recvbuf, recvcount, recvtype, root, 100, comm, MPI_STATUS_IGNORE, true);
}

int MPI_Gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
               int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
  int rc = check_coll_comm(comm, root, true);
  if (rc != MPI_SUCCESS) return rc;
  const int rank = comm->rank_of_world(current_process_checked().world_rank);
  if (sendbuf != MPI_IN_PLACE) {
    rc = check_buffer_args(sendbuf, sendcount, sendtype);
    if (rc != MPI_SUCCESS) return rc;
  }
  if (rank == root) {
    rc = check_buffer_args(recvbuf, recvcount, recvtype);
    if (rc != MPI_SUCCESS) return rc;
  }
  smpi::trace::ApiScope scope("gather");
  if (coll_recording(scope, comm)) {
    // The recv side is significant at the root only; a conforming non-root
    // may pass garbage recvcount/recvtype.
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kGather;
    if (sendbuf == MPI_IN_PLACE) {  // in-place root contributes its recv block
      ti_block(recvcount, recvtype, &r.count, &r.elem);
    } else {
      ti_block(sendcount, sendtype, &r.count, &r.elem);
    }
    if (rank == root) {
      ti_block(recvcount, recvtype, &r.count2, &r.elem2);
    } else {
      r.count2 = r.count;
      r.elem2 = r.elem;
    }
    r.peer = root;
    scope.emit(r);
  }
  return gather_binomial(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root, comm);
}

int MPI_Gatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                const int recvcounts[], const int displs[], MPI_Datatype recvtype, int root,
                MPI_Comm comm) {
  int rc = check_coll_comm(comm, root, true);
  if (rc != MPI_SUCCESS) return rc;
  const int size = comm->size();
  const int rank = comm->rank_of_world(current_process_checked().world_rank);
  smpi::trace::ApiScope scope("gatherv");
  if (coll_recording(scope, comm) && (rank != root || recvcounts != nullptr)) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kGatherv;
    ti_block(sendbuf == MPI_IN_PLACE ? 0 : sendcount, sendtype, &r.count, &r.elem);
    r.peer = root;
    // recvtype is significant at the root only.
    if (rank == root) ti_counts(recvcounts, size, recvtype, &r.counts, &r.elem2);
    scope.emit(r);
  }
  if (rank != root) {
    return internal_send(sendbuf, sendcount, sendtype, root, 101, comm, true);
  }
  if (recvcounts == nullptr || displs == nullptr) return MPI_ERR_ARG;
  auto* out = static_cast<unsigned char*>(recvbuf);
  std::vector<Request*> requests;
  for (int r = 0; r < size; ++r) {
    void* slot = out + static_cast<std::size_t>(displs[r]) * recvtype->extent();
    if (r == rank) {
      if (sendbuf != MPI_IN_PLACE && !payload_free_mode()) {
        std::vector<unsigned char> packed(static_cast<std::size_t>(sendcount) * sendtype->size());
        sendtype->pack(sendbuf, sendcount, packed.data());
        recvtype->unpack(packed.data(), recvcounts[r], slot);
      }
      continue;
    }
    Request* req = nullptr;
    internal_irecv(slot, recvcounts[r], recvtype, r, 101, comm, &req, true);
    requests.push_back(req);
  }
  for (Request* req : requests) internal_wait(req);
  return MPI_SUCCESS;
}

int MPI_Allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
  int rc = check_coll_comm(comm, 0, false);
  if (rc != MPI_SUCCESS) return rc;
  rc = check_buffer_args(recvbuf, recvcount, recvtype);
  if (rc != MPI_SUCCESS) return rc;
  smpi::trace::ApiScope scope("allgather");
  if (coll_recording(scope, comm)) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kAllgather;
    if (sendbuf == MPI_IN_PLACE) {
      ti_block(recvcount, recvtype, &r.count, &r.elem);
    } else {
      ti_block(sendcount, sendtype, &r.count, &r.elem);
    }
    ti_block(recvcount, recvtype, &r.count2, &r.elem2);
    scope.emit(r);
  }
  const std::string& forced = coll_selection().allgather;
  if (forced == "recursive_doubling") {
    return allgather_recursive_doubling(sendbuf, sendcount, sendtype, recvbuf, recvcount,
                                        recvtype, comm);
  }
  if (forced == "ring") {
    return allgather_ring(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm);
  }
  SMPI_REQUIRE(forced == "auto", "unknown coll.allgather variant '" + forced + "'");
  if (pow2(comm->size())) {
    return allgather_recursive_doubling(sendbuf, sendcount, sendtype, recvbuf, recvcount,
                                        recvtype, comm);
  }
  return allgather_ring(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm);
}

int MPI_Allgatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   const int recvcounts[], const int displs[], MPI_Datatype recvtype,
                   MPI_Comm comm) {
  int rc = check_coll_comm(comm, 0, false);
  if (rc != MPI_SUCCESS) return rc;
  if (recvcounts == nullptr || displs == nullptr) return MPI_ERR_ARG;
  const int size = comm->size();
  const int rank = comm->rank_of_world(current_process_checked().world_rank);
  smpi::trace::ApiScope scope("allgatherv");
  if (coll_recording(scope, comm)) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kAllgatherv;
    if (sendbuf == MPI_IN_PLACE) {
      ti_block(recvcounts[rank], recvtype, &r.count, &r.elem);
    } else {
      ti_block(sendcount, sendtype, &r.count, &r.elem);
    }
    ti_counts(recvcounts, size, recvtype, &r.counts, &r.elem2);
    scope.emit(r);
  }
  auto* out = static_cast<unsigned char*>(recvbuf);
  // Ring over variable-size blocks.
  if (sendbuf != MPI_IN_PLACE && !payload_free_mode()) {
    std::vector<unsigned char> packed(static_cast<std::size_t>(sendcount) * sendtype->size());
    sendtype->pack(sendbuf, sendcount, packed.data());
    recvtype->unpack(packed.data(), recvcounts[rank],
                     out + static_cast<std::size_t>(displs[rank]) * recvtype->extent());
  }
  const int right = (rank + 1) % size;
  const int left = (rank - 1 + size) % size;
  for (int step = 0; step < size - 1; ++step) {
    const int send_block = (rank - step + size) % size;
    const int recv_block = (rank - step - 1 + size) % size;
    Request* sreq = nullptr;
    Request* rreq = nullptr;
    internal_isend(out + static_cast<std::size_t>(displs[send_block]) * recvtype->extent(),
                   recvcounts[send_block], recvtype, right, 102, comm, &sreq, true);
    internal_irecv(out + static_cast<std::size_t>(displs[recv_block]) * recvtype->extent(),
                   recvcounts[recv_block], recvtype, left, 102, comm, &rreq, true);
    internal_wait(sreq);
    internal_wait(rreq);
  }
  return MPI_SUCCESS;
}

int MPI_Reduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype, MPI_Op op,
               int root, MPI_Comm comm) {
  int rc = check_coll_comm(comm, root, true);
  if (rc != MPI_SUCCESS) return rc;
  if (op == MPI_OP_NULL) return MPI_ERR_OP;
  if (!valid_type(datatype)) return MPI_ERR_TYPE;
  if (!valid_count(count)) return MPI_ERR_COUNT;
  if (!op->valid_for(*datatype)) return MPI_ERR_OP;
  smpi::trace::ApiScope scope("reduce");
  if (coll_recording(scope, comm)) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kReduce;
    ti_block(count, datatype, &r.count, &r.elem);
    r.peer = root;
    r.commutative = op->commutative();
    scope.emit(r);
  }
  return reduce_binomial(sendbuf, recvbuf, count, datatype, op, root, comm);
}

int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype, MPI_Op op,
                  MPI_Comm comm) {
  int rc = check_coll_comm(comm, 0, false);
  if (rc != MPI_SUCCESS) return rc;
  if (op == MPI_OP_NULL) return MPI_ERR_OP;
  if (!valid_type(datatype)) return MPI_ERR_TYPE;
  if (!valid_count(count)) return MPI_ERR_COUNT;
  if (!op->valid_for(*datatype)) return MPI_ERR_OP;
  smpi::trace::ApiScope scope("allreduce");
  if (coll_recording(scope, comm)) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kAllreduce;
    ti_block(count, datatype, &r.count, &r.elem);
    r.commutative = op->commutative();
    scope.emit(r);
  }
  const std::string& forced = coll_selection().allreduce;
  if (forced == "recursive_doubling") {
    return allreduce_recursive_doubling(sendbuf, recvbuf, count, datatype, op, comm);
  }
  if (forced == "rabenseifner") {
    return allreduce_rabenseifner(sendbuf, recvbuf, count, datatype, op, comm);
  }
  if (forced == "reduce_bcast") {
    rc = reduce_binomial(sendbuf, recvbuf, count, datatype, op, 0, comm);
    if (rc != MPI_SUCCESS) return rc;
    return bcast_binomial(recvbuf, count, datatype, 0, comm);
  }
  SMPI_REQUIRE(forced == "auto", "unknown coll.allreduce variant '" + forced + "'");
  const std::size_t bytes = static_cast<std::size_t>(count) * datatype->size();
  if (pow2(comm->size())) {
    // Long commutative vectors: Rabenseifner halves the bytes each rank
    // moves compared to recursive doubling (§5.3-style dispatch).
    if (bytes >= 64 * 1024 && op->commutative() && count >= comm->size()) {
      return allreduce_rabenseifner(sendbuf, recvbuf, count, datatype, op, comm);
    }
    return allreduce_recursive_doubling(sendbuf, recvbuf, count, datatype, op, comm);
  }
  rc = reduce_binomial(sendbuf, recvbuf, count, datatype, op, 0, comm);
  if (rc != MPI_SUCCESS) return rc;
  return bcast_binomial(recvbuf, count, datatype, 0, comm);
}

int MPI_Scan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype, MPI_Op op,
             MPI_Comm comm) {
  int rc = check_coll_comm(comm, 0, false);
  if (rc != MPI_SUCCESS) return rc;
  if (op == MPI_OP_NULL) return MPI_ERR_OP;
  if (!valid_type(datatype)) return MPI_ERR_TYPE;
  if (!valid_count(count)) return MPI_ERR_COUNT;
  if (!op->valid_for(*datatype)) return MPI_ERR_OP;
  smpi::trace::ApiScope scope("scan");
  if (coll_recording(scope, comm)) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kScan;
    ti_block(count, datatype, &r.count, &r.elem);
    r.commutative = op->commutative();
    scope.emit(r);
  }
  const int size = comm->size();
  const int rank = comm->rank_of_world(current_process_checked().world_rank);
  const std::size_t bytes = static_cast<std::size_t>(count) * datatype->size();

  const bool pf = payload_free_mode();
  const void* contribution = (sendbuf == MPI_IN_PLACE) ? recvbuf : sendbuf;
  std::vector<unsigned char> acc;
  if (!pf) {
    acc.resize(std::max<std::size_t>(bytes, 1));
    datatype->pack(contribution, count, acc.data());
  }
  if (rank > 0) {
    std::vector<unsigned char> prefix;
    if (!pf) prefix.resize(std::max<std::size_t>(bytes, 1));
    rc = smpi::core::internal_recv(pf ? recvbuf : prefix.data(), static_cast<int>(bytes),
                                   MPI_BYTE, rank - 1, 103, comm, MPI_STATUS_IGNORE, true);
    if (rc != MPI_SUCCESS) return rc;
    // prefix covers ranks [0, rank): result = prefix OP mine.
    if (!pf) op->apply(prefix.data(), acc.data(), count, datatype);
  }
  if (rank < size - 1) {
    rc = smpi::core::internal_send(pf ? recvbuf : acc.data(), static_cast<int>(bytes), MPI_BYTE,
                                   rank + 1, 103, comm, true);
    if (rc != MPI_SUCCESS) return rc;
  }
  if (!pf) datatype->unpack(acc.data(), count, recvbuf);
  return MPI_SUCCESS;
}

int MPI_Reduce_scatter(const void* sendbuf, void* recvbuf, const int recvcounts[],
                       MPI_Datatype datatype, MPI_Op op, MPI_Comm comm) {
  int rc = check_coll_comm(comm, 0, false);
  if (rc != MPI_SUCCESS) return rc;
  if (op == MPI_OP_NULL) return MPI_ERR_OP;
  if (!valid_type(datatype)) return MPI_ERR_TYPE;
  if (recvcounts == nullptr) return MPI_ERR_ARG;
  if (!op->valid_for(*datatype)) return MPI_ERR_OP;
  const int size = comm->size();
  for (int r = 0; r < size; ++r) {
    if (recvcounts[r] < 0) return MPI_ERR_COUNT;
  }
  smpi::trace::ApiScope scope("reducescatter");
  if (coll_recording(scope, comm)) {
    smpi::trace::TiRecord rec;
    rec.op = smpi::trace::TiOp::kReduceScatter;
    ti_counts(recvcounts, size, datatype, &rec.counts, &rec.elem);
    rec.commutative = op->commutative();
    scope.emit(rec);
  }
  if (op->commutative()) {
    return reduce_scatter_pairwise(sendbuf, recvbuf, recvcounts, datatype, op, comm);
  }
  // Non-commutative fallback: reduce to rank 0, then scatterv.
  int total = 0;
  std::vector<int> displs(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    displs[static_cast<std::size_t>(r)] = total;
    total += recvcounts[r];
  }
  const int rank = comm->rank_of_world(current_process_checked().world_rank);
  const bool pf = payload_free_mode();
  std::vector<unsigned char> full;
  if (!pf) full.resize(static_cast<std::size_t>(total) * datatype->extent());
  void* staged = pf ? recvbuf : static_cast<void*>(full.data());
  rc = MPI_Reduce(sendbuf, staged, total, datatype, op, 0, comm);
  if (rc != MPI_SUCCESS) return rc;
  return MPI_Scatterv(rank == 0 ? staged : nullptr, recvcounts, displs.data(), datatype, recvbuf,
                      recvcounts[rank], datatype, 0, comm);
}

int MPI_Alltoall(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                 int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
  int rc = check_coll_comm(comm, 0, false);
  if (rc != MPI_SUCCESS) return rc;
  rc = check_buffer_args(recvbuf, recvcount, recvtype);
  if (rc != MPI_SUCCESS) return rc;
  if (sendbuf == MPI_IN_PLACE) return MPI_ERR_ARG;
  smpi::trace::ApiScope scope("alltoall");
  if (coll_recording(scope, comm)) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kAlltoall;
    ti_block(sendcount, sendtype, &r.count, &r.elem);
    ti_block(recvcount, recvtype, &r.count2, &r.elem2);
    scope.emit(r);
  }
  const std::string& forced = coll_selection().alltoall;
  if (forced == "bruck") {
    return alltoall_bruck(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm);
  }
  if (forced == "basic") {
    return alltoall_basic(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm);
  }
  if (forced == "pairwise") {
    return alltoall_pairwise(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm);
  }
  SMPI_REQUIRE(forced == "auto", "unknown coll.alltoall variant '" + forced + "'");
  // Size-based dispatch as in MPICH2: Bruck for short messages on enough
  // ranks (latency-bound), the naive full-throttle algorithm for medium
  // ones, pairwise exchange for long ones.
  const std::size_t block = static_cast<std::size_t>(sendcount) * sendtype->size();
  if (block <= 256 && comm->size() >= 8) {
    return alltoall_bruck(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm);
  }
  if (block <= 32 * 1024) {
    return alltoall_basic(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm);
  }
  return alltoall_pairwise(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm);
}

int MPI_Alltoallv(const void* sendbuf, const int sendcounts[], const int sdispls[],
                  MPI_Datatype sendtype, void* recvbuf, const int recvcounts[],
                  const int rdispls[], MPI_Datatype recvtype, MPI_Comm comm) {
  int rc = check_coll_comm(comm, 0, false);
  if (rc != MPI_SUCCESS) return rc;
  if (sendcounts == nullptr || sdispls == nullptr || recvcounts == nullptr ||
      rdispls == nullptr) {
    return MPI_ERR_ARG;
  }
  const int size = comm->size();
  const int rank = comm->rank_of_world(current_process_checked().world_rank);
  smpi::trace::ApiScope scope("alltoallv");
  if (coll_recording(scope, comm)) {
    smpi::trace::TiRecord r;
    r.op = smpi::trace::TiOp::kAlltoallv;
    ti_counts(sendcounts, size, sendtype, &r.counts, &r.elem);
    ti_counts(recvcounts, size, recvtype, &r.counts2, &r.elem2);
    scope.emit(r);
  }
  const auto* in = static_cast<const unsigned char*>(sendbuf);
  auto* out = static_cast<unsigned char*>(recvbuf);
  std::vector<Request*> requests;
  for (int r = 0; r < size; ++r) {
    if (r == rank) continue;
    Request* rreq = nullptr;
    internal_irecv(out + static_cast<std::size_t>(rdispls[r]) * recvtype->extent(), recvcounts[r],
                   recvtype, r, 104, comm, &rreq, true);
    requests.push_back(rreq);
  }
  for (int r = 0; r < size; ++r) {
    if (r == rank) {
      if (payload_free_mode()) continue;
      std::vector<unsigned char> packed(static_cast<std::size_t>(sendcounts[r]) *
                                        sendtype->size());
      sendtype->pack(in + static_cast<std::size_t>(sdispls[r]) * sendtype->extent(),
                     sendcounts[r], packed.data());
      recvtype->unpack(packed.data(), recvcounts[r],
                       out + static_cast<std::size_t>(rdispls[r]) * recvtype->extent());
      continue;
    }
    Request* sreq = nullptr;
    internal_isend(in + static_cast<std::size_t>(sdispls[r]) * sendtype->extent(), sendcounts[r],
                   sendtype, r, 104, comm, &sreq, true);
    requests.push_back(sreq);
  }
  for (Request* req : requests) internal_wait(req);
  return MPI_SUCCESS;
}
