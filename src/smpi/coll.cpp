// Collective communication algorithms, each expressed as a set of
// point-to-point messages that contend in the shared network model (§4.2) —
// never as monolithic formulas. The algorithms mirror the MPICH2/OpenMPI
// implementations the paper copied (§5.3): binomial trees for rooted
// operations, recursive doubling / ring for allgather-style ones, pairwise
// exchange for many-to-many.
#include <algorithm>
#include <cstring>
#include <iterator>
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
  kTagReduceScatter = 10,
  kTagScatterv = 100,
  kTagGatherv,
  kTagAllgatherv,
  kTagScan,
  kTagAlltoallv,
};

int comm_rank_of(MPI_Comm comm) {
  return comm->rank_of_world(current_process_checked().world_rank);
}

bool is_power_of_two(int x) { return x > 0 && (x & (x - 1)) == 0; }

int check_buffer_args(const void* buf, int count, MPI_Datatype type) {
  if (!valid_count(count)) return MPI_ERR_COUNT;
  if (!valid_type(type)) return MPI_ERR_TYPE;
  if (buf == nullptr && count > 0) return MPI_ERR_BUFFER;
  return MPI_SUCCESS;
}

// check_buffer_args for a side that may be MPI_IN_PLACE: it has no buffer,
// count or type of its own to check.
int check_side_args(const void* buf, int count, MPI_Datatype type) {
  return buf == MPI_IN_PLACE ? MPI_SUCCESS : check_buffer_args(buf, count, type);
}

// Packs `size` blocks of `count` elements from `buf`, rotated so that block
// i of the result is block (i + shift) % size of `buf`.
std::vector<unsigned char> pack_rotated(const void* buf, int count, MPI_Datatype type, int size,
                                        int shift) {
  const std::size_t block = static_cast<std::size_t>(count) * type->size();
  std::vector<unsigned char> packed(
      std::max<std::size_t>(block * static_cast<std::size_t>(size), 1));
  type->pack(buf, count * size, packed.data());
  std::vector<unsigned char> rotated(packed.size());
  for (int i = 0; i < size; ++i) {
    std::memcpy(rotated.data() + static_cast<std::size_t>(i) * block,
                packed.data() + static_cast<std::size_t>((i + shift) % size) * block, block);
  }
  return rotated;
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

// A reduction's staging: `acc` starts as this rank's packed contribution,
// `incoming` takes a peer's partial result. Both stay empty in payload-free
// mode. Op::apply(in, inout) computes inout = in OP inout, so the lower-rank
// operand goes first, as MPI mandates for non-commutative operators.
struct Accumulator {
  std::vector<unsigned char> acc;
  std::vector<unsigned char> incoming;

  Accumulator(const void* contribution, int count, MPI_Datatype type) {
    if (payload_free_mode()) return;
    const std::size_t bytes = static_cast<std::size_t>(count) * type->size();
    acc.resize(std::max<std::size_t>(bytes, 1));
    type->pack(contribution, count, acc.data());
    incoming.resize(acc.size());
  }
};

// --- Block layouts and the shapes built on them ----------------------------
//
// A layout maps a comm rank to its Block of a collective buffer: the first
// byte and the element count. Each shape below runs over layouts, so a
// fixed-size collective and its v-variant share one loop. The shapes open no
// CollSendScope: proving a region stable for zero-copy sends is the caller's
// job.
struct Block {
  unsigned char* ptr;
  int count;
};

// `count` elements per rank laid end to end (the fixed-size collectives);
// block(size).ptr is the end of the buffer. The datatype is read only when a
// block is asked for, so a side that is not significant on this rank may
// hold an invalid handle.
auto uniform_blocks(const void* base, int count, MPI_Datatype type) {
  auto* bytes = static_cast<unsigned char*>(const_cast<void*>(base));
  return [bytes, count, type](int r) {
    return Block{bytes + static_cast<std::size_t>(r) * static_cast<std::size_t>(count) *
                             type->extent(),
                 count};
  };
}

// counts[r] elements starting displs[r] elements into `base` (the
// v-collectives); read lazily, like uniform_blocks.
auto displaced_blocks(const void* base, const int counts[], const int displs[],
                      MPI_Datatype type) {
  auto* bytes = static_cast<unsigned char*>(const_cast<void*>(base));
  return [bytes, counts, displs, type](int r) {
    return Block{bytes + static_cast<std::size_t>(displs[r]) * type->extent(), counts[r]};
  };
}

// The one block of a collective that never crosses the network: a rank's
// own, copied from its send side to its receive side. It moves
// min(send bytes, receive bytes), the rule a received message follows, so
// a longer receive block keeps its tail. Nothing moves when either side is
// MPI_IN_PLACE (the block is already where it belongs) or in payload-free
// mode.
void copy_own_block(const void* src, int sendcount, MPI_Datatype sendtype, void* dst,
                    int recvcount, MPI_Datatype recvtype) {
  if (src == MPI_IN_PLACE || dst == MPI_IN_PLACE || payload_free_mode()) return;
  const std::size_t send_bytes = static_cast<std::size_t>(sendcount) * sendtype->size();
  const std::size_t bytes =
      std::min(send_bytes, static_cast<std::size_t>(recvcount) * recvtype->size());
  if (bytes == 0) return;
  std::vector<unsigned char> packed(send_bytes);
  sendtype->pack(src, sendcount, packed.data());
  recvtype->unpack_bytes(packed.data(), bytes, dst);
}

// One round of the pairwise shape: send a block to `dst` while receiving
// one from `src`, then wait for both.
void exchange(const void* sendbuf, int sendcount, MPI_Datatype sendtype, int dst, void* recvbuf,
              int recvcount, MPI_Datatype recvtype, int src, int tag, MPI_Comm comm) {
  Request* sreq = nullptr;
  Request* rreq = nullptr;
  internal_isend(sendbuf, sendcount, sendtype, dst, tag, comm, &sreq, true);
  internal_irecv(recvbuf, recvcount, recvtype, src, tag, comm, &rreq, true);
  internal_wait(sreq);
  internal_wait(rreq);
}

// Ring allgather: in step s each rank sends its right neighbour the block it
// received from its left one in step s - 1, starting with its own, which
// must already be in place.
template <class Layout>
void ring_allgather(const Layout& block, MPI_Datatype type, int tag, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  const int right = (rank + 1) % size;
  const int left = (rank - 1 + size) % size;
  for (int step = 0; step < size - 1; ++step) {
    const Block out = block((rank - step + size) % size);
    const Block in = block((rank - step - 1 + size) % size);
    exchange(out.ptr, out.count, type, right, in.ptr, in.count, type, left, tag, comm);
  }
}

// Linear scatter: the root sends every other rank its block and copies its
// own; every other rank receives once.
template <class Layout>
int linear_scatter(const Layout& send, MPI_Datatype sendtype, void* recvbuf, int recvcount,
                   MPI_Datatype recvtype, int root, int tag, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  if (rank != root) {
    return internal_recv(recvbuf, recvcount, recvtype, root, tag, comm, MPI_STATUS_IGNORE, true);
  }
  std::vector<Request*> requests;
  for (int r = 0; r < size; ++r) {
    const Block chunk = send(r);
    if (r == rank) {
      copy_own_block(chunk.ptr, chunk.count, sendtype, recvbuf, recvcount, recvtype);
      continue;
    }
    Request* req = nullptr;
    internal_isend(chunk.ptr, chunk.count, sendtype, r, tag, comm, &req, true);
    requests.push_back(req);
  }
  for (Request* req : requests) internal_wait(req);
  return MPI_SUCCESS;
}

// Linear gather, the mirror image: the root receives every other rank's
// block and copies its own.
template <class Layout>
int linear_gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, const Layout& recv,
                  MPI_Datatype recvtype, int root, int tag, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  if (rank != root) return internal_send(sendbuf, sendcount, sendtype, root, tag, comm, true);
  std::vector<Request*> requests;
  for (int r = 0; r < size; ++r) {
    const Block slot = recv(r);
    if (r == rank) {
      copy_own_block(sendbuf, sendcount, sendtype, slot.ptr, slot.count, recvtype);
      continue;
    }
    Request* req = nullptr;
    internal_irecv(slot.ptr, slot.count, recvtype, r, tag, comm, &req, true);
    requests.push_back(req);
  }
  for (Request* req : requests) internal_wait(req);
  return MPI_SUCCESS;
}

// Basic alltoall: post every receive, then every send, then wait for all;
// the own block is copied.
template <class SendLayout, class RecvLayout>
void basic_alltoall(const SendLayout& send, MPI_Datatype sendtype, const RecvLayout& recv,
                    MPI_Datatype recvtype, int tag, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  std::vector<Request*> requests;
  for (int r = 0; r < size; ++r) {
    if (r == rank) continue;
    const Block slot = recv(r);
    Request* rreq = nullptr;
    internal_irecv(slot.ptr, slot.count, recvtype, r, tag, comm, &rreq, true);
    requests.push_back(rreq);
  }
  for (int r = 0; r < size; ++r) {
    const Block chunk = send(r);
    if (r == rank) {
      const Block own = recv(rank);
      copy_own_block(chunk.ptr, chunk.count, sendtype, own.ptr, own.count, recvtype);
      continue;
    }
    Request* sreq = nullptr;
    internal_isend(chunk.ptr, chunk.count, sendtype, r, tag, comm, &sreq, true);
    requests.push_back(sreq);
  }
  for (Request* req : requests) internal_wait(req);
}

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
    exchange(nullptr, 0, MPI_BYTE, dst, nullptr, 0, MPI_BYTE, src, kTagBarrier, comm);
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
  const auto n = static_cast<std::size_t>(size);
  for (std::size_t r = 0; r < n; ++r) displs[r + 1] = displs[r] + total / n + (r < total % n);
  auto block = [data, &displs](int r) {
    const auto i = static_cast<std::size_t>(r);
    return Block{data + displs[i], static_cast<int>(displs[i + 1] - displs[i])};
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
  // Unlike linear_scatter it sends no zero-size block.
  if (rank == root) {
    std::vector<Request*>& sends = proc.coll_requests;  // per-rank scratch
    sends.clear();
    for (int r = 0; r < size; ++r) {
      const Block b = block(r);
      if (r == root || b.count == 0) continue;
      Request* req = nullptr;
      internal_isend(b.ptr, b.count, MPI_BYTE, r, kTagBcast, comm, &req, true);
      sends.push_back(req);
    }
    for (Request* req : sends) internal_wait(req);
  } else if (const Block mine = block(rank); mine.count > 0) {
    const int rc = internal_recv(mine.ptr, mine.count, MPI_BYTE, root, kTagBcast, comm,
                                 MPI_STATUS_IGNORE, true);
    if (rc != MPI_SUCCESS) return rc;
  }

  // Phase 2: ring allgather of the blocks.
  ring_allgather(block, MPI_BYTE, kTagBcast, comm);
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
  // Each side sizes the block by its own significant arguments: the send
  // side is read at the root only.
  const std::size_t block = rank == root
                                ? static_cast<std::size_t>(sendcount) * sendtype->size()
                                : static_cast<std::size_t>(recvcount) * recvtype->size();

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
    if (!pf) staging = pack_rotated(sendbuf, sendcount, sendtype, size, root);
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

  // Own block is block 0 of the staging area; at most `block` bytes of it
  // are the root's, as in copy_own_block.
  if (!pf && recvbuf != MPI_IN_PLACE) {
    recvtype->unpack_bytes(
        staging.data(),
        std::min(block, static_cast<std::size_t>(recvcount) * recvtype->size()), recvbuf);
  }
  return MPI_SUCCESS;
}

int scatter_linear(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
  return linear_scatter(uniform_blocks(sendbuf, sendcount, sendtype), sendtype, recvbuf, recvcount,
                        recvtype, root, kTagScatter, comm);
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
  const auto slots = uniform_blocks(recvbuf, recvcount, recvtype);  // significant at the root
  if (!pf) {
    staging.resize(std::max<std::size_t>(block * span, 1));
    // Own block at offset 0 (packed).
    if (in_place_root) {
      recvtype->pack(slots(rank).ptr, recvcount, staging.data());
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
    for (int rel = 0; rel < size; ++rel) {
      recvtype->unpack(staging.data() + static_cast<std::size_t>(rel) * block, recvcount,
                       slots((rel + root) % size).ptr);
    }
  }
  return MPI_SUCCESS;
}

int gather_linear(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
  return linear_gather(sendbuf, sendcount, sendtype, uniform_blocks(recvbuf, recvcount, recvtype),
                       recvtype, root, kTagGather, comm);
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
  const auto blocks = uniform_blocks(recvbuf, recvcount, recvtype);
  copy_own_block(sendbuf, sendcount, sendtype, blocks(rank).ptr, recvcount, recvtype);
  // Zero-copy eligible: round k sends a region assembled in rounds < k;
  // received regions are disjoint from everything already sent.
  CollSendScope zc_scope(current_process_checked(), recvbuf, blocks(size).ptr - blocks(0).ptr);
  for (int mask = 1; mask < size; mask <<= 1) {
    const int partner = rank ^ mask;
    // Each side sends the `mask` blocks it has assembled so far.
    exchange(blocks(rank & ~(mask - 1)).ptr, recvcount * mask, recvtype, partner,
             blocks(partner & ~(mask - 1)).ptr, recvcount * mask, recvtype, partner,
             kTagAllgather, comm);
  }
  return MPI_SUCCESS;
}

int allgather_ring(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
  const int size = comm->size();
  const auto blocks = uniform_blocks(recvbuf, recvcount, recvtype);
  copy_own_block(sendbuf, sendcount, sendtype, blocks(comm_rank_of(comm)).ptr, recvcount,
                 recvtype);
  // Zero-copy eligible: each ring step forwards the block received in the
  // previous step; a block is written once, before its first send.
  CollSendScope zc_scope(current_process_checked(), recvbuf, blocks(size).ptr - blocks(0).ptr);
  ring_allgather(blocks, recvtype, kTagAllgather, comm);
  return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Alltoall: pairwise exchange (Figure 10) and basic isend/irecv.
// ---------------------------------------------------------------------------

int alltoall_pairwise(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                      int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  const auto send = uniform_blocks(sendbuf, sendcount, sendtype);
  const auto recv = uniform_blocks(recvbuf, recvcount, recvtype);
  copy_own_block(send(rank).ptr, sendcount, sendtype, recv(rank).ptr, recvcount, recvtype);
  // Zero-copy eligible: the send buffer is caller-const for the whole call
  // (MPI_Alltoall rejects MPI_IN_PLACE, so it cannot alias recvbuf).
  CollSendScope zc_scope(current_process_checked(), sendbuf, send(size).ptr - send(0).ptr);
  // size-1 steps; at step k exchange with ranks at distance k (Figure 10).
  for (int step = 1; step < size; ++step) {
    const int dst = (rank + step) % size;
    const int src = (rank - step + size) % size;
    exchange(send(dst).ptr, sendcount, sendtype, dst, recv(src).ptr, recvcount, recvtype, src,
             kTagAlltoall, comm);
  }
  return MPI_SUCCESS;
}

int alltoall_basic(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
  // Zero-copy eligible: caller-const send buffer, no MPI_IN_PLACE aliasing.
  CollSendScope zc_scope(current_process_checked(), sendbuf,
                         static_cast<std::size_t>(comm->size()) *
                             static_cast<std::size_t>(sendcount) * sendtype->extent());
  basic_alltoall(uniform_blocks(sendbuf, sendcount, sendtype), sendtype,
                 uniform_blocks(recvbuf, recvcount, recvtype), recvtype, kTagAlltoall, comm);
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
  if (!pf) tmp = pack_rotated(sendbuf, sendcount, sendtype, size, rank);

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
    exchange(pf ? sendbuf : staging.data(), static_cast<int>(moving * block), MPI_BYTE, dst,
             pf ? recvbuf : incoming.data(), static_cast<int>(moving * block), MPI_BYTE, src,
             kTagAlltoall, comm);
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
    const auto slots = uniform_blocks(recvbuf, recvcount, recvtype);
    // At most `block` bytes per source, as in copy_own_block.
    const std::size_t bytes =
        std::min(block, static_cast<std::size_t>(recvcount) * recvtype->size());
    for (int i = 0; i < size; ++i) {
      recvtype->unpack_bytes(tmp.data() + static_cast<std::size_t>(i) * block, bytes,
                             slots((rank - i + size) % size).ptr);
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

  // Payload-free: the accumulator and incoming buffers are elided — the
  // messages carry the same byte counts from the contribution pointer.
  const bool pf = payload_free_mode();
  const void* contribution = (sendbuf == MPI_IN_PLACE) ? recvbuf : sendbuf;
  auto [acc, incoming] = Accumulator(contribution, count, datatype);
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
        op->apply(acc.data(), incoming.data(), count, datatype);
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
  auto [acc, incoming] = Accumulator(contribution, count, datatype);

  for (int mask = 1; mask < size; mask <<= 1) {
    const int partner = rank ^ mask;
    exchange(pf ? recvbuf : acc.data(), static_cast<int>(bytes), MPI_BYTE, partner,
             pf ? recvbuf : incoming.data(), static_cast<int>(bytes), MPI_BYTE, partner,
             kTagAllreduce, comm);
    if (pf) continue;
    if (partner < rank) {
      // incoming is the lower-rank operand: acc = incoming OP acc.
      op->apply(incoming.data(), acc.data(), count, datatype);
    } else {
      op->apply(acc.data(), incoming.data(), count, datatype);
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

  // Phase 1: reduce_scatter — I end with the reduction of my block, in
  // place in recvbuf.
  const auto blocks = displaced_blocks(recvbuf, counts.data(), displs.data(), datatype);
  const void* contribution = (sendbuf == MPI_IN_PLACE) ? recvbuf : sendbuf;
  const int rs = reduce_scatter_pairwise(contribution, blocks(rank).ptr, counts.data(), datatype,
                                         op, comm);
  if (rs != MPI_SUCCESS) return rs;

  // Phase 2: ring allgather of the reduced blocks. Zero-copy eligible:
  // same single-write-then-forward causality as allgather_ring.
  CollSendScope zc_scope(current_process_checked(), recvbuf,
                         static_cast<std::size_t>(offset) * datatype->extent());
  ring_allgather(blocks, datatype, kTagAllreduce, comm);
  return MPI_SUCCESS;
}

int allreduce_reduce_bcast(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype,
                           MPI_Op op, MPI_Comm comm) {
  const int rc = reduce_binomial(sendbuf, recvbuf, count, datatype, op, 0, comm);
  if (rc != MPI_SUCCESS) return rc;
  return bcast_binomial(recvbuf, count, datatype, 0, comm);
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
  auto [acc, incoming] =
      Accumulator(in + displs[static_cast<std::size_t>(rank)] * elem, my_count, datatype);

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
      exchange(in + displs[static_cast<std::size_t>(dst)] * elem, recvcounts[dst], datatype, dst,
               pf ? recvbuf : incoming.data(), static_cast<int>(my_bytes), MPI_BYTE, src,
               kTagReduceScatter, comm);
      if (!pf) op->apply(incoming.data(), acc.data(), my_count, datatype);
    }
  }
  if (!pf) datatype->unpack(acc.data(), my_count, recvbuf);
  return MPI_SUCCESS;
}

// ---------------------------------------------------------------------------
// Variant tables: the algorithms a CollSelection field may force instead of
// the size-based "auto" dispatch, one table per collective.
// ---------------------------------------------------------------------------

namespace {

template <class Fn>
struct Variant {
  const char* name;
  Fn run;
};

const Variant<decltype(&bcast_binomial)> kBcastVariants[] = {
    {"binomial", bcast_binomial}, {"scatter_ring_allgather", bcast_scatter_ring_allgather}};
const Variant<decltype(&alltoall_basic)> kAlltoallVariants[] = {
    {"bruck", alltoall_bruck}, {"basic", alltoall_basic}, {"pairwise", alltoall_pairwise}};
const Variant<decltype(&allreduce_rabenseifner)> kAllreduceVariants[] = {
    {"recursive_doubling", allreduce_recursive_doubling},
    {"rabenseifner", allreduce_rabenseifner},
    {"reduce_bcast", allreduce_reduce_bcast}};
const Variant<decltype(&allgather_ring)> kAllgatherVariants[] = {
    {"recursive_doubling", allgather_recursive_doubling}, {"ring", allgather_ring}};

// The variant forced for one collective, or null for "auto". An unknown
// name is a hard error: a silently ignored override would invalidate a
// whole sweep.
template <class Fn, std::size_t N>
Fn forced_variant(const Variant<Fn> (&table)[N], const std::string& name,
                  const char* collective) {
  if (name == "auto") return nullptr;
  const auto* found = std::find_if(std::begin(table), std::end(table),
                                   [&name](const Variant<Fn>& v) { return name == v.name; });
  SMPI_REQUIRE(found != std::end(table),
               std::string("unknown coll.") + collective + " variant '" + name + "'");
  return found->run;
}

}  // namespace

std::vector<std::string> variant_names(const std::string& collective) {
  const auto names = [](const auto& table) {
    std::vector<std::string> out;
    for (const auto& v : table) out.emplace_back(v.name);
    return out;
  };
  if (collective == "bcast") return names(kBcastVariants);
  if (collective == "alltoall") return names(kAlltoallVariants);
  if (collective == "allreduce") return names(kAllreduceVariants);
  if (collective == "allgather") return names(kAllgatherVariants);
  return {};
}

}  // namespace smpi::coll

// ---------------------------------------------------------------------------
// MPI entry points: validate, then dispatch to a variant the way real
// implementations pick algorithms by size (§5.3).
// ---------------------------------------------------------------------------

using namespace smpi::core;
using namespace smpi::coll;
namespace tr = smpi::trace;

namespace {

int check_coll_comm(MPI_Comm comm, int root, bool has_root) {
  if (!valid_comm(comm)) return MPI_ERR_COMM;
  if (has_root && (root < 0 || root >= comm->size())) return MPI_ERR_ROOT;
  return MPI_SUCCESS;
}

// check_buffer_args for a v-collective side: every rank's count, one type.
int check_vector_args(const void* buf, const int counts[], const int displs[], int size,
                      MPI_Datatype type) {
  if (counts == nullptr || displs == nullptr) return MPI_ERR_ARG;
  for (int r = 0; r < size; ++r) {
    const int rc = check_buffer_args(buf, counts[r], type);
    if (rc != MPI_SUCCESS) return rc;
  }
  return MPI_SUCCESS;
}

// Forced collective-variant selection (SmpiConfig::coll): what-if campaigns
// sweep over algorithm choices by overriding the size-based auto dispatch.
const smpi::core::CollSelection& coll_selection() {
  return current_process_checked().world->config().coll;
}

// The checks every reduction entry point with a scalar count makes.
int check_reduce_args(MPI_Comm comm, int root, bool has_root, int count, MPI_Datatype datatype,
                      MPI_Op op) {
  const int rc = check_coll_comm(comm, root, has_root);
  if (rc != MPI_SUCCESS) return rc;
  if (op == MPI_OP_NULL) return MPI_ERR_OP;
  if (!valid_type(datatype)) return MPI_ERR_TYPE;
  if (!valid_count(count)) return MPI_ERR_COUNT;
  if (!op->valid_for(*datatype)) return MPI_ERR_OP;
  return MPI_SUCCESS;
}

// --- TI capture helpers ----------------------------------------------------

// Emits this rank's TI record of a collective, filled in by `fill`, when the
// call is recorded. TI traces replay collectives on MPI_COMM_WORLD;
// capturing one on a derived communicator would silently change the
// traffic pattern, so it is rejected outright (the documented capture
// limitation).
template <class Fill>
void record_coll(tr::ApiScope& scope, MPI_Comm comm, tr::TiOp op, Fill fill) {
  if (!scope.recording()) return;
  SMPI_REQUIRE(comm == current_process_checked().world->world_comm(),
               "TI capture supports collectives on MPI_COMM_WORLD only");
  tr::TiRecord r;
  r.op = op;
  fill(r);
  scope.emit(r);
}

// A reduction's record: its count, root (0 when it has none) and whether
// its op commutes.
void record_reduction(tr::ApiScope& scope, MPI_Comm comm, tr::TiOp op_kind, int count,
                      MPI_Datatype datatype, MPI_Op op, int root) {
  record_coll(scope, comm, op_kind, [&](tr::TiRecord& r) {
    ti_block(count, datatype, &r.count, &r.elem);
    r.peer = root;
    r.commutative = op->commutative();
  });
}

}  // namespace

int MPI_Barrier(MPI_Comm comm) {
  const int rc = check_coll_comm(comm, 0, false);
  if (rc != MPI_SUCCESS) return rc;
  tr::ApiScope scope("barrier");
  record_coll(scope, comm, tr::TiOp::kBarrier, [](tr::TiRecord&) {});
  return barrier_dissemination(comm);
}

int MPI_Bcast(void* buffer, int count, MPI_Datatype datatype, int root, MPI_Comm comm) {
  int rc = check_coll_comm(comm, root, true);
  if (rc != MPI_SUCCESS) return rc;
  rc = check_buffer_args(buffer, count, datatype);
  if (rc != MPI_SUCCESS) return rc;
  tr::ApiScope scope("bcast");
  record_coll(scope, comm, tr::TiOp::kBcast, [&](tr::TiRecord& r) {
    ti_block(count, datatype, &r.count, &r.elem);
    r.peer = root;
  });
  if (const auto forced = forced_variant(kBcastVariants, coll_selection().bcast, "bcast")) {
    return forced(buffer, count, datatype, root, comm);
  }
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
  const int rank = comm_rank_of(comm);
  if (rank == root) {
    rc = check_buffer_args(sendbuf, sendcount, sendtype);
    if (rc != MPI_SUCCESS) return rc;
  } else if (recvbuf == MPI_IN_PLACE) {
    return MPI_ERR_ARG;  // MPI_IN_PLACE is the root's alone
  }
  rc = check_side_args(recvbuf, recvcount, recvtype);
  if (rc != MPI_SUCCESS) return rc;
  tr::ApiScope scope("scatter");
  // Only this rank's *significant* arguments are read: the send side is
  // defined at the root only (a conforming non-root may pass garbage there,
  // including a dangling datatype handle).
  record_coll(scope, comm, tr::TiOp::kScatter, [&](tr::TiRecord& r) {
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
  });
  return scatter_binomial(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root, comm);
}

int MPI_Scatterv(const void* sendbuf, const int sendcounts[], const int displs[],
                 MPI_Datatype sendtype, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 int root, MPI_Comm comm) {
  int rc = check_coll_comm(comm, root, true);
  if (rc != MPI_SUCCESS) return rc;
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  if (rank == root) {
    rc = check_vector_args(sendbuf, sendcounts, displs, size, sendtype);
    if (rc != MPI_SUCCESS) return rc;
  } else if (recvbuf == MPI_IN_PLACE) {
    return MPI_ERR_ARG;
  }
  rc = check_side_args(recvbuf, recvcount, recvtype);
  if (rc != MPI_SUCCESS) return rc;
  tr::ApiScope scope("scatterv");
  record_coll(scope, comm, tr::TiOp::kScatterv, [&](tr::TiRecord& r) {
    ti_block(recvcount, recvtype, &r.count2, &r.elem2);
    r.peer = root;
    if (rank == root) ti_counts(sendcounts, size, sendtype, &r.counts, &r.elem);
  });
  return linear_scatter(displaced_blocks(sendbuf, sendcounts, displs, sendtype), sendtype, recvbuf,
                        recvcount, recvtype, root, kTagScatterv, comm);
}

int MPI_Gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
               int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
  int rc = check_coll_comm(comm, root, true);
  if (rc != MPI_SUCCESS) return rc;
  const int rank = comm_rank_of(comm);
  rc = check_side_args(sendbuf, sendcount, sendtype);
  if (rc != MPI_SUCCESS) return rc;
  if (rank == root) {
    rc = check_buffer_args(recvbuf, recvcount, recvtype);
    if (rc != MPI_SUCCESS) return rc;
  } else if (sendbuf == MPI_IN_PLACE) {
    return MPI_ERR_ARG;
  }
  tr::ApiScope scope("gather");
  // The recv side is significant at the root only; a conforming non-root
  // may pass garbage recvcount/recvtype.
  record_coll(scope, comm, tr::TiOp::kGather, [&](tr::TiRecord& r) {
    const bool in_place = sendbuf == MPI_IN_PLACE;  // the root contributes its recv block
    ti_block(in_place ? recvcount : sendcount, in_place ? recvtype : sendtype, &r.count, &r.elem);
    if (rank == root) {
      ti_block(recvcount, recvtype, &r.count2, &r.elem2);
    } else {
      r.count2 = r.count;
      r.elem2 = r.elem;
    }
    r.peer = root;
  });
  return gather_binomial(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root, comm);
}

int MPI_Gatherv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                const int recvcounts[], const int displs[], MPI_Datatype recvtype, int root,
                MPI_Comm comm) {
  int rc = check_coll_comm(comm, root, true);
  if (rc != MPI_SUCCESS) return rc;
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  rc = check_side_args(sendbuf, sendcount, sendtype);
  if (rc != MPI_SUCCESS) return rc;
  if (rank == root) {
    rc = check_vector_args(recvbuf, recvcounts, displs, size, recvtype);
    if (rc != MPI_SUCCESS) return rc;
  } else if (sendbuf == MPI_IN_PLACE) {
    return MPI_ERR_ARG;
  }
  tr::ApiScope scope("gatherv");
  record_coll(scope, comm, tr::TiOp::kGatherv, [&](tr::TiRecord& r) {
    ti_block(sendbuf == MPI_IN_PLACE ? 0 : sendcount, sendtype, &r.count, &r.elem);
    r.peer = root;
    // recvtype is significant at the root only.
    if (rank == root) ti_counts(recvcounts, size, recvtype, &r.counts, &r.elem2);
  });
  return linear_gather(sendbuf, sendcount, sendtype,
                       displaced_blocks(recvbuf, recvcounts, displs, recvtype), recvtype, root,
                       kTagGatherv, comm);
}

int MPI_Allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
  int rc = check_coll_comm(comm, 0, false);
  if (rc != MPI_SUCCESS) return rc;
  rc = check_side_args(sendbuf, sendcount, sendtype);
  if (rc != MPI_SUCCESS) return rc;
  rc = check_buffer_args(recvbuf, recvcount, recvtype);
  if (rc != MPI_SUCCESS) return rc;
  tr::ApiScope scope("allgather");
  record_coll(scope, comm, tr::TiOp::kAllgather, [&](tr::TiRecord& r) {
    const bool in_place = sendbuf == MPI_IN_PLACE;
    ti_block(in_place ? recvcount : sendcount, in_place ? recvtype : sendtype, &r.count, &r.elem);
    ti_block(recvcount, recvtype, &r.count2, &r.elem2);
  });
  if (const auto forced =
          forced_variant(kAllgatherVariants, coll_selection().allgather, "allgather")) {
    return forced(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm);
  }
  if (is_power_of_two(comm->size())) {
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
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  rc = check_side_args(sendbuf, sendcount, sendtype);
  if (rc != MPI_SUCCESS) return rc;
  rc = check_vector_args(recvbuf, recvcounts, displs, size, recvtype);
  if (rc != MPI_SUCCESS) return rc;
  tr::ApiScope scope("allgatherv");
  record_coll(scope, comm, tr::TiOp::kAllgatherv, [&](tr::TiRecord& r) {
    const bool in_place = sendbuf == MPI_IN_PLACE;
    ti_block(in_place ? recvcounts[rank] : sendcount, in_place ? recvtype : sendtype, &r.count,
             &r.elem);
    ti_counts(recvcounts, size, recvtype, &r.counts, &r.elem2);
  });
  const auto blocks = displaced_blocks(recvbuf, recvcounts, displs, recvtype);
  copy_own_block(sendbuf, sendcount, sendtype, blocks(rank).ptr, recvcounts[rank], recvtype);
  ring_allgather(blocks, recvtype, kTagAllgatherv, comm);
  return MPI_SUCCESS;
}

int MPI_Reduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype, MPI_Op op,
               int root, MPI_Comm comm) {
  const int rc = check_reduce_args(comm, root, true, count, datatype, op);
  if (rc != MPI_SUCCESS) return rc;
  tr::ApiScope scope("reduce");
  record_reduction(scope, comm, tr::TiOp::kReduce, count, datatype, op, root);
  return reduce_binomial(sendbuf, recvbuf, count, datatype, op, root, comm);
}

int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype, MPI_Op op,
                  MPI_Comm comm) {
  const int rc = check_reduce_args(comm, 0, false, count, datatype, op);
  if (rc != MPI_SUCCESS) return rc;
  tr::ApiScope scope("allreduce");
  record_reduction(scope, comm, tr::TiOp::kAllreduce, count, datatype, op, 0);
  if (const auto forced =
          forced_variant(kAllreduceVariants, coll_selection().allreduce, "allreduce")) {
    return forced(sendbuf, recvbuf, count, datatype, op, comm);
  }
  const std::size_t bytes = static_cast<std::size_t>(count) * datatype->size();
  if (is_power_of_two(comm->size())) {
    // Long commutative vectors: Rabenseifner halves the bytes each rank
    // moves compared to recursive doubling (§5.3-style dispatch).
    if (bytes >= 64 * 1024 && op->commutative() && count >= comm->size()) {
      return allreduce_rabenseifner(sendbuf, recvbuf, count, datatype, op, comm);
    }
    return allreduce_recursive_doubling(sendbuf, recvbuf, count, datatype, op, comm);
  }
  return allreduce_reduce_bcast(sendbuf, recvbuf, count, datatype, op, comm);
}

int MPI_Scan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype, MPI_Op op,
             MPI_Comm comm) {
  int rc = check_reduce_args(comm, 0, false, count, datatype, op);
  if (rc != MPI_SUCCESS) return rc;
  tr::ApiScope scope("scan");
  record_reduction(scope, comm, tr::TiOp::kScan, count, datatype, op, 0);
  const int size = comm->size();
  const int rank = comm_rank_of(comm);
  const std::size_t bytes = static_cast<std::size_t>(count) * datatype->size();

  const bool pf = payload_free_mode();
  const void* contribution = (sendbuf == MPI_IN_PLACE) ? recvbuf : sendbuf;
  auto [acc, prefix] = Accumulator(contribution, count, datatype);
  if (rank > 0) {
    rc = smpi::core::internal_recv(pf ? recvbuf : prefix.data(), static_cast<int>(bytes),
                                   MPI_BYTE, rank - 1, kTagScan, comm, MPI_STATUS_IGNORE, true);
    if (rc != MPI_SUCCESS) return rc;
    // prefix covers ranks [0, rank): result = prefix OP mine.
    if (!pf) op->apply(prefix.data(), acc.data(), count, datatype);
  }
  if (rank < size - 1) {
    rc = smpi::core::internal_send(pf ? recvbuf : acc.data(), static_cast<int>(bytes), MPI_BYTE,
                                   rank + 1, kTagScan, comm, true);
    if (rc != MPI_SUCCESS) return rc;
  }
  if (!pf) datatype->unpack(acc.data(), count, recvbuf);
  return MPI_SUCCESS;
}

int MPI_Reduce_scatter(const void* sendbuf, void* recvbuf, const int recvcounts[],
                       MPI_Datatype datatype, MPI_Op op, MPI_Comm comm) {
  int rc = check_reduce_args(comm, 0, false, 0, datatype, op);
  if (rc != MPI_SUCCESS) return rc;
  if (recvcounts == nullptr) return MPI_ERR_ARG;
  const int size = comm->size();
  for (int r = 0; r < size; ++r) {
    if (!valid_count(recvcounts[r])) return MPI_ERR_COUNT;
  }
  tr::ApiScope scope("reducescatter");
  record_coll(scope, comm, tr::TiOp::kReduceScatter, [&](tr::TiRecord& r) {
    ti_counts(recvcounts, size, datatype, &r.counts, &r.elem);
    r.commutative = op->commutative();
  });
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
  const int rank = comm_rank_of(comm);
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
  rc = check_buffer_args(sendbuf, sendcount, sendtype);
  if (rc != MPI_SUCCESS) return rc;
  tr::ApiScope scope("alltoall");
  record_coll(scope, comm, tr::TiOp::kAlltoall, [&](tr::TiRecord& r) {
    ti_block(sendcount, sendtype, &r.count, &r.elem);
    ti_block(recvcount, recvtype, &r.count2, &r.elem2);
  });
  if (const auto forced =
          forced_variant(kAlltoallVariants, coll_selection().alltoall, "alltoall")) {
    return forced(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, comm);
  }
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
  const int size = comm->size();
  rc = check_vector_args(recvbuf, recvcounts, rdispls, size, recvtype);
  if (rc != MPI_SUCCESS) return rc;
  if (sendbuf == MPI_IN_PLACE) return MPI_ERR_ARG;
  rc = check_vector_args(sendbuf, sendcounts, sdispls, size, sendtype);
  if (rc != MPI_SUCCESS) return rc;
  tr::ApiScope scope("alltoallv");
  record_coll(scope, comm, tr::TiOp::kAlltoallv, [&](tr::TiRecord& r) {
    ti_counts(sendcounts, size, sendtype, &r.counts, &r.elem);
    ti_counts(recvcounts, size, recvtype, &r.counts2, &r.elem2);
  });
  basic_alltoall(displaced_blocks(sendbuf, sendcounts, sdispls, sendtype), sendtype,
                 displaced_blocks(recvbuf, recvcounts, rdispls, recvtype), recvtype,
                 kTagAlltoallv, comm);
  return MPI_SUCCESS;
}
