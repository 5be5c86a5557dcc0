// Explicit collective algorithm variants.
//
// The MPI_* entry points dispatch between variants by message size and
// process count the way MPICH2/OpenMPI do (§5.3); the benches that reproduce
// the paper's figures call a specific variant directly, mirroring the
// paper's "manual implementation of the binomial/pairwise algorithm".
#pragma once

#include <string>
#include <vector>

#include "smpi/mpi.h"

namespace smpi::coll {

// One-to-many / many-to-one (binomial trees — Figure 6).
int bcast_binomial(void* buffer, int count, MPI_Datatype datatype, int root, MPI_Comm comm);
// Long-message broadcast: scatter the payload then ring-allgather it, as
// MPICH2 does above ~512 KiB. One of the "multiple variants" §5.3 plans.
int bcast_scatter_ring_allgather(void* buffer, int count, MPI_Datatype datatype, int root,
                                 MPI_Comm comm);
int scatter_binomial(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                     int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm);
int gather_binomial(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                    int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm);
// Linear variants. MPI_Scatterv and MPI_Gatherv run the same loops over
// their count/displacement layouts, as in MPICH2.
int scatter_linear(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm);
int gather_linear(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm);

// Many-to-many.
int alltoall_pairwise(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                      int recvcount, MPI_Datatype recvtype, MPI_Comm comm);  // Figure 10
int alltoall_basic(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm);
// Bruck's algorithm: ceil(log2 P) rounds of aggregated blocks — what MPICH2
// uses for short messages (latency-bound regime).
int alltoall_bruck(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm);

// All-gather.
int allgather_recursive_doubling(const void* sendbuf, int sendcount, MPI_Datatype sendtype,
                                 void* recvbuf, int recvcount, MPI_Datatype recvtype,
                                 MPI_Comm comm);  // power-of-two sizes only
int allgather_ring(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                   int recvcount, MPI_Datatype recvtype, MPI_Comm comm);

// Reductions.
int reduce_binomial(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype,
                    MPI_Op op, int root, MPI_Comm comm);
int allreduce_recursive_doubling(const void* sendbuf, void* recvbuf, int count,
                                 MPI_Datatype datatype, MPI_Op op, MPI_Comm comm);  // pow2 only
// Rabenseifner's algorithm (reduce_scatter + allgather): halves the data
// moved per rank for long vectors. pow2 sizes, commutative ops, count >= P.
int allreduce_rabenseifner(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype,
                           MPI_Op op, MPI_Comm comm);
// Binomial reduce to rank 0, then binomial bcast: any size, any op.
int allreduce_reduce_bcast(const void* sendbuf, void* recvbuf, int count, MPI_Datatype datatype,
                           MPI_Op op, MPI_Comm comm);
int reduce_scatter_pairwise(const void* sendbuf, void* recvbuf, const int recvcounts[],
                            MPI_Datatype datatype, MPI_Op op, MPI_Comm comm);  // commutative

// Barrier (dissemination).
int barrier_dissemination(MPI_Comm comm);

// The names a CollSelection field accepts besides "auto": the variant table
// its MPI entry point dispatches through. `collective` is "bcast",
// "alltoall", "allreduce" or "allgather"; any other name has no variants.
std::vector<std::string> variant_names(const std::string& collective);

}  // namespace smpi::coll
