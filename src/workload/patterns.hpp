// Pattern emitters: one function per declarative communication pattern,
// appending TI records for every rank of a phase.
//
// Emission invariants (what makes a generated phase replayable):
//  * every send has exactly one matching receive — patterns are generated
//    globally, so both endpoints of an edge are emitted from the same
//    decision;
//  * nonblocking operations use per-rank request ids handed out by the
//    shared `next_req` counters (unique for the whole trace, so a campaign
//    can splice phases without id collisions);
//  * record order per rank is the order a real implementation of the
//    pattern would issue the calls (receives posted before sends, waitall
//    last), so a hand-written online app of the same pattern produces an
//    identical record stream — the equivalence tests rely on this;
//  * all randomness (compute imbalance/jitter, sparse edges) flows from
//    counter-seeded per-(phase, rank) streams, never from a shared cursor,
//    so adding a phase or reordering emission cannot shift another phase's
//    draws.
#pragma once

#include <vector>

#include "trace/record.hpp"
#include "workload/spec.hpp"

namespace smpi::workload {

// Appends the records of `phase` (index `phase_index` in the spec) to every
// rank's record list. `next_req[r]` is rank r's next nonblocking-request id.
void emit_phase(const WorkloadSpec& spec, const PhaseSpec& phase, int phase_index,
                std::vector<trace::TiRecords>& ranks,
                std::vector<long long>& next_req);

// Near-square (2D) / near-cubic (3D) factorization used when a spec leaves
// the process grid to the generator: dims are non-decreasing and their
// product is `ranks`. Exposed for tests and the CLI summary.
void factor_grid_2d(int ranks, int* px, int* py);
void factor_grid_3d(int ranks, int* px, int* py, int* pz);

}  // namespace smpi::workload
