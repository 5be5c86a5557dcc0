// TI trace loader: manifest + one packed record stream per rank, parsed
// upfront so the replay actors run a plain in-memory cursor (no IO inside
// the simulation). Each line is parsed into one scratch TiRecord and
// appended packed (trace::TiRecords), so a loaded trace costs about 10
// bytes per record, not an array of TiRecord.
#pragma once

#include <string>
#include <vector>

#include "trace/record.hpp"

namespace smpi::trace {

struct TiTrace {
  int nranks = 0;
  std::string app;
  std::vector<TiRecords> ranks;  // ranks[r] = rank r's records, in order

  long long total_records() const {
    long long total = 0;
    for (const auto& r : ranks) total += static_cast<long long>(r.size());
    return total;
  }
};

// Throws util::ContractError on a missing/malformed trace. By default the
// trace is also validated structurally — every rank file present, starting
// with init and ending with finalize — so an interrupted capture is rejected
// up front (with rank, path, line) instead of deadlocking a replay.
// `validate = false` loads whatever is there (ti_inspect uses it to diagnose
// exactly such broken traces).
TiTrace load_ti_trace(const std::string& dir, bool validate = true);

}  // namespace smpi::trace
