#include "workload/generate.hpp"

#include "trace/writer.hpp"
#include "workload/patterns.hpp"

namespace smpi::workload {

trace::TiTrace generate_workload(const WorkloadSpec& spec) {
  trace::TiTrace trace;
  trace.nranks = spec.ranks;
  trace.app = spec.name;
  trace.ranks.resize(static_cast<std::size_t>(spec.ranks));

  for (auto& records : trace.ranks) {
    trace::TiRecord init;
    init.op = trace::TiOp::kInit;
    records.push_back(init);
  }

  std::vector<long long> next_req(static_cast<std::size_t>(spec.ranks), 0);
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    emit_phase(spec, spec.phases[i], static_cast<int>(i), trace.ranks, next_req);
  }

  for (auto& records : trace.ranks) {
    trace::TiRecord finalize;
    finalize.op = trace::TiOp::kFinalize;
    records.push_back(finalize);
    records.shrink_to_fit();
  }
  return trace;
}

void write_trace(const trace::TiTrace& trace, const std::string& dir) {
  trace::TiWriter writer(dir, trace.nranks, trace.app);
  for (int rank = 0; rank < trace.nranks; ++rank) {
    for (const auto& record : trace.ranks[static_cast<std::size_t>(rank)]) {
      writer.append(rank, record);
    }
  }
  writer.finish();
}

void write_workload(const WorkloadSpec& spec, const std::string& dir) {
  write_trace(generate_workload(spec), dir);
}

}  // namespace smpi::workload
