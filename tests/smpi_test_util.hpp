// Shared fixture helpers for the MPI-layer tests: build a small flat
// cluster, run an MPI program over N simulated processes, return the
// simulated time.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "platform/builders.hpp"
#include "smpi/mpi.h"
#include "smpi/smpi.hpp"
#include "trace/reader.hpp"

namespace smpi_test {

inline smpi::core::SmpiConfig fast_config() {
  smpi::core::SmpiConfig config;
  config.network.bandwidth_efficiency = 1.0;
  config.network.tcp_window_bytes = 0;
  return config;
}

inline smpi::platform::Platform test_cluster(int nodes) {
  smpi::platform::FlatClusterParams params;
  params.nodes = nodes < 2 ? 2 : nodes;
  params.link_bandwidth_bps = 1e8;
  params.link_latency_s = 1e-4;
  params.speed_flops = 1e9;
  return smpi::platform::build_flat_cluster(params);
}

// Runs `body` as an MPI application on `nprocs` ranks over `platform`.
inline double run_mpi_on(const smpi::platform::Platform& platform, int nprocs,
                         const std::function<void()>& body,
                         const smpi::core::SmpiConfig& config = fast_config(),
                         smpi::core::Observers observers = {}) {
  smpi::core::SmpiWorld world(platform, config, observers);
  world.run(nprocs, [&body](int, char**) {
    MPI_Init(nullptr, nullptr);
    body();
    MPI_Finalize();
  });
  return world.simulated_time();
}

// Runs `body` as an MPI application on `nprocs` ranks; returns simulated time.
inline double run_mpi(int nprocs, const std::function<void()>& body,
                      smpi::core::SmpiConfig config = fast_config(),
                      smpi::core::Observers observers = {}) {
  auto platform = test_cluster(nprocs);
  return run_mpi_on(platform, nprocs, body, config, observers);
}

// Two cabinets joined by one narrow uplink pair: concurrent cross-cabinet
// flows contend hard, which is what the contention-sensitivity tests need.
inline smpi::platform::Platform two_cabinet_cluster(int nodes_per_cabinet) {
  smpi::platform::HierarchicalClusterParams params;
  params.cabinet_sizes = {nodes_per_cabinet, nodes_per_cabinet};
  params.node_bandwidth_bps = 1e8;
  params.node_latency_s = 1e-4;
  params.uplink_bandwidth_bps = 1e8;  // as narrow as a node link
  params.uplink_latency_s = 1e-4;
  params.speed_flops = 1e9;
  return smpi::platform::build_hierarchical_cluster(params);
}

inline int my_rank() {
  int rank = -1;
  MPI_Comm_rank(MPI_COMM_WORLD, &rank);
  return rank;
}

inline int world_size() {
  int size = -1;
  MPI_Comm_size(MPI_COMM_WORLD, &size);
  return size;
}

// A trace of these records, rank by rank, packed as the loader packs them.
inline smpi::trace::TiTrace pack_trace(
    const std::vector<std::vector<smpi::trace::TiRecord>>& ranks,
    const std::string& app = "test") {
  smpi::trace::TiTrace trace;
  trace.nranks = static_cast<int>(ranks.size());
  trace.app = app;
  for (const auto& records : ranks) {
    smpi::trace::TiRecords& packed = trace.ranks.emplace_back();
    for (const smpi::trace::TiRecord& r : records) packed.push_back(r);
  }
  return trace;
}

// One rank's records, decoded.
inline std::vector<smpi::trace::TiRecord> unpack(const smpi::trace::TiRecords& records) {
  return {records.begin(), records.end()};
}

}  // namespace smpi_test
