// §7.2 scalability: how far does single-node on-line simulation stretch?
// Simulates collectives over growing process counts (up to 1024 ranks — well
// past the paper's 448-process DT-SH class C) and reports the host wall-clock
// and memory-light footprint of the simulation itself.
//
// The platform_build series times build_flat_cluster alone at 1024 and 16384
// nodes. Cluster routes are computed from host attachments, so the build is
// linear in nodes; storing a route per host pair would make it quadratic
// (100x or more at these sizes), which bench_trend.py's 2x gate catches.
#include <algorithm>
#include <chrono>

#include "bench_common.hpp"
#include "bench_json.hpp"

int main() {
  using namespace smpi;
  bench::banner("Scalability", "single-node simulation up to 1024 ranks (§7.2)");

  bench::JsonWriter writer("BENCH_ranks.json");
  util::Table table({"ranks", "collective", "simulated(s)", "wall-clock(s)", "sim/simulated"});
  for (const int ranks : {64, 128, 256, 448, 1024}) {
    platform::FlatClusterParams params;
    params.nodes = ranks;
    auto platform = platform::build_flat_cluster(params);
    struct Case {
      const char* name;
      std::function<void()> body;
    };
    const Case cases[] = {
        {"barrier x8",
         [] {
           for (int i = 0; i < 8; ++i) MPI_Barrier(MPI_COMM_WORLD);
         }},
        {"bcast 1MiB",
         [] {
           static std::vector<char> buf;
           buf.assign(1 << 20, 'b');
           MPI_Bcast(buf.data(), 1 << 20, MPI_CHAR, 0, MPI_COMM_WORLD);
         }},
        {"allreduce 4KiB",
         [] {
           std::vector<double> in(512, 1.0), out(512);
           MPI_Allreduce(in.data(), out.data(), 512, MPI_DOUBLE, MPI_SUM, MPI_COMM_WORLD);
         }},
    };
    for (const auto& test_case : cases) {
      const auto run = bench::run_collective(platform, {}, ranks, test_case.body);
      char ratio[32];
      std::snprintf(ratio, sizeof ratio, "%.2f",
                    run.wall_clock_seconds / run.completion_seconds);
      table.add_row({std::to_string(ranks), test_case.name,
                     bench::seconds_cell(run.completion_seconds),
                     bench::seconds_cell(run.wall_clock_seconds), ratio});
      writer.add(test_case.name, ranks, run.wall_clock_seconds * 1e9);
    }
  }
  table.print();

  for (const int nodes : {1024, 16384}) {
    platform::FlatClusterParams params;
    params.nodes = nodes;
    double best_s = 1e300;  // best of 5: the series is a tripwire, not a referee
    for (int rep = 0; rep < 5; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const auto platform = platform::build_flat_cluster(params);
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      best_s = std::min(best_s, elapsed);
    }
    std::printf("platform_build n=%d: %.3f ms\n", nodes, best_s * 1e3);
    writer.add("platform_build", nodes, best_s * 1e9);
  }
  writer.save();
  std::printf("\nevery row ran inside this single process; 448 ranks is the paper's\n"
              "largest configuration (DT-SH class C), 1024 goes beyond it.\n");
  return 0;
}
