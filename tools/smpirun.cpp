// smpirun — command-line driver, mirroring the launcher real SMPI ships:
// pick a platform (XML file or generated cluster), a number of processes and
// a built-in application, run the simulation, print the simulated time.
//
//   smpirun --np 16 --cluster 16 --app pingpong
//   smpirun --np 21 --platform my_cluster.xml --app dt --class A --graph WH
//   smpirun --np 8 --cluster 8 --app ep --log2-pairs 20 --sampling 0.25
//   smpirun --np 16 --cluster 16 --app alltoall --bytes 1MiB --backend packet
//
// Trace capture and offline replay (the TI trace subsystem):
//   smpirun --np 16 --cluster 16 --app ep --trace-ti ti_dir   # capture once
//   smpirun --replay ti_dir --cluster 16                      # re-simulate
//   smpirun --replay ti_dir --machine gdx                     # ... on any platform
//   smpirun --np 16 --cluster 16 --app dt --trace-paje dt.trace  # timeline
//
// Wait-state / critical-path analysis and simulator self-profiling:
//   smpirun --np 16 --cluster 16 --app alltoall --analyze
//   smpirun --replay ti_dir --analyze --trace-paje waits.trace  # wait-state colors
//   smpirun --replay ti_dir --profile                           # + BENCH_profile.json
//
// The trace directory is validated up front (missing/truncated rank files
// are reported with rank, path, and line). For sweeping many what-if
// scenarios over one trace, see tools/smpi_campaign.
//
// Exit code: 0 on success, 1 on usage errors, 2 when the application aborts
// (including resource-failure aborts), 3 on a simulated deadlock (the wait-for
// diagnostic is printed to stderr), 4 when --max-sim-time or --wall-timeout
// fires.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/time.h>
#include <unistd.h>

#include <chrono>

#include "apps/dt.hpp"
#include "apps/ep.hpp"
#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "obs/span.hpp"
#include "platform/builders.hpp"
#include "platform/platform_xml.hpp"
#include "smpi/coll.h"
#include "smpi/mpi.h"
#include "smpi/smpi.hpp"
#include "trace/paje.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace {

struct Options {
  int np = 2;
  std::string platform_file;
  int cluster_nodes = 0;      // --cluster N: generated flat GbE cluster
  std::string named_platform;  // --machine griffon|gdx
  std::string app = "pingpong";
  std::string backend = "flow";  // flow | packet
  // app-specific
  std::string dt_class = "S";
  std::string dt_graph = "WH";
  bool dt_fold = false;
  int ep_log2_pairs = 20;
  double ep_sampling = 1.0;
  std::uint64_t bytes = 1 << 20;
  bool verbose = false;
  std::string trace_ti_dir;   // --trace-ti: capture a TI trace while running
  std::string replay_dir;     // --replay: re-simulate a captured TI trace
  std::string trace_paje;     // --trace-paje: time-stamped Paje timeline
  std::string faults;         // --faults: inline JSON or spec file path
  std::string noise;          // --noise: inline JSON or spec file path
  long long noise_seed = -1;  // --noise-seed: overrides the spec's seed (-1 = keep)
  double max_sim_time = 0;    // --max-sim-time: simulated-seconds guard (0 = off)
  double wall_timeout = 0;    // --wall-timeout: wall-clock guard (0 = off)
  bool analyze = false;       // --analyze: wait-state + critical-path report
  bool resources = false;     // --resources: utilization timelines + bottleneck report
  std::string trace_perfetto; // --trace-perfetto: Chrome/Perfetto trace JSON
  bool profile = false;       // --profile: simulator self-profiling report
  std::string profile_json_path = "BENCH_profile.json";  // --profile-json
};

[[noreturn]] void usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "smpirun: %s\n\n", error);
  std::fprintf(stderr,
               "usage: smpirun [options]\n"
               "  --np N                number of MPI processes (default 2)\n"
               "  --platform FILE       platform XML file\n"
               "  --cluster N           generate a flat N-node GbE cluster\n"
               "  --machine NAME        built-in platform: griffon | gdx\n"
               "  --backend MODE        flow (default) | packet (ground truth)\n"
               "  --app NAME            pingpong | ring | alltoall | bcast | dt | ep\n"
               "  --bytes SIZE          message size for pingpong/ring/alltoall/bcast\n"
               "  --class C             DT class: S W A B C\n"
               "  --graph G             DT graph: WH BH SH\n"
               "  --fold                DT: use SMPI_SHARED_MALLOC folding\n"
               "  --log2-pairs M        EP: total pairs = 2^M\n"
               "  --sampling R          EP: SMPI_SAMPLE ratio in (0,1]\n"
               "  --trace-ti DIR        capture a time-independent trace into DIR\n"
               "  --replay DIR          replay a captured trace (ignores --np/--app)\n"
               "  --trace-paje FILE     write a Paje timeline of the (re)simulation\n"
               "  --faults SPEC         failure model: inline JSON ('{...}') or a spec file\n"
               "  --noise SPEC          noise model: inline JSON ('{...}') or a spec file\n"
               "  --noise-seed N        override the noise spec's base seed\n"
               "  --max-sim-time S      abort once simulated time would pass S seconds (exit 4)\n"
               "  --wall-timeout S      abort after S wall-clock seconds (exit 4)\n"
               "  --analyze             wait-state + critical-path analysis of the run\n"
               "  --resources           resource-utilization timelines, saturation ledger\n"
               "                        and top-bottleneck report (links + hosts)\n"
               "  --trace-perfetto FILE write a Chrome/Perfetto trace-event JSON (resource\n"
               "                        counter tracks + per-rank spans); open in\n"
               "                        ui.perfetto.dev or chrome://tracing\n"
               "  --profile             profile the simulator itself (solver, calendar,\n"
               "                        context switches, pools) and write a JSON report\n"
               "  --profile-json FILE   self-profile JSON path (default BENCH_profile.json)\n"
               "  --verbose             print per-app details\n");
  std::exit(1);
}

Options parse_options(int argc, char** argv) {
  Options options;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing value for option");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--np") {
        options.np = std::stoi(need_value(i));
      } else if (arg == "--platform") {
        options.platform_file = need_value(i);
      } else if (arg == "--cluster") {
        options.cluster_nodes = std::stoi(need_value(i));
      } else if (arg == "--machine") {
        options.named_platform = need_value(i);
      } else if (arg == "--backend") {
        options.backend = need_value(i);
      } else if (arg == "--app") {
        options.app = need_value(i);
      } else if (arg == "--bytes") {
        options.bytes = smpi::util::parse_bytes(need_value(i));
      } else if (arg == "--class") {
        options.dt_class = need_value(i);
      } else if (arg == "--graph") {
        options.dt_graph = need_value(i);
      } else if (arg == "--fold") {
        options.dt_fold = true;
      } else if (arg == "--log2-pairs") {
        options.ep_log2_pairs = std::stoi(need_value(i));
      } else if (arg == "--sampling") {
        options.ep_sampling = std::stod(need_value(i));
      } else if (arg == "--trace-ti") {
        options.trace_ti_dir = need_value(i);
      } else if (arg == "--replay") {
        options.replay_dir = need_value(i);
      } else if (arg == "--trace-paje") {
        options.trace_paje = need_value(i);
      } else if (arg == "--faults") {
        options.faults = need_value(i);
      } else if (arg == "--noise") {
        options.noise = need_value(i);
      } else if (arg == "--noise-seed") {
        options.noise_seed = std::stoll(need_value(i));
        if (options.noise_seed < 0) usage("--noise-seed must be >= 0");
      } else if (arg == "--max-sim-time") {
        options.max_sim_time = std::stod(need_value(i));
      } else if (arg == "--wall-timeout") {
        options.wall_timeout = std::stod(need_value(i));
      } else if (arg == "--analyze") {
        options.analyze = true;
      } else if (arg == "--resources") {
        options.resources = true;
      } else if (arg == "--trace-perfetto") {
        options.trace_perfetto = need_value(i);
      } else if (arg == "--profile") {
        options.profile = true;
      } else if (arg == "--profile-json") {
        options.profile = true;
        options.profile_json_path = need_value(i);
      } else if (arg == "--verbose") {
        options.verbose = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(nullptr);
      } else {
        usage(("unknown option '" + arg + "'").c_str());
      }
    } catch (const std::exception& e) {
      usage(e.what());
    }
  }
  if (options.np < 1) usage("--np must be >= 1");
  if (options.max_sim_time < 0) usage("--max-sim-time must be >= 0");
  if (options.wall_timeout < 0) usage("--wall-timeout must be >= 0");
  return options;
}

// --wall-timeout: a real (wall-clock) interval timer. The handler must be
// async-signal-safe, so it write()s a fixed message and _exit()s — no unwind,
// no streams. That is the point: this guard fires when the simulation itself
// is stuck (e.g. a poll loop advancing virtual time forever), so there is no
// safe place to resume.
void arm_wall_timeout(double seconds) {
  if (seconds <= 0) return;
  struct sigaction sa = {};
  sa.sa_handler = [](int) {
    const char msg[] = "smpirun: wall-clock timeout exceeded (--wall-timeout)\n";
    ssize_t ignored = write(STDERR_FILENO, msg, sizeof(msg) - 1);
    (void)ignored;
    _exit(4);
  };
  sigemptyset(&sa.sa_mask);
  sigaction(SIGALRM, &sa, nullptr);
  struct itimerval timer = {};
  timer.it_value.tv_sec = static_cast<long>(seconds);
  timer.it_value.tv_usec = static_cast<long>((seconds - static_cast<double>(timer.it_value.tv_sec)) * 1e6);
  if (timer.it_value.tv_sec == 0 && timer.it_value.tv_usec == 0) timer.it_value.tv_usec = 1;
  setitimer(ITIMER_REAL, &timer, nullptr);
}

smpi::platform::Platform make_platform(const Options& options) {
  if (!options.platform_file.empty()) {
    return smpi::platform::load_platform_from_file(options.platform_file);
  }
  if (options.named_platform == "griffon") return smpi::platform::build_griffon();
  if (options.named_platform == "gdx") return smpi::platform::build_gdx();
  if (!options.named_platform.empty()) usage("unknown --machine (use griffon or gdx)");
  smpi::platform::FlatClusterParams params;
  params.nodes = options.cluster_nodes > 0 ? options.cluster_nodes : options.np;
  return smpi::platform::build_flat_cluster(params);
}

smpi::apps::DtClass parse_dt_class(const std::string& text) {
  const std::string classes = "SWABC";
  const auto pos = classes.find(text.empty() ? 'S' : text[0]);
  if (text.size() != 1 || pos == std::string::npos) usage("--class must be one of S W A B C");
  return static_cast<smpi::apps::DtClass>(pos);
}

smpi::apps::DtGraph parse_dt_graph(const std::string& text) {
  if (text == "WH") return smpi::apps::DtGraph::kWhiteHole;
  if (text == "BH") return smpi::apps::DtGraph::kBlackHole;
  if (text == "SH") return smpi::apps::DtGraph::kShuffle;
  usage("--graph must be WH, BH or SH");
}

smpi::core::MpiMain make_app(const Options& options) {
  const auto bytes = static_cast<int>(options.bytes);
  if (options.app == "pingpong") {
    return [bytes](int, char**) {
      MPI_Init(nullptr, nullptr);
      int rank = 0;
      MPI_Comm_rank(MPI_COMM_WORLD, &rank);
      std::vector<char> buf(static_cast<std::size_t>(bytes));
      for (int rep = 0; rep < 10; ++rep) {
        if (rank == 0) {
          MPI_Send(buf.data(), bytes, MPI_CHAR, 1, 0, MPI_COMM_WORLD);
          MPI_Recv(buf.data(), bytes, MPI_CHAR, 1, 1, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
        } else if (rank == 1) {
          MPI_Recv(buf.data(), bytes, MPI_CHAR, 0, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
          MPI_Send(buf.data(), bytes, MPI_CHAR, 0, 1, MPI_COMM_WORLD);
        }
      }
      MPI_Finalize();
    };
  }
  if (options.app == "ring") {
    return [bytes](int, char**) {
      MPI_Init(nullptr, nullptr);
      int rank = 0, size = 0;
      MPI_Comm_rank(MPI_COMM_WORLD, &rank);
      MPI_Comm_size(MPI_COMM_WORLD, &size);
      std::vector<char> buf(static_cast<std::size_t>(bytes));
      MPI_Sendrecv(buf.data(), bytes, MPI_CHAR, (rank + 1) % size, 0, buf.data(), bytes,
                   MPI_CHAR, (rank - 1 + size) % size, 0, MPI_COMM_WORLD, MPI_STATUS_IGNORE);
      MPI_Finalize();
    };
  }
  if (options.app == "alltoall") {
    return [bytes](int, char**) {
      MPI_Init(nullptr, nullptr);
      int size = 0;
      MPI_Comm_size(MPI_COMM_WORLD, &size);
      std::vector<char> send(static_cast<std::size_t>(bytes) * static_cast<std::size_t>(size));
      std::vector<char> recv(send.size());
      MPI_Alltoall(send.data(), bytes, MPI_CHAR, recv.data(), bytes, MPI_CHAR, MPI_COMM_WORLD);
      MPI_Finalize();
    };
  }
  if (options.app == "bcast") {
    return [bytes](int, char**) {
      MPI_Init(nullptr, nullptr);
      std::vector<char> buf(static_cast<std::size_t>(bytes));
      MPI_Bcast(buf.data(), bytes, MPI_CHAR, 0, MPI_COMM_WORLD);
      MPI_Finalize();
    };
  }
  if (options.app == "dt") {
    smpi::apps::DtParams params;
    params.cls = parse_dt_class(options.dt_class);
    params.graph = parse_dt_graph(options.dt_graph);
    params.fold_memory = options.dt_fold;
    return smpi::apps::make_dt_app(params);
  }
  if (options.app == "ep") {
    smpi::apps::EpParams params;
    params.log2_pairs = options.ep_log2_pairs;
    params.sampling_ratio = options.ep_sampling;
    return smpi::apps::make_ep_app(params);
  }
  usage("unknown --app");
}

void write_profile_json(const smpi::obs::Profiler& profiler, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "smpirun: cannot write self-profile to %s\n", path.c_str());
    return;
  }
  const std::string text = smpi::obs::profile_json(profiler).dump(2);
  std::fwrite(text.data(), 1, text.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
}

// The self-profile needs total wall clock for its percentages; finish() stamps
// it, prints the table, and writes the JSON report.
void finish_profile(smpi::obs::Profiler& profiler, double wall_s, const Options& options) {
  smpi::obs::clear_profiler();
  profiler.set_total_wall(wall_s);
  std::printf("%s", smpi::obs::profile_text(profiler).c_str());
  write_profile_json(profiler, options.profile_json_path);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  if (!options.replay_dir.empty() && !options.trace_ti_dir.empty()) {
    usage("--replay and --trace-ti are mutually exclusive");
  }
  arm_wall_timeout(options.wall_timeout);
  try {
    auto platform = make_platform(options);

    smpi::core::SmpiConfig config;
    if (options.backend == "packet") {
      config.backend = smpi::core::SmpiConfig::Backend::kPacket;
      config.personality = smpi::core::Personality::openmpi();
    } else if (options.backend != "flow") {
      usage("--backend must be flow or packet");
    }
    config.engine.max_sim_time = options.max_sim_time;
    if (!options.faults.empty()) {
      config.faults = smpi::sim::FaultSpec::parse_text(options.faults);
    }
    if (!options.noise.empty()) {
      // Static channels perturb the platform here, before the world is
      // built; the jitter channel rides in the config (SmpiWorld installs
      // it, for online runs and replay alike).
      config.noise = smpi::noise::NoiseSpec::parse_text(options.noise);
      if (options.noise_seed >= 0) {
        config.noise.seed = static_cast<std::uint64_t>(options.noise_seed);
      }
      smpi::noise::apply_platform_noise(platform, config.noise);
    } else if (options.noise_seed >= 0) {
      usage("--noise-seed needs --noise");
    }

    // Static: the profiler slot is process-global, and a run that throws
    // must not leave it pointing into an unwound frame.
    static smpi::obs::Profiler profiler;

    if (!options.replay_dir.empty()) {
      const smpi::trace::TiTrace trace = smpi::trace::load_ti_trace(options.replay_dir);
      // With --analyze the Paje timeline is colored by wait-state (exported
      // from the spans after the run); without it, the live per-MPI-call
      // capture is written.
      const bool classified_paje = !options.trace_paje.empty() && options.analyze;
      std::unique_ptr<smpi::trace::PajeWriter> paje;
      smpi::trace::ReplayOptions replay_options;
      if (!options.trace_paje.empty() && !classified_paje) {
        paje = std::make_unique<smpi::trace::PajeWriter>(options.trace_paje);
        replay_options.paje = paje.get();
      }
      // The collector is owned here (not left to replay_options.analyze) so
      // the spans survive the replay for the Paje and Perfetto exports below.
      std::unique_ptr<smpi::obs::SpanCollector> spans;
      if (options.analyze) {
        spans = std::make_unique<smpi::obs::SpanCollector>(trace.nranks);
        replay_options.spans = spans.get();
      }
      // Resource timelines: the replay's world registers the platform with
      // the collector and finalizes it at the makespan.
      std::unique_ptr<smpi::obs::ResourceCollector> res;
      if (options.resources || !options.trace_perfetto.empty()) {
        res = std::make_unique<smpi::obs::ResourceCollector>();
        replay_options.resources = res.get();
      }
      if (options.profile) smpi::obs::install_profiler(&profiler);
      const auto wall_start = std::chrono::steady_clock::now();
      const smpi::trace::ReplayResult result =
          smpi::trace::replay_trace(platform, config, trace, replay_options);
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
      if (options.profile) finish_profile(profiler, wall_s, options);
      if (result.aborted) {
        std::fprintf(stderr, "smpirun: replay aborted with code %d\n", result.abort_code);
        if (!result.failure.empty()) {
          std::fprintf(stderr, "smpirun: resource failure: %s\n", result.failure.c_str());
        }
        return 2;
      }
      std::printf("smpirun: replayed %lld records over %d ranks on %d hosts (%s backend)\n",
                  result.records, result.ranks, platform.host_count(), options.backend.c_str());
      if (options.verbose) {
        std::printf("replay scratch arena: %s\n",
                    smpi::util::format_bytes(result.arena_bytes).c_str());
        smpi::obs::MetricsRegistry registry;
        smpi::obs::collect_p2p(registry, result.p2p);
        smpi::obs::collect_solver(registry, result.solver_solves, result.solver_vars_touched,
                                  result.solver_cons_touched);
        smpi::obs::collect_surf(registry, result.surf_observe);
        std::printf("counters:\n%s", registry.text().c_str());
      }
      std::printf("simulated execution time: %.9f s\n", result.simulated_time);
      if (result.analyzed) {
        std::printf("%s", smpi::obs::analysis_text(result.analysis).c_str());
        if (classified_paje) {
          smpi::obs::export_classified_paje(*spans, options.trace_paje, result.simulated_time);
        }
      }
      if (options.resources && res != nullptr) {
        std::printf("%s", res->report().c_str());
      }
      if (!options.trace_perfetto.empty()) {
        if (!smpi::obs::write_perfetto_trace(options.trace_perfetto, res.get(), spans.get(),
                                             options.profile ? &profiler : nullptr,
                                             result.simulated_time)) {
          std::fprintf(stderr, "smpirun: cannot write Perfetto trace to %s\n",
                       options.trace_perfetto.c_str());
        } else if (options.verbose) {
          std::printf("perfetto trace written to %s\n", options.trace_perfetto.c_str());
        }
      }
      return 0;
    }

    int np = options.np;
    if (options.app == "dt") {
      // DT fixes its own process count from the graph shape.
      np = smpi::apps::dt_process_count(parse_dt_graph(options.dt_graph),
                                        parse_dt_class(options.dt_class));
      if (options.verbose && np != options.np) {
        std::fprintf(stderr, "smpirun: DT %s class %s needs %d processes (overriding --np)\n",
                     options.dt_graph.c_str(), options.dt_class.c_str(), np);
      }
    }

    std::unique_ptr<smpi::trace::TiWriter> ti_writer;
    std::unique_ptr<smpi::trace::PajeWriter> paje;
    const bool classified_paje = !options.trace_paje.empty() && options.analyze;
    if (!options.trace_ti_dir.empty()) {
      ti_writer = std::make_unique<smpi::trace::TiWriter>(options.trace_ti_dir, np, options.app);
    }
    if (!options.trace_paje.empty() && !classified_paje) {
      paje = std::make_unique<smpi::trace::PajeWriter>(options.trace_paje);
    }
    std::unique_ptr<smpi::obs::SpanCollector> spans;
    if (options.analyze) spans = std::make_unique<smpi::obs::SpanCollector>(np);
    std::unique_ptr<smpi::obs::ResourceCollector> res;
    if (options.resources || !options.trace_perfetto.empty()) {
      res = std::make_unique<smpi::obs::ResourceCollector>();
    }
    if (options.profile) smpi::obs::install_profiler(&profiler);

    const auto wall_start = std::chrono::steady_clock::now();
    smpi::core::SmpiWorld world(platform, config,
                                {ti_writer.get(), paje.get(), spans.get(), res.get()});
    world.run(np, make_app(options));
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    if (options.profile) finish_profile(profiler, wall_s, options);
    if (options.verbose && ti_writer != nullptr) {
      std::printf("captured %llu trace records into %s\n",
                  static_cast<unsigned long long>(ti_writer->records_written()),
                  options.trace_ti_dir.c_str());
    }

    if (world.aborted()) {
      std::fprintf(stderr, "smpirun: application aborted with code %d\n", world.abort_code());
      if (!world.failure_diagnostic().empty()) {
        std::fprintf(stderr, "smpirun: resource failure: %s\n",
                     world.failure_diagnostic().c_str());
      }
      return 2;
    }
    std::printf("smpirun: %d processes on %d hosts (%s backend)\n", np, platform.host_count(),
                options.backend.c_str());
    std::printf("simulated execution time: %.9f s\n", world.simulated_time());
    if (spans != nullptr) {
      const smpi::obs::AnalysisResult analysis = smpi::obs::analyze(*spans);
      std::printf("%s", smpi::obs::analysis_text(analysis).c_str());
      if (classified_paje) {
        smpi::obs::export_classified_paje(*spans, options.trace_paje, world.simulated_time());
      }
    }
    if (options.resources && res != nullptr) {
      std::printf("%s", res->report().c_str());
    }
    if (!options.trace_perfetto.empty()) {
      if (!smpi::obs::write_perfetto_trace(options.trace_perfetto, res.get(), spans.get(),
                                           options.profile ? &profiler : nullptr,
                                           world.simulated_time())) {
        std::fprintf(stderr, "smpirun: cannot write Perfetto trace to %s\n",
                     options.trace_perfetto.c_str());
      } else if (options.verbose) {
        std::printf("perfetto trace written to %s\n", options.trace_perfetto.c_str());
      }
    }
    if (options.verbose) {
      const auto memory = world.memory_report();
      std::printf("tracked memory: folded peak %s, unfolded peak %s\n",
                  smpi::util::format_bytes(memory.folded_peak_bytes).c_str(),
                  smpi::util::format_bytes(memory.unfolded_peak_bytes).c_str());
      smpi::obs::MetricsRegistry registry;
      smpi::obs::collect_p2p(registry, world.p2p_counters());
      std::printf("p2p counters:\n%s", registry.text("p2p.").c_str());
      smpi::obs::collect_surf(registry, world.solver_totals().observe);
      std::printf("surf counters:\n%s", registry.text("surf.").c_str());
      if (options.app == "dt") {
        std::printf("dt checksum: %.6e\n", smpi::apps::dt_last_checksum());
      }
      if (options.app == "ep") {
        std::printf("ep gaussian pairs: %lld\n",
                    static_cast<long long>(smpi::apps::ep_last_result().gaussian_pairs()));
      }
    }
    return 0;
  } catch (const smpi::sim::DeadlockError& e) {
    std::fprintf(stderr, "smpirun: simulated deadlock: %s\n", e.what());
    return 3;
  } catch (const smpi::sim::TimeLimitError& e) {
    std::fprintf(stderr, "smpirun: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smpirun: error: %s\n", e.what());
    return 2;
  }
}
