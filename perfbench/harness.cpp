// perfbench child: runs ONE workload once, timing each call into the
// simulator's public API from the outside, and prints one JSON object.
//
//   perfbench_child probe
//       fixed 32 MiB pointer chase; prints {"probe_ms": ...}
//   perfbench_child prepare <input_dir>
//       writes the generated TI trace of <input_dir>/input.json (stencil)
//   perfbench_child run <input_dir> <launch_ns> [--traced <spans.json>]
//       runs the workload; <launch_ns> is the parent's CLOCK_MONOTONIC
//       reading taken just before it spawned this process, so the first
//       span ("proc.exec") covers exec + dynamic loading + static init.
//       --traced installs obs::Profiler (inclusive, overlapping buckets)
//       and writes every span to <spans.json> when the run ends.
//   perfbench_child observe <input_dir>
//       campaign only: replays one unit in-process with analysis and
//       resource observation on, then off, twice each (obs.observe_cost_s)
//
// Spans are (name, start, end, parent) in seconds since launch. The
// top-level spans tile the run back to back; the parent adds "proc.exit"
// (this process's final print -> reaped) and reports what the spans do not
// cover as proc.unaccounted_s.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "obs/profile.hpp"
#include "obs/resource.hpp"
#include "platform/builders.hpp"
#include "smpi/mpi.h"
#include "smpi/smpi.hpp"
#include "surf/cpu.hpp"
#include "surf/network.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "util/json.hpp"
#include "workload/generate.hpp"
#include "workload/spec.hpp"

namespace {

using smpi::util::JsonValue;

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

JsonValue exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return JsonValue::number_text(buf);
}

JsonValue exact(std::uint64_t v) { return JsonValue::number_text(std::to_string(v)); }

// In-memory span recorder: every span is kept and written once, at the end.
class Spans {
 public:
  explicit Spans(std::int64_t launch_ns) : launch_ns_(launch_ns) {}

  class Scope {
   public:
    Scope(Spans& spans, const char* name) : spans_(spans), index_(spans.open(name)) {}
    ~Scope() { spans_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t index_;
  };

  // The process-start span, from the parent's spawn to main().
  void exec_span() { spans_.push_back({"proc.exec", 0, since_launch(), -1}); }

  double since_launch() const { return static_cast<double>(monotonic_ns() - launch_ns_) * 1e-9; }

  double duration(const std::string& name) const {
    double total = 0;
    for (const auto& s : spans_) total += s.name == name ? s.end - s.start : 0;
    return total;
  }
  double start_of(const std::string& name) const {
    for (const auto& s : spans_) {
      if (s.name == name) return s.start;
    }
    return -1;
  }

  JsonValue json() const {
    JsonValue out = JsonValue::array();
    for (const auto& s : spans_) {
      JsonValue item = JsonValue::object();
      item.set("name", JsonValue::string(s.name));
      item.set("start", exact(s.start));
      item.set("end", exact(s.end));
      item.set("parent", s.parent < 0 ? JsonValue::null()
                                      : JsonValue::string(spans_[static_cast<std::size_t>(s.parent)].name));
      out.append(std::move(item));
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
  };

  std::size_t open(const char* name) {
    spans_.push_back({name, since_launch(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end = since_launch();
    open_.pop_back();
  }

  std::int64_t launch_ns_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Accumulated solver/p2p work; every field is an exact, deterministic count.
struct Counters {
  std::uint64_t solves = 0, vars_touched = 0, cons_touched = 0;
  smpi::core::P2pCounters p2p;

  void add_p2p(const smpi::core::P2pCounters& c) {
    p2p.pool_hits += c.pool_hits;
    p2p.pool_misses += c.pool_misses;
    p2p.eager_snapshots += c.eager_snapshots;
    p2p.eager_copy_elided += c.eager_copy_elided;
    p2p.eager_flush_snapshots += c.eager_flush_snapshots;
    p2p.bytes_not_copied += c.bytes_not_copied;
  }
  void set_into(JsonValue& out) const {
    out.set("surf.solves", exact(solves));
    out.set("surf.vars_touched", exact(vars_touched));
    out.set("surf.cons_touched", exact(cons_touched));
    out.set("smpi.pool_hits", exact(p2p.pool_hits));
    out.set("smpi.pool_misses", exact(p2p.pool_misses));
    out.set("smpi.eager_snapshots", exact(p2p.eager_snapshots));
    out.set("smpi.eager_copy_elided", exact(p2p.eager_copy_elided));
    out.set("smpi.bytes_not_copied", exact(p2p.bytes_not_copied));
  }
};

struct RunReport {
  JsonValue counters = JsonValue::object();  // exact work, checked by the parent
  JsonValue layers = JsonValue::object();    // per-layer values measured here
  long long attempted = 1;
  long long failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& why) {
    ++failed;
    failures.push_back(why);
  }
};

// The obs::Profiler buckets. They are inclusive and overlap (a context
// switch contains the solves its rank triggers), so they are not self time.
void set_profile(const smpi::obs::Profiler& profiler, JsonValue& out) {
  using smpi::obs::ProfKey;
  const std::pair<const char*, ProfKey> buckets[] = {
      {"sim.context_switch", ProfKey::kContextSwitch},
      {"sim.calendar_advance", ProfKey::kCalendarAdvance},
      {"sim.pool_op", ProfKey::kPoolOp},
      {"surf.solve", ProfKey::kSolverSolve},
  };
  for (const auto& [name, key] : buckets) {
    out.set(std::string(name) + "_calls", exact(profiler.stats(key).calls));
    out.set(std::string(name) + "_s", exact(profiler.stats(key).seconds));
  }
}

smpi::util::JsonValue read_input(const std::string& dir) {
  return smpi::util::parse_json_file(dir + "/input.json");
}

smpi::platform::Platform flat_cluster(int nodes) {
  smpi::platform::FlatClusterParams params;
  params.nodes = nodes;
  return smpi::platform::build_flat_cluster(params);
}

// --- bcast_online_1024: the smpirun --app bcast body ----------------------
void run_bcast(const JsonValue& input, Spans& spans, RunReport& report) {
  const int ranks = static_cast<int>(input.at("ranks", "input").as_int());
  const int bytes = static_cast<int>(input.at("bytes", "input").as_int());
  const int root = static_cast<int>(input.at("root", "input").as_int());
  std::unique_ptr<smpi::platform::Platform> platform;
  {
    Spans::Scope s(spans, "platform.build");
    platform = std::make_unique<smpi::platform::Platform>(flat_cluster(ranks));
  }
  std::unique_ptr<smpi::core::SmpiWorld> world;
  {
    Spans::Scope s(spans, "smpi.world_init");
    world = std::make_unique<smpi::core::SmpiWorld>(*platform, smpi::core::SmpiConfig{});
  }
  {
    Spans::Scope s(spans, "smpi.world_run");
    world->run(ranks, [bytes, root](int, char**) {
      MPI_Init(nullptr, nullptr);
      std::vector<char> buf(static_cast<std::size_t>(bytes));
      MPI_Bcast(buf.data(), bytes, MPI_CHAR, root, MPI_COMM_WORLD);
      MPI_Finalize();
    });
  }
  Counters counters;
  if (const auto* net = dynamic_cast<const smpi::surf::FlowNetworkModel*>(&world->network())) {
    counters.solves += net->solver().solve_count();
    counters.vars_touched += net->solver().vars_touched();
    counters.cons_touched += net->solver().cons_touched();
  }
  if (const auto* cpu = dynamic_cast<const smpi::surf::CpuModel*>(&world->cpu())) {
    counters.solves += cpu->solver().solve_count();
    counters.vars_touched += cpu->solver().vars_touched();
    counters.cons_touched += cpu->solver().cons_touched();
  }
  counters.add_p2p(world->p2p_counters());
  counters.set_into(report.counters);
  report.counters.set("sim_time", exact(world->simulated_time()));
  report.counters.set("sim.timers_created", exact(world->engine().timers_created()));
  report.counters.set("smpi.folded_peak_bytes", exact(world->memory_report().folded_peak_bytes));
  if (world->aborted()) report.fail("bcast aborted with code " + std::to_string(world->abort_code()));
  {
    Spans::Scope s(spans, "smpi.world_teardown");
    world.reset();
    platform.reset();
  }
}

// --- stencil_replay_1024: load a generated trace from disk and replay it --
void run_replay(const std::string& dir, const JsonValue& input, Spans& spans, RunReport& report) {
  auto trace = std::make_unique<smpi::trace::TiTrace>();
  {
    Spans::Scope s(spans, "trace.load");
    *trace = smpi::trace::load_ti_trace(dir + "/trace");
  }
  std::unique_ptr<smpi::platform::Platform> platform;
  {
    Spans::Scope s(spans, "platform.build");
    platform = std::make_unique<smpi::platform::Platform>(
        flat_cluster(static_cast<int>(input.at("nodes", "input").as_int())));
  }
  smpi::trace::ReplayResult result;
  {
    Spans::Scope s(spans, "trace.replay");
    result = smpi::trace::replay_trace(*platform, smpi::core::SmpiConfig{}, *trace);
  }
  Counters counters;
  counters.solves = result.solver_solves;
  counters.vars_touched = result.solver_vars_touched;
  counters.cons_touched = result.solver_cons_touched;
  counters.add_p2p(result.p2p);
  counters.set_into(report.counters);
  report.counters.set("sim_time", exact(result.simulated_time));
  report.counters.set("trace.records", exact(static_cast<std::uint64_t>(result.records)));
  if (result.aborted) report.fail("replay aborted with code " + std::to_string(result.abort_code));
  if (result.records != trace->total_records()) {
    report.fail("replayed " + std::to_string(result.records) + " of " +
                std::to_string(trace->total_records()) + " records");
  }
  {
    Spans::Scope s(spans, "trace.free");
    trace.reset();
    platform.reset();
  }
}

// --- contention_campaign: a 2-worker Monte-Carlo sweep --------------------
void run_campaign(const std::string& dir, const JsonValue& input, Spans& spans, RunReport& report) {
  smpi::campaign::CampaignSpec spec;
  std::vector<smpi::campaign::Scenario> scenarios;
  {
    Spans::Scope s(spans, "campaign.spec");
    spec = smpi::campaign::CampaignSpec::parse_file(dir + "/campaign.json");
    scenarios = smpi::campaign::enumerate_scenarios(spec);
  }
  auto trace = std::make_unique<smpi::trace::TiTrace>();
  {
    Spans::Scope s(spans, "workload.generate");
    *trace = smpi::workload::generate_workload(spec.workload);
  }
  smpi::campaign::RunOptions options;
  options.workers = static_cast<int>(input.at("workers", "input").as_int());
  smpi::campaign::CampaignOutcome outcome;
  {
    Spans::Scope s(spans, "campaign.run");
    outcome = smpi::campaign::run_campaign(spec, scenarios, *trace, options);
  }
  {
    Spans::Scope s(spans, "campaign.report");
    std::ofstream(dir + "/report.json") << smpi::campaign::report_json(spec, scenarios, outcome).dump(2);
    std::ofstream(dir + "/report.csv") << smpi::campaign::report_csv(spec, scenarios, outcome);
    std::ofstream(dir + "/summary.txt") << smpi::campaign::report_summary(spec, scenarios, outcome);
  }

  Counters counters;
  JsonValue unit_times = JsonValue::array();
  std::vector<double> unit_walls;
  std::uint64_t records = 0, retries = 0, timeouts = 0;
  report.attempted = static_cast<long long>(outcome.results.size());
  for (const auto& r : outcome.results) {
    const std::string unit = "unit " + std::to_string(r.id) + "/" + std::to_string(r.rep);
    counters.solves += r.solver_solves;
    counters.vars_touched += r.solver_vars_touched;
    counters.cons_touched += r.solver_cons_touched;
    counters.add_p2p(r.p2p);
    unit_times.append(exact(r.simulated_time));
    unit_walls.push_back(r.wall_s);
    records += static_cast<std::uint64_t>(r.records);
    retries += static_cast<std::uint64_t>(r.retries);
    timeouts += r.timed_out ? 1 : 0;
    if (!r.ok) {
      report.fail(unit + " failed: " + r.error);
    } else if (r.retries > 0 || r.timed_out) {
      report.fail(unit + " was retried or timed out");
    } else if (r.records != trace->total_records()) {
      report.fail(unit + " replayed " + std::to_string(r.records) + " of " +
                  std::to_string(trace->total_records()) + " records");
    }
  }
  counters.set_into(report.counters);
  report.counters.set("unit_sim_times", std::move(unit_times));
  report.counters.set("trace.records", exact(records));
  report.counters.set("units", exact(static_cast<std::uint64_t>(outcome.results.size())));

  std::sort(unit_walls.begin(), unit_walls.end());
  const double unit_total = std::accumulate(unit_walls.begin(), unit_walls.end(), 0.0);
  const std::size_t n = unit_walls.size();
  report.layers.set("campaign.unit_wall_p50_s",
                    exact(n == 0 ? 0 : (unit_walls[(n - 1) / 2] + unit_walls[n / 2]) / 2));
  report.layers.set("campaign.unit_wall_max_s", exact(n == 0 ? 0 : unit_walls.back()));
  report.layers.set("campaign.harness_s", exact(outcome.wall_s - unit_total / std::max(1, outcome.workers)));
  report.layers.set("campaign.retries", exact(retries));
  report.layers.set("campaign.timeouts", exact(timeouts));
  report.layers.set("campaign.workers", exact(static_cast<std::uint64_t>(outcome.workers)));
  {
    Spans::Scope s(spans, "campaign.free");
    trace.reset();
  }
}

// obs.observe_cost_s: one campaign unit replayed in-process with analysis
// and resource observation on vs. off (alternating, two of each), then once
// more unobserved under obs::Profiler: the campaign's workers are forked,
// so this in-process unit is where its profiler buckets come from.
int observe(const std::string& dir) {
  const auto spec = smpi::campaign::CampaignSpec::parse_file(dir + "/campaign.json");
  const auto scenarios = smpi::campaign::enumerate_scenarios(spec);
  const auto trace = smpi::workload::generate_workload(spec.workload);
  const auto setup = smpi::campaign::materialize(spec, scenarios.back(), trace.nranks, 0);
  auto replay = [&](bool observed) {
    smpi::obs::ResourceCollector collector;
    smpi::trace::ReplayOptions options;
    options.payload_free = setup.payload_free;
    options.analyze = observed;
    options.resources = observed ? &collector : nullptr;
    const auto start = std::chrono::steady_clock::now();
    const double sim = smpi::trace::replay_trace(setup.platform, setup.config, trace, options).simulated_time;
    return std::make_pair(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(), sim);
  };
  double on = 1e300, off = 1e300, sim_on = 0, sim_off = 0;
  for (int i = 0; i < 4; ++i) {
    const bool observed = i % 2 == 0;
    const auto [wall, sim] = replay(observed);
    (observed ? on : off) = std::min(observed ? on : off, wall);
    (observed ? sim_on : sim_off) = sim;
  }
  smpi::obs::Profiler profiler;
  smpi::obs::install_profiler(&profiler);
  replay(false);
  smpi::obs::clear_profiler();

  JsonValue out = JsonValue::object();
  out.set("obs.observe_on_s", exact(on));
  out.set("obs.observe_off_s", exact(off));
  out.set("obs.observe_cost_s", exact(on - off));
  out.set("sim_time_on", exact(sim_on));
  out.set("sim_time_off", exact(sim_off));
  set_profile(profiler, out);
  std::printf("%s\n", out.dump().c_str());
  return sim_on == sim_off ? 0 : 1;
}

int probe() {
  // Fixed pseudo-random cyclic permutation over 32 MiB of indices: every
  // load misses the caches, so this tracks the machine's memory latency.
  constexpr std::size_t kSlots = (32u << 20) / sizeof(std::uint32_t);
  std::vector<std::uint32_t> next(kSlots);
  std::vector<std::uint32_t> order(kSlots);
  std::iota(order.begin(), order.end(), 0u);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    std::swap(order[i], order[(state >> 33) % (i + 1)]);
  }
  for (std::size_t i = 0; i < kSlots; ++i) next[order[i]] = order[(i + 1) % kSlots];
  std::uint32_t at = order[0];
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 2000000; ++i) at = next[at];
  const double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  std::printf("{\"probe_ms\": %.6f, \"sink\": %u}\n", ms, at);
  return 0;
}

int prepare(const std::string& dir) {
  const JsonValue input = read_input(dir);
  const auto spec = smpi::workload::WorkloadSpec::parse(input.at("workload_spec", "input"));
  const auto trace = smpi::workload::generate_workload(spec);
  smpi::workload::write_trace(trace, dir + "/trace");
  std::printf("{\"records\": %lld}\n", trace.total_records());
  return 0;
}

int run(const std::string& dir, std::int64_t launch_ns, const std::string& spans_path) {
  Spans spans(launch_ns);
  spans.exec_span();
  const bool traced = !spans_path.empty();
  smpi::obs::Profiler profiler;
  RunReport report;
  std::string workload;
  try {
    JsonValue input;
    {
      Spans::Scope s(spans, "input.read");
      input = read_input(dir);
      workload = input.at("workload", "input").as_string();
    }
    if (traced) smpi::obs::install_profiler(&profiler);
    if (workload == "bcast_online_1024") {
      run_bcast(input, spans, report);
    } else if (workload == "stencil_replay_1024") {
      run_replay(dir, input, spans, report);
    } else if (workload == "contention_campaign") {
      run_campaign(dir, input, spans, report);
    } else {
      report.fail("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  smpi::obs::clear_profiler();

  const char* run_span = workload == "bcast_online_1024"     ? "smpi.world_run"
                         : workload == "stencil_replay_1024" ? "trace.replay"
                                                             : "campaign.run";
  JsonValue out = JsonValue::object();
  out.set("workload", JsonValue::string(workload));
  out.set("setup_s", exact(spans.start_of(run_span)));
  out.set("run_s", exact(spans.duration(run_span)));
  out.set("attempted", exact(static_cast<std::uint64_t>(report.attempted)));
  out.set("failed", exact(static_cast<std::uint64_t>(report.failed)));
  JsonValue failures = JsonValue::array();
  for (const auto& f : report.failures) failures.append(JsonValue::string(f));
  out.set("failures", std::move(failures));
  out.set("counters", std::move(report.counters));
  if (traced) set_profile(profiler, report.layers);
  out.set("layers", std::move(report.layers));
  out.set("spans", spans.json());
  if (traced) {
    std::ofstream(spans_path) << out.at("spans", "out").dump(1) << "\n";
  }
  out.set("end_ns", JsonValue::number_text(std::to_string(monotonic_ns())));
  const std::string text = out.dump();
  std::fwrite(text.data(), 1, text.size(), stdout);
  std::fputc('\n', stdout);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "probe") return probe();
    if (mode == "prepare" && argc == 3) return prepare(argv[2]);
    if (mode == "observe" && argc == 3) return observe(argv[2]);
    if (mode == "run" && (argc == 4 || (argc == 6 && std::strcmp(argv[4], "--traced") == 0))) {
      return run(argv[2], std::stoll(argv[3]), argc == 6 ? argv[5] : "");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_child: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr,
               "usage: perfbench_child probe | prepare DIR | observe DIR |"
               " run DIR LAUNCH_NS [--traced SPANS.json]\n");
  return 2;
}
