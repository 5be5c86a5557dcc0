#include "campaign/report.hpp"

#include <algorithm>
#include <cstdio>
#include <type_traits>
#include <variant>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace smpi::campaign {

namespace {

// Bootstrap-CI knobs for the replication fold-down: fixed so two runs of the
// same campaign (or a resume of one) always report identical intervals.
constexpr double kCiLevel = 0.95;
constexpr int kCiResamples = 200;

int reps_of(const CampaignOutcome& outcome) { return std::max(1, outcome.replications); }

const ScenarioResult& baseline_of(const CampaignOutcome& outcome) {
  SMPI_REQUIRE(!outcome.results.empty(), "campaign outcome has no scenarios");
  return outcome.results.front();
}

double speedup_vs_baseline(const ScenarioResult& baseline, const ScenarioResult& r) {
  if (!baseline.ok || !r.ok || r.simulated_time <= 0) return 0;
  return baseline.simulated_time / r.simulated_time;
}

double sum(const std::vector<double>& v) {
  double total = 0;
  for (double x : v) total += x;
  return total;
}

double max_of(const std::vector<double>& v) {
  double best = 0;
  for (double x : v) best = std::max(best, x);
  return best;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// Per-scenario fold-down of a replicated sweep's simulated times.
struct ScenarioAgg {
  bool complete = false;       // every replication succeeded
  std::vector<double> times;   // simulated times of the ok replications
  util::SampleSummary stats;   // over `times` (valid when non-empty)
  util::BootstrapCi ci;        // bootstrap CI of the mean (valid when non-empty)
};

ScenarioAgg aggregate_scenario(const CampaignOutcome& outcome, std::size_t scenario,
                               std::uint64_t ci_seed) {
  const int reps = reps_of(outcome);
  ScenarioAgg agg;
  agg.complete = true;
  for (int rep = 0; rep < reps; ++rep) {
    const ScenarioResult& r =
        outcome.results[scenario * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep)];
    if (r.ok) {
      agg.times.push_back(r.simulated_time);
    } else {
      agg.complete = false;
    }
  }
  if (!agg.times.empty()) {
    agg.stats = util::summarize_sample(agg.times);
    // One CI sub-seed per scenario, so dropping a scenario from the sweep
    // never changes another's interval.
    agg.ci = util::bootstrap_mean_ci(agg.times, kCiLevel, kCiResamples,
                                     util::mix_stream(ci_seed, 0, scenario));
  }
  return agg;
}

// Scenario ids of the rankable runs, sorted fastest-first (stable on ties so
// the ranking is deterministic). With replications the key is the mean over
// the reps and only scenarios with every replication ok are ranked — a
// scenario that lost reps to crashes has a biased mean.
std::vector<int> ranked_ok(const std::vector<ScenarioAgg>& aggs) {
  std::vector<int> ids;
  std::vector<double> key(aggs.size(), 0);
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    if (!aggs[i].complete) continue;
    ids.push_back(static_cast<int>(i));
    key[i] = aggs[i].stats.mean;
  }
  std::stable_sort(ids.begin(), ids.end(), [&](int a, int b) {
    return key[static_cast<std::size_t>(a)] < key[static_cast<std::size_t>(b)];
  });
  return ids;
}

// Rank stability: how often the fastest-by-mean scenario is also the fastest
// within a single replication. 1.0 means the sweep's verdict is insensitive
// to the noise; a low fraction means single-run rankings from this noise
// level cannot be trusted.
struct RankStability {
  bool valid = false;
  int winner = -1;
  int stable_reps = 0;
  double fraction = 0;
  const char* verdict = "unstable";
};

RankStability rank_stability(const CampaignOutcome& outcome,
                             const std::vector<ScenarioAgg>& aggs,
                             const std::vector<int>& ranking) {
  RankStability rs;
  const int reps = reps_of(outcome);
  if (reps < 2 || ranking.empty()) return rs;
  rs.valid = true;
  rs.winner = ranking.front();
  for (int rep = 0; rep < reps; ++rep) {
    int best = -1;
    double best_time = 0;
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      const ScenarioResult& r =
          outcome.results[i * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep)];
      if (!r.ok) continue;
      if (best < 0 || r.simulated_time < best_time) {
        best = static_cast<int>(i);
        best_time = r.simulated_time;
      }
    }
    if (best == rs.winner) ++rs.stable_reps;
  }
  rs.fraction = static_cast<double>(rs.stable_reps) / static_cast<double>(reps);
  rs.verdict = rs.fraction >= 1.0 ? "stable" : rs.fraction >= 0.8 ? "mostly-stable" : "unstable";
  return rs;
}

util::JsonValue params_json(const Scenario& scenario) {
  util::JsonValue params = util::JsonValue::object();
  for (const auto& [key, value] : scenario.params) params.set(key, value);
  return params;
}

const char* base_kind_name(CampaignSpec::BaseKind kind) {
  switch (kind) {
    case CampaignSpec::BaseKind::kFlat: return "flat";
    case CampaignSpec::BaseKind::kGriffon: return "hierarchical-griffon";
    case CampaignSpec::BaseKind::kGdx: return "hierarchical-gdx";
    case CampaignSpec::BaseKind::kXmlFile: return "xml";
  }
  SMPI_UNREACHABLE("bad base kind");
}

// The report's record of the sweep's base platform and workload; resume
// compares a prior report's against these.
util::JsonValue platform_json(const CampaignSpec& spec) {
  util::JsonValue platform = util::JsonValue::object();
  platform.set("kind", util::JsonValue::string(base_kind_name(spec.base_kind)));
  platform.set("nodes", util::JsonValue::number(spec.base_nodes));
  if (!spec.platform_file.empty()) {
    platform.set("file", util::JsonValue::string(spec.platform_file));
  }
  return platform;
}

util::JsonValue workload_json(const CampaignSpec& spec) {
  util::JsonValue workload = util::JsonValue::object();
  workload.set("name", util::JsonValue::string(spec.workload.name));
  workload.set("ranks", util::JsonValue::number(spec.workload.ranks));
  workload.set("seed", util::JsonValue::number(static_cast<double>(spec.workload.seed)));
  workload.set("phases",
               util::JsonValue::number(static_cast<double>(spec.workload.phases.size())));
  return workload;
}

// --- the row schema ----------------------------------------------------------
//
// One table drives every per-run surface: report rows and replication
// entries, the worker capsule, resume parsing and the CSV. A field names its
// JSON group ("" = the row itself) and key, the rows that carry it, and its
// value. Its CSV column is the key (or `column`); CSV columns keep table
// order within the zones kCsvHead, axis columns, unflagged, kCsvTail (the
// JSON writes a failed row's error before timed_out, the CSV after it).

// A ScenarioResult member, or a report-side value derived from the run and
// its same-rep baseline (empty without one: capsules and resume skip it).
using Value = std::variant<std::monostate, bool*, int*, long long*, std::uint64_t*, double*,
                           std::string*, std::vector<double>*, double>;

enum Rows { kAll, kFailed, kOk, kAnalyzed, kResources };  // which rows carry a field

constexpr unsigned kLegacy = 1;     // older reports may lack it: resumes as zero/empty
constexpr unsigned kOmitUnset = 2;  // JSON leaves it out while false/empty
constexpr unsigned kBare = 4;       // CSV text unquoted
constexpr unsigned kJsonOnly = 8;   // no CSV column
constexpr unsigned kCsvHead = 16, kCsvTail = 32;

struct Field {
  Rows rows;
  const char* group;
  const char* key;
  Value (*value)(ScenarioResult& r, const ScenarioResult* baseline);
  unsigned flags = 0;
  const char* column = nullptr;
};

// MEMBER(m): the member r.m. DERIVED(e): e, from the run r and its baseline *b.
#define MEMBER(m) [](ScenarioResult& r, const ScenarioResult*) -> Value { return &r.m; }
#define DERIVED(e) [](ScenarioResult& r, const ScenarioResult* b) { return b ? Value{e} : Value{}; }

const Field kFields[] = {
    {kAll, "", "ok", MEMBER(ok), kCsvHead},
    {kAll, "", "retries", MEMBER(retries), kCsvHead | kLegacy},
    {kOk, "", "simulated_time", MEMBER(simulated_time)},
    {kOk, "", "speedup_vs_baseline", DERIVED(speedup_vs_baseline(*b, r))},
    {kOk, "", "wall_s", MEMBER(wall_s)},
    {kOk, "", "records", MEMBER(records)},
    {kOk, "", "ranks", MEMBER(ranks)},
    {kOk, "", "arena_bytes", MEMBER(arena_bytes), kJsonOnly},
    {kOk, "breakdown", "compute_total_s", DERIVED(sum(r.rank_compute_s))},
    {kOk, "breakdown", "comm_total_s", DERIVED(sum(r.rank_comm_s))},
    {kOk, "breakdown", "compute_max_s", DERIVED(max_of(r.rank_compute_s))},
    {kOk, "breakdown", "comm_max_s", DERIVED(max_of(r.rank_comm_s))},
    {kOk, "breakdown", "rank_compute_s", MEMBER(rank_compute_s), kJsonOnly},
    {kOk, "breakdown", "rank_comm_s", MEMBER(rank_comm_s), kJsonOnly},
    {kOk, "solver", "solves", MEMBER(solver_solves), 0, "solver_solves"},
    {kOk, "solver", "vars_touched", MEMBER(solver_vars_touched), 0, "solver_vars_touched"},
    {kOk, "solver", "cons_touched", MEMBER(solver_cons_touched), 0, "solver_cons_touched"},
    {kOk, "p2p", "pool_hits", MEMBER(p2p.pool_hits), kLegacy},
    {kOk, "p2p", "pool_misses", MEMBER(p2p.pool_misses), kLegacy},
    {kOk, "p2p", "eager_snapshots", MEMBER(p2p.eager_snapshots), kLegacy},
    {kOk, "p2p", "eager_copy_elided", MEMBER(p2p.eager_copy_elided), kLegacy},
    {kOk, "p2p", "eager_flush_snapshots", MEMBER(p2p.eager_flush_snapshots), kLegacy},
    {kOk, "p2p", "bytes_not_copied", MEMBER(p2p.bytes_not_copied), kLegacy},
    {kAnalyzed, "analysis", "wait_fraction", MEMBER(analysis.wait_fraction)},
    {kAnalyzed, "analysis", "critical_path_s", MEMBER(analysis.path_length_s)},
    {kAnalyzed, "analysis", "cp_compute_s", MEMBER(analysis.cp_compute_s)},
    {kAnalyzed, "analysis", "cp_comm_s", MEMBER(analysis.cp_comm_s)},
    {kAnalyzed, "analysis", "dominant_wait", MEMBER(analysis.dominant_wait_state), kBare},
    {kAnalyzed, "analysis", "rank_wait_s", MEMBER(rank_wait_s), kJsonOnly},
    {kAnalyzed, "analysis", "rank_transfer_s", MEMBER(rank_transfer_s), kJsonOnly},
    {kResources, "resources", "top_bottleneck", MEMBER(top_bottleneck)},
    {kResources, "resources", "bottleneck_saturated_s", MEMBER(bottleneck_saturated_s)},
    {kResources, "resources", "max_link_utilization", MEMBER(max_link_utilization)},
    {kFailed, "", "error", MEMBER(error), kCsvTail | kLegacy},
    {kAll, "", "timed_out", MEMBER(timed_out), kCsvHead | kOmitUnset},
    {kFailed, "", "worker_exit", MEMBER(worker_exit), kOmitUnset},
};

#undef MEMBER
#undef DERIVED

bool carried(Rows rows, const ScenarioResult& r) {
  if (rows == kAll) return true;
  if (rows == kFailed) return !r.ok;
  return r.ok && (rows == kOk || (rows == kAnalyzed ? r.analyzed : r.resources_analyzed));
}

template <typename... F>
struct Overloaded : F... {
  using F::operator()...;
};
template <typename... F>
Overloaded(F...) -> Overloaded<F...>;

util::JsonValue to_json(const Value& value) {
  return std::visit(
      Overloaded{[](std::monostate) { return util::JsonValue::null(); },
                 [](double v) { return util::JsonValue::number(v); },
                 [](bool* v) { return util::JsonValue::boolean(*v); },
                 [](std::string* v) { return util::JsonValue::string(*v); },
                 [](std::vector<double>* v) {
                   util::JsonValue array = util::JsonValue::array();
                   for (double x : *v) array.append(util::JsonValue::number(x));
                   return array;
                 },
                 [](auto* v) { return util::JsonValue::number(static_cast<double>(*v)); }},
      value);
}

// Stores `json` through `value`, field `f`'s member. A counter that does not
// fit its member (a negative count, an int past INT_MAX) is rejected.
void from_json(const util::JsonValue& json, const Value& value, const Field& f) {
  std::visit(
      Overloaded{[](std::monostate) {}, [](double) {},
                 [&](bool* v) { *v = json.as_bool(); },
                 [&](double* v) { *v = json.as_number(); },
                 [&](std::string* v) { *v = json.as_string(); },
                 [&](std::vector<double>* v) {
                   for (const auto& x : json.items()) v->push_back(x.as_number());
                 },
                 [&](auto* v) {
                   using T = std::decay_t<decltype(*v)>;
                   const long long n = json.as_int();
                   SMPI_REQUIRE((std::is_signed_v<T> || n >= 0) &&
                                    static_cast<long long>(static_cast<T>(n)) == n,
                                std::string("campaign result field '") + f.group +
                                    (*f.group == '\0' ? "" : ".") + f.key +
                                    "' is out of range: " + json.dump());
                   *v = static_cast<T>(n);
                 }},
      value);
}

// RFC 4180 text cell: wrapped in double quotes, embedded quotes doubled.
std::string csv_quoted(const std::string& text) {
  std::string cell = "\"";
  for (char c : text) {
    if (c == '"') cell += '"';
    cell += c;
  }
  return cell + '"';
}

std::string to_csv(const Value& value, bool bare) {
  return std::visit(
      Overloaded{[](std::monostate) { return std::string(); },
                 [](std::vector<double>*) { return std::string(); },
                 [](double v) { return format_double(v); },
                 [](double* v) { return format_double(*v); },
                 [](bool* v) { return std::string(*v ? "1" : "0"); },
                 [&](std::string* v) { return bare ? *v : csv_quoted(*v); },
                 [](auto* v) { return std::to_string(*v); }},
      value);
}

// A field's value for output. The accessors hand out mutable pointers so
// read_result_fields can store through them; output only reads.
Value output_value(const Field& f, const ScenarioResult& r, const ScenarioResult* baseline) {
  return f.value(const_cast<ScenarioResult&>(r), baseline);
}

std::vector<ScenarioAgg> aggregate_all(const CampaignSpec& spec,
                                       const std::vector<Scenario>& scenarios,
                                       const CampaignOutcome& outcome) {
  std::vector<ScenarioAgg> aggs;
  aggs.reserve(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    aggs.push_back(aggregate_scenario(outcome, i, spec.noise.seed));
  }
  return aggs;
}

}  // namespace

void set_result_fields(util::JsonValue& row, const ScenarioResult& r,
                       const ScenarioResult* baseline) {
  std::string open;  // the JSON group being filled ("" = the row itself)
  util::JsonValue group;
  for (const Field& f : kFields) {
    if (!carried(f.rows, r)) continue;
    const Value value = output_value(f, r, baseline);
    if (std::holds_alternative<std::monostate>(value)) continue;
    util::JsonValue json = to_json(value);
    const bool unset =
        json.is_bool() ? !json.as_bool() : json.is_string() && json.as_string().empty();
    if (unset && (f.flags & kOmitUnset) != 0) continue;
    if (open != f.group) {
      if (!open.empty()) row.set(open, std::move(group));
      open = f.group;
      group = util::JsonValue::object();
    }
    (open.empty() ? row : group).set(f.key, std::move(json));
  }
  if (!open.empty()) row.set(open, std::move(group));
}

ScenarioResult read_result_fields(const util::JsonValue& row, int id, int rep) {
  ScenarioResult r;
  r.id = id;
  r.rep = rep;
  for (const Field& f : kFields) {
    const util::JsonValue* scope = *f.group == '\0' ? &row : row.find(f.group);
    if (f.rows == kAnalyzed) r.analyzed = r.ok && scope != nullptr;
    if (f.rows == kResources) r.resources_analyzed = r.ok && scope != nullptr;
    const Value member = f.value(r, nullptr);
    if (!carried(f.rows, r) || std::holds_alternative<std::monostate>(member)) continue;
    const util::JsonValue* json = scope == nullptr ? nullptr : scope->find(f.key);
    if (json == nullptr) {
      SMPI_REQUIRE((f.flags & (kLegacy | kOmitUnset)) != 0,
                   std::string("campaign result row lacks '") + f.key + "'");
      continue;
    }
    from_json(*json, member, f);
  }
  return r;
}

util::JsonValue report_json(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                            const CampaignOutcome& outcome) {
  const int reps = reps_of(outcome);
  SMPI_REQUIRE(scenarios.size() * static_cast<std::size_t>(reps) == outcome.results.size(),
               "campaign report: scenario/result count mismatch");
  const ScenarioResult& baseline = baseline_of(outcome);

  util::JsonValue doc = util::JsonValue::object();
  doc.set("campaign", util::JsonValue::string(spec.name));
  doc.set("trace", util::JsonValue::string(spec.trace_dir));
  doc.set("platform", platform_json(spec));
  if (spec.has_workload) doc.set("workload", workload_json(spec));
  doc.set("workers", util::JsonValue::number(outcome.workers));
  if (outcome.resumed > 0) doc.set("resumed", util::JsonValue::number(outcome.resumed));
  doc.set("wall_s", util::JsonValue::number(outcome.wall_s));
  doc.set("scenario_count", util::JsonValue::number(static_cast<double>(scenarios.size())));
  if (reps > 1) {
    doc.set("replications", util::JsonValue::number(reps));
    doc.set("noise_seed", util::JsonValue::number(static_cast<double>(spec.noise.seed)));
  }

  const std::vector<ScenarioAgg> aggs = aggregate_all(spec, scenarios, outcome);

  util::JsonValue rows = util::JsonValue::array();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& scenario = scenarios[i];
    util::JsonValue row = util::JsonValue::object();
    row.set("id", util::JsonValue::number(scenario.id));
    row.set("label", util::JsonValue::string(scenario.label));
    row.set("params", params_json(scenario));
    if (reps == 1) {
      set_result_fields(row, outcome.results[i], &baseline);
      rows.append(std::move(row));
      continue;
    }
    // Replicated sweep: per-rep entries plus the fold-down. Speedups are
    // paired per replication (scenario rep k vs baseline rep k) so a slow
    // noise world cancels out of the ratio.
    const ScenarioAgg& agg = aggs[i];
    row.set("ok", util::JsonValue::boolean(agg.complete));
    util::JsonValue rep_rows = util::JsonValue::array();
    for (int rep = 0; rep < reps; ++rep) {
      const auto rep_index = static_cast<std::size_t>(rep);
      util::JsonValue entry = util::JsonValue::object();
      entry.set("rep", util::JsonValue::number(rep));
      set_result_fields(entry, outcome.results[i * static_cast<std::size_t>(reps) + rep_index],
                        &outcome.results[rep_index]);
      rep_rows.append(std::move(entry));
    }
    row.set("replications", std::move(rep_rows));
    if (!agg.times.empty()) {
      const ScenarioAgg& base_agg = aggs[0];
      util::JsonValue stats = util::JsonValue::object();
      const util::SampleSummary& st = agg.stats;
      for (const auto& [key, value] : {std::pair<const char*, double>{"count", st.count},
                                       {"mean", st.mean}, {"stddev", st.stddev}, {"min", st.min},
                                       {"max", st.max}, {"p5", st.p5}, {"p50", st.p50},
                                       {"p95", st.p95}, {"ci_lo", agg.ci.lo},
                                       {"ci_hi", agg.ci.hi}}) {
        stats.set(key, util::JsonValue::number(value));
      }
      if (!base_agg.times.empty() && agg.stats.mean > 0) {
        stats.set("speedup_vs_baseline_mean",
                  util::JsonValue::number(base_agg.stats.mean / agg.stats.mean));
      }
      row.set("stats", std::move(stats));
    }
    rows.append(std::move(row));
  }
  doc.set("scenarios", std::move(rows));

  const std::vector<int> ranking = ranked_ok(aggs);
  util::JsonValue ranking_json = util::JsonValue::array();
  for (int id : ranking) ranking_json.append(util::JsonValue::number(id));
  doc.set("ranking_fastest_first", std::move(ranking_json));

  const RankStability rs = rank_stability(outcome, aggs, ranking);
  if (rs.valid) {
    util::JsonValue stability = util::JsonValue::object();
    stability.set("winner", util::JsonValue::number(rs.winner));
    stability.set("stable_replications", util::JsonValue::number(rs.stable_reps));
    stability.set("fraction", util::JsonValue::number(rs.fraction));
    stability.set("verdict", util::JsonValue::string(rs.verdict));
    doc.set("rank_stability", std::move(stability));
  }
  return doc;
}

std::string report_csv(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                       const CampaignOutcome& outcome) {
  const int reps = reps_of(outcome);
  SMPI_REQUIRE(scenarios.size() * static_cast<std::size_t>(reps) == outcome.results.size(),
               "campaign report: scenario/result count mismatch");

  // Columns: id, rep and label, then the table's head zone, one column per
  // axis (in axis order, so the grid pivots cleanly), the body and the tail.
  std::vector<const Field*> columns;  // nullptr = the axis columns
  for (const unsigned zone : {kCsvHead, 0u, kCsvTail}) {
    if (zone == 0) columns.push_back(nullptr);
    for (const Field& f : kFields) {
      if ((f.flags & (kCsvHead | kCsvTail | kJsonOnly)) == zone) columns.push_back(&f);
    }
  }
  std::string csv = "id,rep,label";
  for (const Field* f : columns) {
    if (f == nullptr) {
      for (const Axis& axis : spec.axes) csv += ',' + axis.key();
    } else {
      csv += ',' + std::string(f->column != nullptr ? f->column : f->key);
    }
  }
  csv += '\n';

  // One row per unit: with replications the per-rep runs appear individually
  // (the fold-down statistics live in the JSON report).
  for (std::size_t unit = 0; unit < outcome.results.size(); ++unit) {
    const ScenarioResult& r = outcome.results[unit];
    const Scenario& scenario = scenarios[unit / static_cast<std::size_t>(reps)];
    const ScenarioResult& baseline =
        outcome.results[unit % static_cast<std::size_t>(reps)];  // same-rep baseline
    csv += std::to_string(scenario.id) + ',' + std::to_string(r.rep) + ',' +
           csv_quoted(scenario.label);
    for (const Field* f : columns) {
      if (f == nullptr) {
        for (const Axis& axis : spec.axes) {
          const util::JsonValue* value = scenario.find(axis.key());
          csv += ',';
          if (value != nullptr) csv += value->is_string() ? value->as_string() : value->dump();
        }
        continue;
      }
      csv += ',';
      if (carried(f->rows, r)) csv += to_csv(output_value(*f, r, &baseline), f->flags & kBare);
    }
    csv += '\n';
  }
  return csv;
}

std::string report_summary(const CampaignSpec& spec, const std::vector<Scenario>& scenarios,
                           const CampaignOutcome& outcome, int top) {
  const int reps = reps_of(outcome);
  const ScenarioResult& baseline = baseline_of(outcome);
  const std::vector<ScenarioAgg> aggs = aggregate_all(spec, scenarios, outcome);
  const std::vector<int> ranking = ranked_ok(aggs);
  std::string out;
  char line[512];

  if (reps == 1) {
    std::snprintf(line, sizeof line, "campaign '%s': %zu scenarios, %d workers, %.2fs wall\n",
                  spec.name.c_str(), scenarios.size(), outcome.workers, outcome.wall_s);
  } else {
    std::snprintf(line, sizeof line,
                  "campaign '%s': %zu scenarios x %d replications, %d workers, %.2fs wall\n",
                  spec.name.c_str(), scenarios.size(), reps, outcome.workers, outcome.wall_s);
  }
  out += line;
  if (reps == 1) {
    if (baseline.ok) {
      std::snprintf(line, sizeof line, "baseline simulated time: %.9f s\n",
                    baseline.simulated_time);
      out += line;
    } else {
      out += "baseline FAILED: " + baseline.error + "\n";
    }
  } else if (!aggs[0].times.empty()) {
    std::snprintf(line, sizeof line,
                  "baseline simulated time: mean %.9f s, stddev %.3g, p5 %.9f, p95 %.9f (%zu/%d "
                  "reps)\n",
                  aggs[0].stats.mean, aggs[0].stats.stddev, aggs[0].stats.p5, aggs[0].stats.p95,
                  aggs[0].times.size(), reps);
    out += line;
  } else {
    out += "baseline FAILED in every replication\n";
  }

  // "[wait 42%, mostly late_sender]" — why this scenario is slow (or not):
  // how much of its total rank time was spent blocked on peers, and which
  // wait-state class dominates that blocking.
  auto wait_note = [&](const ScenarioResult& r) -> std::string {
    if (!r.ok || (!r.analyzed && !r.resources_analyzed)) return "";
    std::string text;
    char note[160];
    if (r.analyzed) {
      const obs::AnalysisResult& a = r.analysis;
      if (a.dominant_wait_state.empty() || a.dominant_wait_state == "none") {
        std::snprintf(note, sizeof note, "wait %.0f%%", a.wait_fraction * 100.0);
      } else {
        std::snprintf(note, sizeof note, "wait %.0f%%, mostly %s", a.wait_fraction * 100.0,
                      a.dominant_wait_state.c_str());
      }
      text = note;
    }
    // "..., bottleneck backbone-link 2.1s": the resource saturated longest
    // in this run — where the contention actually lives.
    if (r.resources_analyzed && !r.top_bottleneck.empty()) {
      std::snprintf(note, sizeof note, "bottleneck %s %.3gs", r.top_bottleneck.c_str(),
                    r.bottleneck_saturated_s);
      if (!text.empty()) text += ", ";
      text += note;
    }
    if (text.empty()) return "";
    return "  [" + text + "]";
  };
  auto describe = [&](int id) {
    const auto index = static_cast<std::size_t>(id);
    if (reps == 1) {
      const ScenarioResult& r = outcome.results[index];
      std::snprintf(line, sizeof line, "  #%-4d %-48s %.9f s  (%.3fx)", id,
                    scenarios[index].label.c_str(), r.simulated_time,
                    speedup_vs_baseline(baseline, r));
      out += line;
      out += wait_note(r);
    } else {
      const ScenarioAgg& agg = aggs[index];
      const double speedup =
          !aggs[0].times.empty() && agg.stats.mean > 0 ? aggs[0].stats.mean / agg.stats.mean : 0;
      std::snprintf(line, sizeof line, "  #%-4d %-48s mean %.9f s +/- %.3g  (%.3fx)", id,
                    scenarios[index].label.c_str(), agg.stats.mean, agg.stats.stddev, speedup);
      out += line;
      // The wait-state verdict of the first successful replication stands in
      // for the family (noise moves the numbers, rarely the diagnosis).
      for (int rep = 0; rep < reps; ++rep) {
        const ScenarioResult& r =
            outcome.results[index * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep)];
        if (r.ok && r.analyzed) {
          out += wait_note(r);
          break;
        }
      }
    }
    out += '\n';
  };

  const int shown = std::min<int>(top, static_cast<int>(ranking.size()));
  if (shown > 0) {
    out += reps == 1 ? "fastest scenarios:\n" : "fastest scenarios (by mean):\n";
    for (int i = 0; i < shown; ++i) describe(ranking[static_cast<std::size_t>(i)]);
    out += "slowest scenarios:\n";
    for (int i = 0; i < shown; ++i) {
      describe(ranking[ranking.size() - 1 - static_cast<std::size_t>(i)]);
    }
  }

  const RankStability rs = rank_stability(outcome, aggs, ranking);
  if (rs.valid) {
    std::snprintf(line, sizeof line,
                  "rank stability: winner #%d fastest in %d/%d replications (%s)\n", rs.winner,
                  rs.stable_reps, reps, rs.verdict);
    out += line;
  }

  if (outcome.resumed > 0) {
    out += std::to_string(outcome.resumed) + " run(s) adopted from the resumed report\n";
  }

  int failures = 0;
  int retried = 0;
  int timeouts = 0;
  for (const ScenarioResult& r : outcome.results) {
    failures += r.ok ? 0 : 1;
    retried += r.retries > 0 ? 1 : 0;
    timeouts += r.timed_out ? 1 : 0;
  }
  if (retried > 0) out += std::to_string(retried) + " run(s) needed a worker retry\n";
  if (timeouts > 0) out += std::to_string(timeouts) + " run(s) hit the wall-clock watchdog\n";
  if (failures > 0) {
    out += std::to_string(failures) + " run(s) FAILED:\n";
    for (const ScenarioResult& r : outcome.results) {
      if (r.ok) continue;
      std::snprintf(line, sizeof line, "  #%-4d%s %s: %s%s%s%s\n", r.id,
                    reps > 1 ? (" rep=" + std::to_string(r.rep)).c_str() : "",
                    scenarios[static_cast<std::size_t>(r.id)].label.c_str(), r.error.c_str(),
                    r.worker_exit.empty() ? "" : " [worker: ",
                    r.worker_exit.c_str(), r.worker_exit.empty() ? "" : "]");
      out += line;
    }
  }
  return out;
}

std::vector<ScenarioResult> results_from_report(const util::JsonValue& report,
                                                const CampaignSpec& spec,
                                                const std::vector<Scenario>& scenarios) {
  SMPI_REQUIRE(report.is_object(), "campaign resume: report is not a JSON object");
  const std::string name = report.at("campaign", "resume report").as_string();
  SMPI_REQUIRE(name == spec.name, "campaign resume: report belongs to campaign '" + name +
                                      "', spec is '" + spec.name + "'");
  const long long count = report.at("scenario_count", "resume report").as_int();
  SMPI_REQUIRE(count == static_cast<long long>(scenarios.size()),
               "campaign resume: report has " + std::to_string(count) + " scenarios, spec has " +
                   std::to_string(scenarios.size()));
  // A report replicated differently indexes its units differently: adopting
  // it would stitch rep k of one family onto rep k of another.
  const int reps = std::max(1, spec.replications);
  const auto* report_reps = report.find("replications");
  const long long reps_in_report = report_reps == nullptr ? 1 : report_reps->as_int();
  SMPI_REQUIRE(reps_in_report == reps,
               "campaign resume: report ran " + std::to_string(reps_in_report) +
                   " replication(s), spec wants " + std::to_string(reps));
  if (reps > 1) {
    const long long seed = report.at("noise_seed", "resume report").as_int();
    SMPI_REQUIRE(seed == static_cast<long long>(spec.noise.seed),
                 "campaign resume: report ran under noise_seed " + std::to_string(seed) +
                     ", spec uses " + std::to_string(spec.noise.seed));
  }
  // Labels only cover the axis values; the trace source and base platform
  // shape the results just as much, so a report produced under a different
  // one must be rejected, not stitched into this sweep.
  const std::string trace = report.at("trace", "resume report").as_string();
  SMPI_REQUIRE(trace == spec.trace_dir, "campaign resume: report ran over trace '" + trace +
                                            "', spec uses '" + spec.trace_dir + "'");
  SMPI_REQUIRE(report.at("platform", "resume report").dump() == platform_json(spec).dump(),
               "campaign resume: report ran on a different base platform");
  const auto* workload = report.find("workload");
  SMPI_REQUIRE((workload != nullptr) == spec.has_workload,
               "campaign resume: report and spec disagree on the workload trace source");
  SMPI_REQUIRE(workload == nullptr || workload->dump() == workload_json(spec).dump(),
               "campaign resume: report ran a different workload (name/ranks/seed/phases changed)");

  std::vector<ScenarioResult> results(scenarios.size() * static_cast<std::size_t>(reps));
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].id = static_cast<int>(i) / reps;
    results[i].rep = static_cast<int>(i) % reps;
    results[i].error = "not present in the resumed report";
  }
  for (const auto& row : report.at("scenarios", "resume report").items()) {
    const long long id = row.at("id", "resume report row").as_int();
    SMPI_REQUIRE(id >= 0 && id < static_cast<long long>(scenarios.size()),
                 "campaign resume: report row id out of range");
    const auto index = static_cast<std::size_t>(id);
    // Label equality is the cheap proxy for "same axes, same values, same
    // order" — any edit to the spec that renumbers the cross-product
    // changes the labels, and the resume must then be rejected.
    const std::string label = row.at("label", "resume report row").as_string();
    SMPI_REQUIRE(label == scenarios[index].label,
                 "campaign resume: scenario " + std::to_string(id) + " is '" +
                     scenarios[index].label + "' in the spec but '" + label +
                     "' in the report — the axes changed, start a fresh sweep");
    if (reps == 1) {
      results[index] = read_result_fields(row, static_cast<int>(id), 0);
      continue;
    }
    for (const auto& entry : row.at("replications", "resume report row").items()) {
      const long long rep = entry.at("rep", "resume replication entry").as_int();
      SMPI_REQUIRE(rep >= 0 && rep < reps, "campaign resume: replication index out of range");
      results[index * static_cast<std::size_t>(reps) + static_cast<std::size_t>(rep)] =
          read_result_fields(entry, static_cast<int>(id), static_cast<int>(rep));
    }
  }
  return results;
}

}  // namespace smpi::campaign
