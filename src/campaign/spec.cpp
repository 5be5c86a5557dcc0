#include "campaign/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "platform/builders.hpp"
#include "platform/platform_xml.hpp"
#include "smpi/coll.h"
#include "util/check.hpp"
#include "util/units.hpp"

namespace smpi::campaign {

namespace {

// A numeric value contract: min < x (min_open) or min <= x, and x < max.
// The upper bounds keep each value inside the type its effect converts it to.
struct Range {
  double min;
  bool min_open;
  double max;
  bool integer;
  const char* text;  // as spec.hpp documents it
};
constexpr Range kPositive{0, true, HUGE_VAL, false, "a number > 0"};
constexpr Range kNonNegative{0, false, HUGE_VAL, false, "a number >= 0"};
constexpr Range kFraction{0, false, 1, false, "a number in [0, 1)"};
constexpr Range kByteCount{0, false, 0x1p64, false, "a number in [0, 2^64)"};
constexpr Range kCount{1, false, 0x1p31, true, "an integer in [1, 2^31)"};
constexpr Range kNatural{0, false, 0x1p63, true, "an integer in [0, 2^63)"};

// What a param needs from the rest of the campaign spec.
struct Need {
  const char* what;
  bool (*met)(const CampaignSpec&);
};
constexpr Need kFaults{"a campaign-level 'faults' spec",
                       [](const CampaignSpec& s) { return !s.faults.empty(); }};
constexpr Need kRandomFaults{"a campaign-level 'faults' spec with a 'random' block",
                             [](const CampaignSpec& s) { return s.faults.has_random; }};
constexpr Need kNoise{"a campaign-level 'noise' spec",
                      [](const CampaignSpec& s) { return !s.noise.empty(); }};
constexpr Need kFlatBase{"the flat base platform", [](const CampaignSpec& s) {
                           return s.base_kind == CampaignSpec::BaseKind::kFlat;
                         }};

// kPlacement: round_robin | block | stride:<k>. kVariant: "auto" or a name
// in the collective's variant table (smpi/coll.h).
enum class Kind { kNumber, kBool, kPlacement, kVariant };

// One axis value applied to a scenario's setup.
struct Setting {
  ScenarioSetup& setup;
  platform::Platform& platform;  // setup.platform
  const util::JsonValue& value;
  int entity;  // the host or link of a targeted param
  int nranks;
  double number() const { return value.as_number(); }
};

using Workload = workload::WorkloadSpec;

// One sweepable parameter: its name, value contract and effect, on the
// workload spec the runner regenerates (workload_*) or on the scenario setup
// (neither for topology_nodes and noise_seed: materialize applies them).
struct Param {
  const char* name;
  const char* target_key;  // "host", "link", or nullptr when untargeted
  Kind kind;
  const Range* range;  // kNumber only
  const Need* need;    // nullptr when the param stands alone
  void (*workload)(Workload&, double);
  void (*setup)(const Setting&);
};

// The stride of a placement value: rank r runs on host (r * stride) % hosts,
// so round_robin is stride 1; 0 stands for block.
int placement_stride(const std::string& text) {
  if (text == "block") return 0;
  if (text == "round_robin") return 1;
  SMPI_REQUIRE(text.rfind("stride:", 0) == 0, "campaign axis 'placement': unknown policy '" +
                                                  text + "' (round_robin | block | stride:<k>)");
  const int stride = util::parse_number<int>("campaign axis 'placement' stride", text.substr(7));
  SMPI_REQUIRE(stride >= 1, "campaign axis 'placement': stride must be >= 1");
  return stride;
}

std::vector<int> build_placement(int stride, int nranks, int hosts) {
  std::vector<int> placement(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    // Block: contiguous blocks of ranks per host (the "fill each node
    // first" mapping MPI launchers call by-node vs by-slot).
    placement[static_cast<std::size_t>(r)] =
        static_cast<int>(stride == 0 ? (static_cast<long long>(r) * hosts) / nranks
                                     : (static_cast<long long>(r) * stride) % hosts);
  }
  return placement;
}

// The closed catalog of sweepable parameters, one row each; an unknown name
// is rejected at parse time so a typo cannot silently produce a no-op axis.
const Param kParams[] = {
    {"host_speed_scale", nullptr, Kind::kNumber, &kPositive, nullptr, nullptr,
     [](const Setting& s) {
       for (int h = 0; h < s.platform.host_count(); ++h) {
         s.platform.set_host_speed(h, s.platform.host(h).speed_flops * s.number());
       }
     }},
    {"link_bandwidth_scale", nullptr, Kind::kNumber, &kPositive, nullptr, nullptr,
     [](const Setting& s) {
       for (int l = 0; l < s.platform.link_count(); ++l) {
         s.platform.set_link_bandwidth(l, s.platform.link(l).bandwidth_bps * s.number());
       }
     }},
    {"link_latency_scale", nullptr, Kind::kNumber, &kNonNegative, nullptr, nullptr,
     [](const Setting& s) {
       for (int l = 0; l < s.platform.link_count(); ++l) {
         s.platform.set_link_latency(l, s.platform.link(l).latency_s * s.number());
       }
     }},
    {"host_speed", "host", Kind::kNumber, &kPositive, nullptr, nullptr,
     [](const Setting& s) { s.platform.set_host_speed(s.entity, s.number()); }},
    {"link_bandwidth", "link", Kind::kNumber, &kPositive, nullptr, nullptr,
     [](const Setting& s) { s.platform.set_link_bandwidth(s.entity, s.number()); }},
    {"link_latency", "link", Kind::kNumber, &kNonNegative, nullptr, nullptr,
     [](const Setting& s) { s.platform.set_link_latency(s.entity, s.number()); }},
    {"cpu_scale", nullptr, Kind::kNumber, &kPositive, nullptr, nullptr,
     [](const Setting& s) { s.setup.config.cpu_scale = s.number(); }},
    {"topology_nodes", nullptr, Kind::kNumber, &kCount, &kFlatBase, nullptr, nullptr},
    {"placement", nullptr, Kind::kPlacement, nullptr, nullptr, nullptr,
     [](const Setting& s) {
       s.setup.config.placement = build_placement(placement_stride(s.value.as_string()),
                                                  s.nranks, s.platform.host_count());
     }},
    {"coll_bcast", nullptr, Kind::kVariant, nullptr, nullptr, nullptr,
     [](const Setting& s) { s.setup.config.coll.bcast = s.value.as_string(); }},
    {"coll_alltoall", nullptr, Kind::kVariant, nullptr, nullptr, nullptr,
     [](const Setting& s) { s.setup.config.coll.alltoall = s.value.as_string(); }},
    {"coll_allreduce", nullptr, Kind::kVariant, nullptr, nullptr, nullptr,
     [](const Setting& s) { s.setup.config.coll.allreduce = s.value.as_string(); }},
    {"coll_allgather", nullptr, Kind::kVariant, nullptr, nullptr, nullptr,
     [](const Setting& s) { s.setup.config.coll.allgather = s.value.as_string(); }},
    {"payload_free", nullptr, Kind::kBool, nullptr, nullptr, nullptr,
     [](const Setting& s) { s.setup.payload_free = s.value.as_bool(); }},
    {"eager_threshold", nullptr, Kind::kNumber, &kByteCount, nullptr, nullptr,
     [](const Setting& s) {
       s.setup.config.personality.eager_threshold = static_cast<std::uint64_t>(s.number());
     }},
    {"overhead_send", nullptr, Kind::kNumber, &kNonNegative, nullptr, nullptr,
     [](const Setting& s) { s.setup.config.personality.overhead_send_s = s.number(); }},
    {"overhead_recv", nullptr, Kind::kNumber, &kNonNegative, nullptr, nullptr,
     [](const Setting& s) { s.setup.config.personality.overhead_recv_s = s.number(); }},
    {"copy_cost", nullptr, Kind::kNumber, &kNonNegative, nullptr, nullptr,
     [](const Setting& s) { s.setup.config.personality.copy_cost_s_per_byte = s.number(); }},
    {"workload_ranks", nullptr, Kind::kNumber, &kCount, nullptr,
     [](Workload& w, double x) { w.ranks = static_cast<int>(x); }, nullptr},
    {"workload_bytes", nullptr, Kind::kNumber, &kNatural, nullptr,
     [](Workload& w, double x) { for (auto& p : w.phases) p.bytes = {static_cast<long long>(x)}; },
     nullptr},
    {"workload_iterations", nullptr, Kind::kNumber, &kCount, nullptr,
     [](Workload& w, double x) { for (auto& p : w.phases) p.iterations = static_cast<int>(x); },
     nullptr},
    {"workload_imbalance", nullptr, Kind::kNumber, &kFraction, nullptr,
     [](Workload& w, double x) { for (auto& p : w.phases) p.compute.imbalance = x; }, nullptr},
    {"workload_seed", nullptr, Kind::kNumber, &kNatural, nullptr,
     [](Workload& w, double x) { w.seed = static_cast<std::uint64_t>(x); }, nullptr},
    {"fault_seed", nullptr, Kind::kNumber, &kNatural, &kRandomFaults, nullptr,
     [](const Setting& s) {
       s.setup.config.faults.random.seed = static_cast<std::uint64_t>(s.number());
     }},
    {"fault_time_scale", nullptr, Kind::kNumber, &kPositive, &kFaults, nullptr,
     [](const Setting& s) {
       sim::FaultSpec& faults = s.setup.config.faults;
       for (auto& event : faults.events) event.time *= s.number();
       faults.random.time_min *= s.number();
       faults.random.time_max *= s.number();
       faults.random.mttr *= s.number();
     }},
    {"fault_count_scale", nullptr, Kind::kNumber, &kNonNegative, &kRandomFaults, nullptr,
     [](const Setting& s) {
       auto& random = s.setup.config.faults.random;
       for (long long* count :
            {&random.host_crashes, &random.link_failures, &random.link_degradations}) {
         *count = std::llround(static_cast<double>(*count) * s.number());
       }
     }},
    {"noise_seed", nullptr, Kind::kNumber, &kNatural, &kNoise, nullptr, nullptr},
};

platform::Platform build_base(const CampaignSpec& spec, int nranks, int nodes_override) {
  switch (spec.base_kind) {
    case CampaignSpec::BaseKind::kFlat: {
      platform::FlatClusterParams params;
      params.nodes = nodes_override > 0 ? nodes_override
                     : spec.base_nodes > 0 ? spec.base_nodes
                                           : nranks;
      return platform::build_flat_cluster(params);
    }
    case CampaignSpec::BaseKind::kGriffon: return platform::build_griffon();
    case CampaignSpec::BaseKind::kGdx: return platform::build_gdx();
    case CampaignSpec::BaseKind::kXmlFile:
      return platform::load_platform_from_file(spec.platform_file);
  }
  SMPI_UNREACHABLE("bad base kind");
}

// The row of an axis key ("host_speed:node-0" -> host_speed), or nullptr.
const Param* param_of(const std::string& key) {
  const std::string name = key.substr(0, key.find(':'));
  for (const Param& param : kParams) {
    if (name == param.name) return &param;
  }
  return nullptr;
}

// Throws ContractError, naming the param, unless `v` is in its contract.
void check_value(const Param& param, const util::JsonValue& v) {
  const std::string where = "campaign axis '" + std::string(param.name) + "': ";
  switch (param.kind) {
    case Kind::kNumber: {
      SMPI_REQUIRE(v.is_number(), where + "values must be numbers");
      const Range& r = *param.range;
      const double x = v.as_number();
      const bool in_range = (x > r.min || (!r.min_open && x == r.min)) && x < r.max &&
                            (!r.integer || x == std::floor(x));
      SMPI_REQUIRE(in_range, where + "value " + v.dump() + " is not " + r.text);
      break;
    }
    case Kind::kBool:
      SMPI_REQUIRE(v.is_bool(), where + "values must be booleans");
      break;
    case Kind::kPlacement:
      SMPI_REQUIRE(v.is_string(), where + "values must be strings");
      placement_stride(v.as_string());
      break;
    case Kind::kVariant: {
      SMPI_REQUIRE(v.is_string(), where + "values must be strings");
      const auto names = coll::variant_names(std::string(param.name).substr(std::strlen("coll_")));
      std::string known = "auto";
      for (const std::string& name : names) known += ", " + name;
      SMPI_REQUIRE(v.as_string() == "auto" ||
                       std::find(names.begin(), names.end(), v.as_string()) != names.end(),
                   where + "unknown variant '" + v.as_string() + "' (one of: " + known + ")");
      break;
    }
  }
}

std::string value_text(const util::JsonValue& v) {
  switch (v.kind()) {
    case util::JsonValue::Kind::kBool: return v.as_bool() ? "true" : "false";
    case util::JsonValue::Kind::kString: return v.as_string();
    default: return v.dump();
  }
}

}  // namespace

const util::JsonValue* Scenario::find(const std::string& key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool CampaignSpec::sweeps_workload() const {
  for (const Axis& axis : axes) {
    if (param_of(axis.param)->workload != nullptr) return true;
  }
  return false;
}

CampaignSpec CampaignSpec::parse(const util::JsonValue& doc) {
  SMPI_REQUIRE(doc.is_object(), "campaign spec must be a JSON object");
  CampaignSpec spec;
  if (const auto* name = doc.find("name")) spec.name = name->as_string();
  if (const auto* trace = doc.find("trace")) spec.trace_dir = trace->as_string();
  if (const auto* workload = doc.find("workload")) {
    spec.workload = workload->is_string()
                        ? workload::WorkloadSpec::parse_file(workload->as_string())
                        : workload::WorkloadSpec::parse(*workload);
    spec.has_workload = true;
    SMPI_REQUIRE(spec.trace_dir.empty(),
                 "campaign spec: 'trace' and 'workload' are mutually exclusive");
  }
  if (const auto* faults = doc.find("faults")) {
    spec.faults = faults->is_string() ? sim::FaultSpec::parse_file(faults->as_string())
                                      : sim::FaultSpec::parse(*faults);
  }
  if (const auto* noise = doc.find("noise")) {
    spec.noise = noise->is_string() ? noise::NoiseSpec::parse_file(noise->as_string())
                                    : noise::NoiseSpec::parse(*noise);
  }
  if (const auto* replications = doc.find("replications")) {
    spec.replications = static_cast<int>(replications->as_int());
    SMPI_REQUIRE(spec.replications >= 1 && spec.replications <= 10000,
                 "campaign spec: replications must be in [1, 10000]");
    SMPI_REQUIRE(spec.replications == 1 || !spec.noise.empty(),
                 "campaign spec: replications > 1 needs a 'noise' spec (replicating a "
                 "deterministic scenario would measure nothing)");
  }
  if (const auto* timeout = doc.find("timeout_s")) {
    spec.timeout_s = timeout->as_number();
    SMPI_REQUIRE(std::isfinite(spec.timeout_s) && spec.timeout_s >= 0,
                 "campaign spec: timeout_s must be a finite number >= 0");
  }
  if (const auto* analysis = doc.find("analysis")) {
    spec.analysis = analysis->as_bool();
  }
  if (const auto* resources = doc.find("resources")) {
    spec.resources = resources->as_bool();
  }

  if (const auto* platform = doc.find("platform")) {
    const std::string kind = platform->at("kind", "campaign spec platform").as_string();
    if (kind == "flat") {
      spec.base_kind = BaseKind::kFlat;
      if (const auto* nodes = platform->find("nodes")) {
        spec.base_nodes = static_cast<int>(nodes->as_int());
        SMPI_REQUIRE(spec.base_nodes > 0, "campaign spec: platform.nodes must be > 0");
      }
    } else if (kind == "hierarchical-griffon") {
      spec.base_kind = BaseKind::kGriffon;
    } else if (kind == "hierarchical-gdx") {
      spec.base_kind = BaseKind::kGdx;
    } else if (kind == "xml") {
      spec.base_kind = BaseKind::kXmlFile;
      spec.platform_file = platform->at("file", "campaign spec platform").as_string();
    } else {
      SMPI_REQUIRE(false, "campaign spec: unknown platform.kind '" + kind + "'");
    }
  }

  if (const auto* axes = doc.find("axes")) {
    std::set<std::string> seen;
    for (const auto& entry : axes->items()) {
      Axis axis;
      axis.param = entry.at("param", "campaign axis").as_string();
      const Param* param = param_of(axis.param);
      SMPI_REQUIRE(param != nullptr && axis.param == param->name,
                   "campaign axis: unknown param '" + axis.param + "'");
      if (param->target_key != nullptr) {
        axis.target = entry.at(param->target_key, "campaign axis '" + axis.param + "'").as_string();
      } else {
        SMPI_REQUIRE(entry.find("host") == nullptr && entry.find("link") == nullptr,
                     "campaign axis '" + axis.param + "' does not take a host/link target");
      }
      SMPI_REQUIRE(param->need == nullptr || param->need->met(spec),
                   "campaign axis '" + axis.param + "' needs " + param->need->what);
      const auto& values = entry.at("values", "campaign axis '" + axis.param + "'").items();
      SMPI_REQUIRE(!values.empty(), "campaign axis '" + axis.param + "' has no values");
      for (const auto& v : values) {
        check_value(*param, v);
        axis.values.push_back(v);
      }
      SMPI_REQUIRE(seen.insert(axis.key()).second,
                   "campaign spec: duplicate axis '" + axis.key() + "'");
      spec.axes.push_back(std::move(axis));
    }
  }
  return spec;
}

CampaignSpec CampaignSpec::parse_file(const std::string& path) {
  return parse(util::parse_json_file(path));
}

std::vector<Scenario> enumerate_scenarios(const CampaignSpec& spec) {
  long long total = 1;
  for (const Axis& axis : spec.axes) {
    total *= static_cast<long long>(axis.values.size());
    SMPI_REQUIRE(total <= 100000, "campaign spec: more than 100000 scenarios");
  }

  std::vector<Scenario> scenarios;
  scenarios.reserve(static_cast<std::size_t>(total) + 1);
  Scenario baseline;
  baseline.id = 0;
  baseline.label = "baseline";
  scenarios.push_back(std::move(baseline));

  // Row-major cross-product: the last axis varies fastest.
  for (long long index = 0; index < total; ++index) {
    if (spec.axes.empty()) break;
    Scenario s;
    s.id = static_cast<int>(index) + 1;
    long long rest = index;
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      const Axis& axis = spec.axes[a];
      const auto pick = static_cast<std::size_t>(rest % static_cast<long long>(axis.values.size()));
      rest /= static_cast<long long>(axis.values.size());
      s.params.emplace_back(axis.key(), axis.values[pick]);
    }
    std::reverse(s.params.begin(), s.params.end());
    for (const auto& [key, value] : s.params) {
      if (!s.label.empty()) s.label += ' ';
      s.label += key + "=" + value_text(value);
    }
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

ScenarioSetup materialize(const CampaignSpec& spec, const Scenario& scenario, int nranks,
                          int replication) {
  SMPI_REQUIRE(replication >= 0, "replication index must be >= 0");
  // Topology first: every other override applies to the rebuilt platform.
  const util::JsonValue* nodes = scenario.find("topology_nodes");
  const int nodes_override = nodes != nullptr ? static_cast<int>(nodes->as_int()) : 0;
  ScenarioSetup setup{build_base(spec, nranks, nodes_override), {}, true};
  setup.config.faults = spec.faults;  // fault_* overrides below edit this copy

  for (const auto& [key, value] : scenario.params) {
    const Param* param = param_of(key);
    SMPI_REQUIRE(param != nullptr, "campaign scenario: unknown param '" + key + "'");
    int entity = -1;
    if (param->target_key != nullptr) {
      const std::string target = key.substr(key.find(':') + 1);
      const bool host = std::strcmp(param->target_key, "host") == 0;
      entity = host ? setup.platform.find_host(target) : setup.platform.find_link(target);
      SMPI_REQUIRE(entity >= 0, "campaign override on nonexistent " +
                                    std::string(param->target_key) + " '" + target + "'");
    }
    if (param->setup != nullptr) param->setup({setup, setup.platform, value, entity, nranks});
  }

  if (!spec.noise.empty()) {
    // Noise perturbs the scenario's platform as overridden above (the draws
    // are per-entity, so axis overrides and noise factors compose). The
    // replication index selects an independent sub-seed; a noise_seed axis
    // rebases the whole family.
    setup.config.noise = spec.noise;
    if (const auto* seed = scenario.find("noise_seed")) {
      setup.config.noise.seed = static_cast<std::uint64_t>(seed->as_int());
    }
    setup.config.noise.seed = noise::replication_seed(setup.config.noise.seed, replication);
    noise::apply_platform_noise(setup.platform, setup.config.noise);
  }
  return setup;
}

workload::WorkloadSpec apply_workload_overrides(const CampaignSpec& campaign,
                                                const Scenario& scenario) {
  workload::WorkloadSpec spec = campaign.workload;
  for (const auto& [key, value] : scenario.params) {
    const Param* param = param_of(key);
    if (param == nullptr || param->workload == nullptr) continue;
    SMPI_REQUIRE(campaign.has_workload,
                 "campaign axis '" + key + "' needs a workload trace source, not a capture");
    param->workload(spec, value.as_number());
  }
  // Contracts the parser enforced against the original rank count must
  // survive the override — an explicit grid that no longer tiles the ranks,
  // or a root/degree outside them, would generate an unreplayable trace.
  for (const auto& phase : spec.phases) {
    if (phase.px > 0) {
      const long long cells = static_cast<long long>(phase.px) * phase.py *
                              (phase.pz > 0 ? phase.pz : 1);
      SMPI_REQUIRE(cells == spec.ranks,
                   "workload_ranks: explicit process grid does not tile " +
                       std::to_string(spec.ranks) + " ranks");
    }
    SMPI_REQUIRE(phase.root < spec.ranks, "workload_ranks: phase root out of range");
    if (phase.pattern == workload::Pattern::kRandomSparse) {
      SMPI_REQUIRE(phase.degree < spec.ranks, "workload_ranks: degree must be < ranks");
    }
  }
  return spec;
}

}  // namespace smpi::campaign
