#include "campaign/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "platform/builders.hpp"
#include "platform/platform_xml.hpp"
#include "smpi/coll.h"
#include "util/check.hpp"

namespace smpi::campaign {

namespace {

// kVariant: a string naming "auto" or a row of the collective's variant
// table (smpi/coll.h), checked here so a misspelled algorithm fails the
// parse instead of every scenario that reaches the collective.
enum class ValueKind { kNumber, kString, kBool, kVariant };

struct ParamInfo {
  ValueKind kind;
  const char* target_key;  // "host", "link", or nullptr when untargeted
};

// The closed catalog of sweepable parameters; an unknown name is rejected at
// parse time so a typo cannot silently produce a no-op axis.
const std::pair<const char*, ParamInfo> kParams[] = {
    {"host_speed_scale", {ValueKind::kNumber, nullptr}},
    {"link_bandwidth_scale", {ValueKind::kNumber, nullptr}},
    {"link_latency_scale", {ValueKind::kNumber, nullptr}},
    {"host_speed", {ValueKind::kNumber, "host"}},
    {"link_bandwidth", {ValueKind::kNumber, "link"}},
    {"link_latency", {ValueKind::kNumber, "link"}},
    {"cpu_scale", {ValueKind::kNumber, nullptr}},
    {"topology_nodes", {ValueKind::kNumber, nullptr}},
    {"placement", {ValueKind::kString, nullptr}},
    {"coll_bcast", {ValueKind::kVariant, nullptr}},
    {"coll_alltoall", {ValueKind::kVariant, nullptr}},
    {"coll_allreduce", {ValueKind::kVariant, nullptr}},
    {"coll_allgather", {ValueKind::kVariant, nullptr}},
    {"payload_free", {ValueKind::kBool, nullptr}},
    {"eager_threshold", {ValueKind::kNumber, nullptr}},
    {"overhead_send", {ValueKind::kNumber, nullptr}},
    {"overhead_recv", {ValueKind::kNumber, nullptr}},
    {"copy_cost", {ValueKind::kNumber, nullptr}},
    {"workload_ranks", {ValueKind::kNumber, nullptr}},
    {"workload_bytes", {ValueKind::kNumber, nullptr}},
    {"workload_iterations", {ValueKind::kNumber, nullptr}},
    {"workload_imbalance", {ValueKind::kNumber, nullptr}},
    {"workload_seed", {ValueKind::kNumber, nullptr}},
    {"fault_seed", {ValueKind::kNumber, nullptr}},
    {"fault_time_scale", {ValueKind::kNumber, nullptr}},
    {"fault_count_scale", {ValueKind::kNumber, nullptr}},
    {"noise_seed", {ValueKind::kNumber, nullptr}},
};

bool is_workload_param(const std::string& param) {
  return param.rfind("workload_", 0) == 0;
}

const ParamInfo* param_info(const std::string& name) {
  for (const auto& [param, info] : kParams) {
    if (name == param) return &info;
  }
  return nullptr;
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
    if (is_workload_param(axis.param)) return true;
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
      const ParamInfo* info = param_info(axis.param);
      SMPI_REQUIRE(info != nullptr, "campaign axis: unknown param '" + axis.param + "'");
      if (info->target_key != nullptr) {
        axis.target = entry.at(info->target_key, "campaign axis '" + axis.param + "'").as_string();
      } else {
        SMPI_REQUIRE(entry.find("host") == nullptr && entry.find("link") == nullptr,
                     "campaign axis '" + axis.param + "' does not take a host/link target");
      }
      const auto& values = entry.at("values", "campaign axis '" + axis.param + "'").items();
      SMPI_REQUIRE(!values.empty(), "campaign axis '" + axis.param + "' has no values");
      for (const auto& v : values) {
        switch (info->kind) {
          case ValueKind::kNumber:
            SMPI_REQUIRE(v.is_number(),
                         "campaign axis '" + axis.param + "': values must be numbers");
            break;
          case ValueKind::kString:
            SMPI_REQUIRE(v.is_string(),
                         "campaign axis '" + axis.param + "': values must be strings");
            break;
          case ValueKind::kBool:
            SMPI_REQUIRE(v.is_bool(),
                         "campaign axis '" + axis.param + "': values must be booleans");
            break;
          case ValueKind::kVariant: {
            SMPI_REQUIRE(v.is_string(),
                         "campaign axis '" + axis.param + "': values must be strings");
            const auto names = coll::variant_names(axis.param.substr(std::strlen("coll_")));
            std::string known = "auto";
            for (const std::string& name : names) known += ", " + name;
            SMPI_REQUIRE(v.as_string() == "auto" ||
                             std::find(names.begin(), names.end(), v.as_string()) != names.end(),
                         "campaign axis '" + axis.param + "': unknown variant '" + v.as_string() +
                             "' (one of: " + known + ")");
            break;
          }
        }
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

namespace {

platform::Platform build_base(const CampaignSpec& spec, int nranks, int nodes_override) {
  switch (spec.base_kind) {
    case CampaignSpec::BaseKind::kFlat: {
      platform::FlatClusterParams params;
      params.nodes = nodes_override > 0 ? nodes_override
                     : spec.base_nodes > 0 ? spec.base_nodes
                                           : nranks;
      return platform::build_flat_cluster(params);
    }
    case CampaignSpec::BaseKind::kGriffon:
      SMPI_REQUIRE(nodes_override == 0, "topology_nodes applies to the flat base platform only");
      return platform::build_griffon();
    case CampaignSpec::BaseKind::kGdx:
      SMPI_REQUIRE(nodes_override == 0, "topology_nodes applies to the flat base platform only");
      return platform::build_gdx();
    case CampaignSpec::BaseKind::kXmlFile:
      SMPI_REQUIRE(nodes_override == 0, "topology_nodes applies to the flat base platform only");
      return platform::load_platform_from_file(spec.platform_file);
  }
  SMPI_UNREACHABLE("bad base kind");
}

std::vector<int> build_placement(const std::string& policy, int nranks, int hosts) {
  std::vector<int> placement(static_cast<std::size_t>(nranks));
  if (policy == "round_robin") {
    for (int r = 0; r < nranks; ++r) placement[static_cast<std::size_t>(r)] = r % hosts;
  } else if (policy == "block") {
    // Contiguous blocks of ranks per host (the "fill each node first"
    // mapping MPI launchers call by-node vs by-slot).
    for (int r = 0; r < nranks; ++r) {
      placement[static_cast<std::size_t>(r)] =
          static_cast<int>((static_cast<long long>(r) * hosts) / nranks);
    }
  } else if (policy.rfind("stride:", 0) == 0) {
    const int stride = std::stoi(policy.substr(7));
    SMPI_REQUIRE(stride >= 1, "placement stride must be >= 1");
    for (int r = 0; r < nranks; ++r) {
      placement[static_cast<std::size_t>(r)] = static_cast<int>(
          (static_cast<long long>(r) * stride) % hosts);
    }
  } else {
    SMPI_REQUIRE(false, "unknown placement policy '" + policy + "'");
  }
  return placement;
}

}  // namespace

ScenarioSetup materialize(const CampaignSpec& spec, const Scenario& scenario, int nranks,
                          int replication) {
  SMPI_REQUIRE(replication >= 0, "replication index must be >= 0");
  // Topology first: every other override applies to the rebuilt platform.
  int nodes_override = 0;
  if (const auto* nodes = scenario.find("topology_nodes")) {
    nodes_override = static_cast<int>(nodes->as_int());
    SMPI_REQUIRE(nodes_override > 0, "topology_nodes must be > 0");
  }

  ScenarioSetup setup{build_base(spec, nranks, nodes_override), {}, true};
  platform::Platform& p = setup.platform;
  core::SmpiConfig& config = setup.config;
  config.faults = spec.faults;  // fault_* overrides below edit this copy

  for (const auto& [key, value] : scenario.params) {
    const std::string param = key.substr(0, key.find(':'));
    const std::string target = key.find(':') == std::string::npos
                                   ? std::string()
                                   : key.substr(key.find(':') + 1);
    if (param == "topology_nodes") {
      continue;  // applied above
    } else if (param == "host_speed_scale") {
      for (int h = 0; h < p.host_count(); ++h) {
        p.set_host_speed(h, p.host(h).speed_flops * value.as_number());
      }
    } else if (param == "link_bandwidth_scale") {
      for (int l = 0; l < p.link_count(); ++l) {
        p.set_link_bandwidth(l, p.link(l).bandwidth_bps * value.as_number());
      }
    } else if (param == "link_latency_scale") {
      for (int l = 0; l < p.link_count(); ++l) {
        p.set_link_latency(l, p.link(l).latency_s * value.as_number());
      }
    } else if (param == "host_speed") {
      const int host = p.find_host(target);
      SMPI_REQUIRE(host >= 0, "campaign override on nonexistent host '" + target + "'");
      p.set_host_speed(host, value.as_number());
    } else if (param == "link_bandwidth") {
      const int link = p.find_link(target);
      SMPI_REQUIRE(link >= 0, "campaign override on nonexistent link '" + target + "'");
      p.set_link_bandwidth(link, value.as_number());
    } else if (param == "link_latency") {
      const int link = p.find_link(target);
      SMPI_REQUIRE(link >= 0, "campaign override on nonexistent link '" + target + "'");
      p.set_link_latency(link, value.as_number());
    } else if (param == "cpu_scale") {
      config.cpu_scale = value.as_number();
      SMPI_REQUIRE(config.cpu_scale > 0, "cpu_scale must be > 0");
    } else if (param == "placement") {
      config.placement = build_placement(value.as_string(), nranks, p.host_count());
    } else if (param == "coll_bcast") {
      config.coll.bcast = value.as_string();
    } else if (param == "coll_alltoall") {
      config.coll.alltoall = value.as_string();
    } else if (param == "coll_allreduce") {
      config.coll.allreduce = value.as_string();
    } else if (param == "coll_allgather") {
      config.coll.allgather = value.as_string();
    } else if (param == "payload_free") {
      setup.payload_free = value.as_bool();
    } else if (param == "eager_threshold") {
      const double threshold = value.as_number();
      SMPI_REQUIRE(threshold >= 0, "eager_threshold must be >= 0");
      config.personality.eager_threshold = static_cast<std::uint64_t>(threshold);
    } else if (param == "overhead_send") {
      const double overhead = value.as_number();
      SMPI_REQUIRE(overhead >= 0, "overhead_send must be >= 0");
      config.personality.overhead_send_s = overhead;
    } else if (param == "overhead_recv") {
      const double overhead = value.as_number();
      SMPI_REQUIRE(overhead >= 0, "overhead_recv must be >= 0");
      config.personality.overhead_recv_s = overhead;
    } else if (param == "copy_cost") {
      const double cost = value.as_number();
      SMPI_REQUIRE(cost >= 0, "copy_cost must be >= 0");
      config.personality.copy_cost_s_per_byte = cost;
    } else if (param == "fault_seed") {
      SMPI_REQUIRE(config.faults.has_random,
                   "fault_seed needs a campaign-level 'faults' spec with a 'random' block");
      SMPI_REQUIRE(value.as_int() >= 0, "fault_seed must be >= 0");
      config.faults.random.seed = static_cast<std::uint64_t>(value.as_int());
    } else if (param == "fault_time_scale") {
      const double scale = value.as_number();
      SMPI_REQUIRE(scale > 0, "fault_time_scale must be > 0");
      SMPI_REQUIRE(!config.faults.empty(),
                   "fault_time_scale needs a campaign-level 'faults' spec");
      for (auto& event : config.faults.events) event.time *= scale;
      config.faults.random.time_min *= scale;
      config.faults.random.time_max *= scale;
      config.faults.random.mttr *= scale;
    } else if (param == "noise_seed") {
      SMPI_REQUIRE(!spec.noise.empty(),
                   "noise_seed needs a campaign-level 'noise' spec");
      SMPI_REQUIRE(value.as_int() >= 0, "noise_seed must be >= 0");
      // Applied in the noise block after the loop.
    } else if (param == "fault_count_scale") {
      const double scale = value.as_number();
      SMPI_REQUIRE(scale >= 0, "fault_count_scale must be >= 0");
      SMPI_REQUIRE(config.faults.has_random,
                   "fault_count_scale needs a campaign-level 'faults' spec with a 'random' block");
      auto& random = config.faults.random;
      random.host_crashes = std::llround(static_cast<double>(random.host_crashes) * scale);
      random.link_failures = std::llround(static_cast<double>(random.link_failures) * scale);
      random.link_degradations =
          std::llround(static_cast<double>(random.link_degradations) * scale);
    } else if (is_workload_param(param)) {
      // Applied by the runner when it regenerates the trace; nothing to do
      // on the platform/config side.
      continue;
    } else {
      SMPI_REQUIRE(false, "campaign scenario: unknown param '" + param + "'");
    }
  }

  if (!spec.noise.empty()) {
    // Noise perturbs the scenario's platform as overridden above (the draws
    // are per-entity, so axis overrides and noise factors compose). The
    // replication index selects an independent sub-seed; a noise_seed axis
    // rebases the whole family.
    config.noise = spec.noise;
    if (const auto* seed = scenario.find("noise_seed")) {
      config.noise.seed = static_cast<std::uint64_t>(seed->as_int());
    }
    config.noise.seed = noise::replication_seed(config.noise.seed, replication);
    noise::apply_platform_noise(p, config.noise);
  }
  return setup;
}

bool has_workload_override(const Scenario& scenario) {
  for (const auto& [key, value] : scenario.params) {
    if (is_workload_param(key)) return true;
  }
  return false;
}

workload::WorkloadSpec apply_workload_overrides(const workload::WorkloadSpec& base,
                                                const Scenario& scenario) {
  workload::WorkloadSpec spec = base;
  for (const auto& [key, value] : scenario.params) {
    if (key == "workload_ranks") {
      spec.ranks = static_cast<int>(value.as_int());
      SMPI_REQUIRE(spec.ranks > 0, "workload_ranks must be > 0");
    } else if (key == "workload_seed") {
      SMPI_REQUIRE(value.as_int() >= 0, "workload_seed must be >= 0");
      spec.seed = static_cast<std::uint64_t>(value.as_int());
    } else if (key == "workload_bytes") {
      const long long bytes = value.as_int();
      SMPI_REQUIRE(bytes >= 0, "workload_bytes must be >= 0");
      for (auto& phase : spec.phases) phase.bytes = {bytes};
    } else if (key == "workload_iterations") {
      const int iterations = static_cast<int>(value.as_int());
      SMPI_REQUIRE(iterations >= 1, "workload_iterations must be >= 1");
      for (auto& phase : spec.phases) phase.iterations = iterations;
    } else if (key == "workload_imbalance") {
      const double imbalance = value.as_number();
      SMPI_REQUIRE(imbalance >= 0 && imbalance < 1, "workload_imbalance must be in [0, 1)");
      for (auto& phase : spec.phases) phase.compute.imbalance = imbalance;
    }
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
