#include "workload/spec.hpp"

#include <limits>

#include "util/check.hpp"

namespace smpi::workload {

namespace {

constexpr double kMaxFlops = std::numeric_limits<double>::max() / 4;

const std::pair<const char*, Pattern> kPatterns[] = {
    {"stencil2d", Pattern::kStencil2d},   {"stencil3d", Pattern::kStencil3d},
    {"ring", Pattern::kRing},             {"alltoall", Pattern::kAlltoall},
    {"reduce_bcast", Pattern::kReduceBcast}, {"wavefront", Pattern::kWavefront},
    {"random_sparse", Pattern::kRandomSparse},
};

int parse_positive_int(const util::JsonValue& v, const char* what) {
  const long long value = v.as_int();
  SMPI_REQUIRE(value > 0, std::string("workload spec: ") + what + " must be > 0");
  SMPI_REQUIRE(value <= 1 << 24, std::string("workload spec: ") + what + " is implausibly large");
  return static_cast<int>(value);
}

std::vector<long long> parse_bytes(const util::JsonValue& v) {
  std::vector<long long> bytes;
  if (v.is_array()) {
    for (const auto& item : v.items()) bytes.push_back(item.as_int());
  } else {
    bytes.push_back(v.as_int());
  }
  SMPI_REQUIRE(!bytes.empty(), "workload spec: bytes schedule is empty");
  for (long long b : bytes) {
    SMPI_REQUIRE(b >= 0, "workload spec: bytes must be >= 0");
  }
  return bytes;
}

double parse_halfwidth(const util::JsonValue& v, const char* what) {
  const double value = v.as_number();
  SMPI_REQUIRE(value >= 0 && value < 1,
               std::string("workload spec: compute.") + what + " must be in [0, 1)");
  return value;
}

PhaseSpec parse_phase(const util::JsonValue& doc, int ranks, std::size_t index) {
  const std::string context = "workload phase " + std::to_string(index);
  SMPI_REQUIRE(doc.is_object(), context + " must be a JSON object");
  PhaseSpec phase;
  const std::string pattern = doc.at("pattern", context).as_string();
  SMPI_REQUIRE(pattern_from_name(pattern, &phase.pattern),
               context + ": unknown pattern '" + pattern + "'");

  if (const auto* iterations = doc.find("iterations")) {
    phase.iterations = parse_positive_int(*iterations, "iterations");
  }
  if (const auto* bytes = doc.find("bytes")) phase.bytes = parse_bytes(*bytes);
  if (const auto* compute = doc.find("compute")) {
    SMPI_REQUIRE(compute->is_object(), context + ": compute must be an object");
    if (const auto* flops = compute->find("flops")) {
      // Imbalance and jitter each scale a draw by less than 2, so a quarter
      // of the largest double is the most that stays finite after both
      // (the trace reader refuses a non-finite compute record).
      phase.compute.flops = flops->as_number();
      SMPI_REQUIRE(phase.compute.flops >= 0 && phase.compute.flops <= kMaxFlops,
                   context + ": compute.flops must be in [0, DBL_MAX / 4 ~ 4.49e307]");
    }
    if (const auto* imbalance = compute->find("imbalance")) {
      phase.compute.imbalance = parse_halfwidth(*imbalance, "imbalance");
    }
    if (const auto* jitter = compute->find("jitter")) {
      phase.compute.jitter = parse_halfwidth(*jitter, "jitter");
    }
  }
  if (const auto* px = doc.find("px")) phase.px = parse_positive_int(*px, "px");
  if (const auto* py = doc.find("py")) phase.py = parse_positive_int(*py, "py");
  if (const auto* pz = doc.find("pz")) phase.pz = parse_positive_int(*pz, "pz");
  if (const auto* periodic = doc.find("periodic")) phase.periodic = periodic->as_bool();
  if (const auto* root = doc.find("root")) {
    phase.root = static_cast<int>(root->as_int());
    SMPI_REQUIRE(phase.root >= 0 && phase.root < ranks, context + ": root out of range");
  }
  if (const auto* commutative = doc.find("commutative")) {
    phase.commutative = commutative->as_bool();
  }
  if (const auto* degree = doc.find("degree")) {
    phase.degree = static_cast<int>(degree->as_int());
    SMPI_REQUIRE(phase.degree >= 0, context + ": degree must be >= 0");
  }

  // Grid contract: give the full grid or none of it, and it must tile the
  // rank count exactly — a silently truncated grid would drop ranks.
  const bool wants_grid = phase.pattern == Pattern::kStencil2d ||
                          phase.pattern == Pattern::kStencil3d ||
                          phase.pattern == Pattern::kWavefront;
  const bool is_3d = phase.pattern == Pattern::kStencil3d;
  if (wants_grid) {
    const bool any = phase.px > 0 || phase.py > 0 || phase.pz > 0;
    if (any) {
      SMPI_REQUIRE(phase.px > 0 && phase.py > 0 && (!is_3d || phase.pz > 0),
                   context + ": give the whole process grid (px, py" +
                       (is_3d ? ", pz" : "") + ") or none of it");
      SMPI_REQUIRE(!is_3d || phase.pz > 0, context + ": stencil3d needs pz");
      const long long cells = static_cast<long long>(phase.px) * phase.py *
                              (is_3d ? phase.pz : 1);
      SMPI_REQUIRE(cells == ranks, context + ": process grid does not tile " +
                                       std::to_string(ranks) + " ranks");
    }
  } else {
    SMPI_REQUIRE(phase.px == 0 && phase.py == 0 && phase.pz == 0,
                 context + ": pattern '" + pattern + "' does not take a process grid");
  }
  if (phase.pattern == Pattern::kRandomSparse) {
    SMPI_REQUIRE(phase.degree < ranks, context + ": degree must be < ranks");
  }
  return phase;
}

}  // namespace

const char* pattern_name(Pattern pattern) {
  for (const auto& [name, p] : kPatterns) {
    if (p == pattern) return name;
  }
  SMPI_UNREACHABLE("bad workload pattern");
}

bool pattern_from_name(const std::string& name, Pattern* out) {
  for (const auto& [candidate, p] : kPatterns) {
    if (name == candidate) {
      *out = p;
      return true;
    }
  }
  return false;
}

const std::vector<std::string>& pattern_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& [name, p] : kPatterns) out.emplace_back(name);
    return out;
  }();
  return names;
}

WorkloadSpec WorkloadSpec::parse(const util::JsonValue& doc) {
  SMPI_REQUIRE(doc.is_object(), "workload spec must be a JSON object");
  WorkloadSpec spec;
  if (const auto* name = doc.find("name")) spec.name = name->as_string();
  spec.ranks = parse_positive_int(doc.at("ranks", "workload spec"), "ranks");
  if (const auto* seed = doc.find("seed")) {
    spec.seed = static_cast<std::uint64_t>(seed->as_int());
  }

  if (const auto* phases = doc.find("phases")) {
    SMPI_REQUIRE(phases->is_array(), "workload spec: phases must be an array");
    SMPI_REQUIRE(!phases->items().empty(), "workload spec: phases is empty");
    for (std::size_t i = 0; i < phases->items().size(); ++i) {
      spec.phases.push_back(parse_phase(phases->items()[i], spec.ranks, i));
    }
  } else {
    // One-pattern shorthand: the top-level object is the single phase.
    spec.phases.push_back(parse_phase(doc, spec.ranks, 0));
  }
  return spec;
}

WorkloadSpec WorkloadSpec::parse_file(const std::string& path) {
  return parse(util::parse_json_file(path));
}

}  // namespace smpi::workload
