#include "platform/platform_xml.hpp"

#include <charconv>
#include <string_view>

#include "util/check.hpp"
#include "util/units.hpp"

namespace smpi::platform {
namespace {

LinkSharing parse_sharing(const std::string& text, int line) {
  if (text == "SHARED" || text == "shared") return LinkSharing::kShared;
  if (text == "FATPIPE" || text == "fatpipe") return LinkSharing::kFatpipe;
  throw XmlError("unknown link sharing policy '" + text + "'", line);
}

// The whole of `text` as a decimal int; false on anything else (empty,
// blanks, trailing characters, overflow).
bool parse_int(std::string_view text, int* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

int parse_cores(const XmlElement& el) {
  const std::string text = el.attribute_or("cores", "1");
  int cores = 0;
  if (!parse_int(text, &cores) || cores < 1) {
    throw XmlError("cores '" + text + "' of <" + el.name + "> is not a positive integer",
                   el.line);
  }
  return cores;
}

// <cluster>: one switch without uplinks, every host attached to it, so its
// routes are [up_src, down_dst] and hosts of other clusters are unreachable.
void expand_cluster(Platform& p, const XmlElement& el) {
  const std::string prefix = el.attribute_or("prefix", el.attribute("id") + "-");
  const std::string suffix = el.attribute_or("suffix", "");
  const std::string& radical = el.attribute("radical");
  std::vector<int> ids;
  try {
    ids = parse_radical(radical);
  } catch (const smpi::util::ContractError&) {
    throw XmlError("radical '" + radical +
                       "' is not a list of non-negative integers and ascending ranges",
                   el.line);
  }
  const double speed = smpi::util::parse_flops(el.attribute("speed"));
  const int cores = parse_cores(el);
  const double bw = smpi::util::parse_bandwidth(el.attribute("bw"));
  const double lat = smpi::util::parse_duration(el.attribute("lat"));

  const int sw = p.add_switch();
  for (int id : ids) {
    const std::string name = prefix + std::to_string(id) + suffix;
    const int host = p.add_host({name, speed, cores});
    const int up = p.add_link({"up-" + name, bw, lat, LinkSharing::kShared});
    const int down = p.add_link({"down-" + name, bw, lat, LinkSharing::kShared});
    p.attach_host(host, sw, up, down);
  }
}

}  // namespace

std::vector<int> parse_radical(const std::string& text) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    auto comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string_view chunk = std::string_view(text).substr(pos, comma - pos);
    SMPI_REQUIRE(!chunk.empty(), "empty radical chunk in '" + text + "'");
    const auto dash = chunk.find('-');
    const std::string_view first = chunk.substr(0, dash);
    const std::string_view last = dash == std::string_view::npos ? first : chunk.substr(dash + 1);
    int lo = 0;
    int hi = 0;
    const bool ok = parse_int(first, &lo) && parse_int(last, &hi);
    SMPI_REQUIRE(ok, "radical chunk '" + std::string(chunk) + "' in '" + text +
                         "' is not an integer or a range");
    SMPI_REQUIRE(lo <= hi, "descending radical range in '" + text + "'");
    for (int v = lo;; ++v) {  // stops at hi without overflowing past INT_MAX
      out.push_back(v);
      if (v == hi) break;
    }
    pos = comma + 1;
  }
  return out;
}

Platform load_platform(const XmlElement& root) {
  if (root.name != "platform") {
    throw XmlError("root element must be <platform>, got <" + root.name + ">", root.line);
  }
  Platform p;
  for (const auto& child : root.children) {
    const XmlElement& el = *child;
    if (el.name == "host") {
      HostSpec spec;
      spec.name = el.attribute("id");
      spec.speed_flops = smpi::util::parse_flops(el.attribute("speed"));
      spec.cores = parse_cores(el);
      p.add_host(std::move(spec));
    } else if (el.name == "link") {
      LinkSpec spec;
      spec.name = el.attribute("id");
      spec.bandwidth_bps = smpi::util::parse_bandwidth(el.attribute("bandwidth"));
      spec.latency_s = smpi::util::parse_duration(el.attribute("latency"));
      spec.sharing = parse_sharing(el.attribute_or("sharing", "SHARED"), el.line);
      p.add_link(std::move(spec));
    } else if (el.name == "route") {
      const int src = p.find_host(el.attribute("src"));
      const int dst = p.find_host(el.attribute("dst"));
      if (src < 0) throw XmlError("route src '" + el.attribute("src") + "' unknown", el.line);
      if (dst < 0) throw XmlError("route dst '" + el.attribute("dst") + "' unknown", el.line);
      const bool symmetric = el.attribute_or("symmetric", "YES") != "NO";
      std::vector<int> links;
      for (const auto* ctn : el.children_named("link_ctn")) {
        const int link = p.find_link(ctn->attribute("id"));
        if (link < 0) throw XmlError("link '" + ctn->attribute("id") + "' unknown", ctn->line);
        links.push_back(link);
      }
      if (links.empty()) throw XmlError("route needs at least one <link_ctn>", el.line);
      p.add_route(src, dst, std::move(links), symmetric);
    } else if (el.name == "cluster") {
      expand_cluster(p, el);
    } else {
      throw XmlError("unsupported element <" + el.name + ">", el.line);
    }
  }
  return p;
}

Platform load_platform_from_string(const std::string& document) {
  return load_platform(*parse_xml(document));
}

Platform load_platform_from_file(const std::string& path) {
  return load_platform(*parse_xml_file(path));
}

}  // namespace smpi::platform
