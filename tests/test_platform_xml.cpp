#include "platform/platform_xml.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "platform/xml.hpp"
#include "util/check.hpp"

namespace sp = smpi::platform;

TEST(Xml, ParsesElementsAttributesAndText) {
  auto root = sp::parse_xml(R"(<?xml version="1.0"?>
<!-- a comment -->
<root version="4">
  <child name="a" value='1'/>
  <child name="b">text &amp; more</child>
</root>)");
  EXPECT_EQ(root->name, "root");
  EXPECT_EQ(root->attribute("version"), "4");
  const auto children = root->children_named("child");
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->attribute("name"), "a");
  EXPECT_EQ(children[1]->text, "text & more");
}

TEST(Xml, EntitiesDecode) {
  auto root = sp::parse_xml(R"(<r a="&lt;x&gt;&quot;&apos;"/>)");
  EXPECT_EQ(root->attribute("a"), "<x>\"'");
}

TEST(Xml, NestedElements) {
  auto root = sp::parse_xml("<a><b><c deep=\"yes\"/></b></a>");
  ASSERT_EQ(root->children.size(), 1u);
  ASSERT_EQ(root->children[0]->children.size(), 1u);
  EXPECT_EQ(root->children[0]->children[0]->attribute("deep"), "yes");
}

TEST(Xml, DoctypeAndProcessingInstructionsSkipped) {
  auto root = sp::parse_xml("<?xml version=\"1.0\"?><!DOCTYPE platform SYSTEM "
                            "\"http://example.org/simgrid.dtd\"><p/>");
  EXPECT_EQ(root->name, "p");
}

TEST(Xml, ErrorsCarryLineNumbers) {
  try {
    sp::parse_xml("<a>\n<b>\n</c>\n</a>");
    FAIL() << "expected XmlError";
  } catch (const sp::XmlError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(Xml, RejectsTrailingContent) { EXPECT_THROW(sp::parse_xml("<a/><b/>"), sp::XmlError); }

TEST(Xml, RejectsMissingAttributeOnAccess) {
  auto root = sp::parse_xml("<a/>");
  EXPECT_THROW(root->attribute("nope"), sp::XmlError);
  EXPECT_EQ(root->attribute_or("nope", "dflt"), "dflt");
}

TEST(Radical, ParsesRangesAndLists) {
  EXPECT_EQ(sp::parse_radical("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sp::parse_radical("5"), (std::vector<int>{5}));
  EXPECT_EQ(sp::parse_radical("0-1,4,7-8"), (std::vector<int>{0, 1, 4, 7, 8}));
  EXPECT_THROW(sp::parse_radical("5-2"), smpi::util::ContractError);
}

TEST(Radical, RejectsAnythingButWholeIntegers) {
  for (const char* text : {"0-3x", "0-x", "-5", "x", "5x", "0-", "1,,2", " 1", "1 ", "+1",
                           "0-99999999999"}) {
    EXPECT_THROW(sp::parse_radical(text), smpi::util::ContractError) << text;
  }
}

// Accept/reject table for the integer attributes of <cluster> and <host>:
// each must be a whole decimal token, and a bad one is reported as an
// XmlError at the element's line (never as a stray std::invalid_argument).
TEST(PlatformXml, IntegerAttributesAreWholeTokens) {
  const auto cluster = [](const std::string& cores, const std::string& radical) {
    return R"(<cluster id="c" radical=")" + radical + R"(" speed="1Gf" cores=")" + cores +
           R"(" bw="1Gbps" lat="50us"/>)";
  };
  const auto host = [](const std::string& cores) {
    return R"(<host id="h" speed="1Gf" cores=")" + cores + R"("/>)";
  };
  const std::pair<std::string, bool> cases[] = {
      {cluster("2", "0-3"), true},      {cluster("2", "0-1,4,7-8"), true},
      {cluster("2", "5"), true},        {host("8"), true},
      {cluster("8x", "0-3"), false},    {cluster("abc", "0-3"), false},
      {cluster("", "0-3"), false},      {cluster(" 8", "0-3"), false},
      {cluster("0", "0-3"), false},     {cluster("-1", "0-3"), false},
      {cluster("2", "0-3x"), false},    {cluster("2", "0-x"), false},
      {cluster("2", "-5"), false},      {cluster("2", "5-2"), false},
      {cluster("2", "1,,2"), false},    {host("8x"), false},
      {host("abc"), false},             {host("99999999999"), false},
  };
  for (const auto& [element, accepted] : cases) {
    const std::string doc = "<platform version=\"4\">\n" + element + "\n</platform>";
    if (accepted) {
      EXPECT_NO_THROW(sp::load_platform_from_string(doc)) << doc;
      continue;
    }
    try {
      sp::load_platform_from_string(doc);
      ADD_FAILURE() << "accepted: " << doc;
    } catch (const sp::XmlError& e) {
      EXPECT_EQ(e.line(), 2) << doc;
    }
  }
}

namespace {
constexpr const char* kPlatformDoc = R"(<?xml version="1.0"?>
<platform version="4">
  <host id="n0" speed="1Gf" cores="4"/>
  <host id="n1" speed="2Gf"/>
  <link id="l0" bandwidth="1Gbps" latency="50us"/>
  <link id="bb" bandwidth="10Gbps" latency="20us" sharing="FATPIPE"/>
  <route src="n0" dst="n1">
    <link_ctn id="l0"/>
    <link_ctn id="bb"/>
  </route>
</platform>)";
}  // namespace

TEST(PlatformXml, LoadsHostsLinksRoutes) {
  auto p = sp::load_platform_from_string(kPlatformDoc);
  EXPECT_EQ(p.host_count(), 2);
  EXPECT_EQ(p.link_count(), 2);
  EXPECT_DOUBLE_EQ(p.host(p.find_host("n0")).speed_flops, 1e9);
  EXPECT_EQ(p.host(p.find_host("n0")).cores, 4);
  EXPECT_EQ(p.host(p.find_host("n1")).cores, 1);  // default
  EXPECT_DOUBLE_EQ(p.link(p.find_link("l0")).bandwidth_bps, 125e6);
  EXPECT_EQ(p.link(p.find_link("bb")).sharing, sp::LinkSharing::kFatpipe);
  ASSERT_TRUE(p.has_route(0, 1));
  EXPECT_EQ(p.route(0, 1).size(), 2u);
  // symmetric by default, reversed order
  EXPECT_EQ(p.route(1, 0).front(), p.find_link("bb"));
}

TEST(PlatformXml, ClusterElementExpands) {
  auto p = sp::load_platform_from_string(R"(<platform version="4">
    <cluster id="c" prefix="node-" radical="0-7" speed="1Gf" cores="2"
             bw="1Gbps" lat="50us"/>
  </platform>)");
  EXPECT_EQ(p.host_count(), 8);
  EXPECT_NE(p.find_host("node-0"), -1);
  EXPECT_NE(p.find_host("node-7"), -1);
  EXPECT_TRUE(p.has_route(0, 7));
  EXPECT_EQ(p.route_hop_count(0, 7), 1);
}

TEST(PlatformXml, ClusterRoutesMatchTheSwitchFormula) {
  auto p = sp::load_platform_from_string(R"(<platform version="4">
    <cluster id="c" prefix="node-" suffix=".x" radical="0-2,5" speed="1Gf" bw="1Gbps"
             lat="50us"/>
  </platform>)");
  ASSERT_EQ(p.host_count(), 4);
  for (int i = 0; i < p.host_count(); ++i) {
    for (int j = 0; j < p.host_count(); ++j) {
      const std::vector<int> expected =
          i == j ? std::vector<int>{}
                 : std::vector<int>{p.find_link("up-" + p.host(i).name),
                                    p.find_link("down-" + p.host(j).name)};
      EXPECT_EQ(p.route(i, j), expected) << i << "->" << j;
    }
  }
  EXPECT_EQ(p.host(3).name, "node-5.x");
}

TEST(PlatformXml, ExplicitRouteWinsAndSeparateClustersStayApart) {
  auto p = sp::load_platform_from_string(R"(<platform version="4">
    <cluster id="a" prefix="a-" radical="0-2" speed="1Gf" bw="1Gbps" lat="50us"/>
    <cluster id="b" prefix="b-" radical="0-1" speed="1Gf" bw="1Gbps" lat="50us"/>
    <link id="bypass" bandwidth="10Gbps" latency="1us"/>
    <route src="a-0" dst="a-2"><link_ctn id="bypass"/></route>
  </platform>)");
  const int a0 = p.find_host("a-0");
  const int a1 = p.find_host("a-1");
  const int a2 = p.find_host("a-2");
  const int b0 = p.find_host("b-0");
  const int b1 = p.find_host("b-1");
  const int bypass = p.find_link("bypass");
  // Symmetric by default: both directions take the explicit route.
  EXPECT_EQ(p.route(a0, a2), (std::vector<int>{bypass}));
  EXPECT_EQ(p.route(a2, a0), (std::vector<int>{bypass}));
  EXPECT_EQ(p.route(a0, a1), (std::vector<int>{p.find_link("up-a-0"), p.find_link("down-a-1")}));
  EXPECT_TRUE(p.has_route(b0, b1));
  EXPECT_FALSE(p.has_route(a0, b0));
  EXPECT_FALSE(p.has_route(b1, a2));
  EXPECT_THROW(p.route(a0, b0), smpi::util::ContractError);
}

TEST(PlatformXml, UnknownRouteEndpointFails) {
  EXPECT_THROW(sp::load_platform_from_string(R"(<platform version="4">
    <host id="n0" speed="1Gf"/>
    <link id="l0" bandwidth="1Gbps" latency="50us"/>
    <route src="n0" dst="ghost"><link_ctn id="l0"/></route>
  </platform>)"),
               sp::XmlError);
}

TEST(PlatformXml, RouteWithoutLinksFails) {
  EXPECT_THROW(sp::load_platform_from_string(R"(<platform version="4">
    <host id="n0" speed="1Gf"/>
    <host id="n1" speed="1Gf"/>
    <route src="n0" dst="n1"/>
  </platform>)"),
               sp::XmlError);
}

TEST(PlatformXml, UnsupportedElementFails) {
  EXPECT_THROW(sp::load_platform_from_string("<platform><flux capacitor=\"1\"/></platform>"),
               sp::XmlError);
}

TEST(PlatformXml, NonPlatformRootFails) {
  EXPECT_THROW(sp::load_platform_from_string("<cluster/>"), sp::XmlError);
}
