// Loading a Platform from a SimGrid-DTD-like XML specification (§6):
//
//   <platform version="4">
//     <host id="node-0" speed="10Gf" cores="8"/>
//     <link id="l0" bandwidth="125MBps" latency="50us" sharing="SHARED"/>
//     <route src="node-0" dst="node-1" symmetric="YES">
//       <link_ctn id="l0"/>
//     </route>
//     <cluster id="c" prefix="node-" radical="0-15" speed="10Gf" cores="8"
//              bw="125MBps" lat="50us"/>
//   </platform>
//
// <cluster> expands to a flat cluster: one non-blocking switch with every
// host attached, so routes within it are computed, not stored. A <route>
// between two of its hosts overrides the computed route; hosts of separate
// <cluster>s have no route unless a <route> gives one. Integer attributes
// (cores, radical bounds) must be whole decimal tokens, else XmlError.
#pragma once

#include <string>

#include "platform/platform.hpp"
#include "platform/xml.hpp"

namespace smpi::platform {

Platform load_platform(const XmlElement& root);
Platform load_platform_from_string(const std::string& document);
Platform load_platform_from_file(const std::string& path);

// "0-15" or "0-3,8-11,40" -> {0..15} etc. Throws ContractError unless every
// comma-separated chunk is a non-negative integer or an ascending range.
// Exposed for tests.
std::vector<int> parse_radical(const std::string& text);

}  // namespace smpi::platform
