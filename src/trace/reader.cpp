#include "trace/reader.hpp"

#include <fstream>
#include <string_view>

#include "util/check.hpp"

namespace smpi::trace {

namespace {

// Reads the whole file at `path` into `*text`, reusing its capacity.
// Returns false when the file cannot be opened.
bool read_file(const std::string& path, std::string* text) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  text->clear();
  for (;;) {
    const std::size_t size = text->size();
    text->resize(size + kChunk);
    const auto got = static_cast<std::size_t>(in.rdbuf()->sgetn(text->data() + size, kChunk));
    text->resize(size + got);
    if (got < kChunk) return true;
  }
}

}  // namespace

TiTrace load_ti_trace(const std::string& dir, bool validate) {
  TiTrace trace;
  {
    std::ifstream manifest(dir + "/manifest.txt");
    SMPI_REQUIRE(manifest.good(), "trace manifest not found: " + dir + "/manifest.txt");
    std::string magic;
    int version = 0;
    manifest >> magic >> version;
    SMPI_REQUIRE(magic == "smpi-ti" && version == 1, "unsupported trace format");
    std::string key;
    while (manifest >> key) {
      if (key == "ranks") {
        manifest >> trace.nranks;
      } else if (key == "app") {
        manifest >> trace.app;
      } else {
        std::string ignored;
        std::getline(manifest, ignored);
      }
    }
    SMPI_REQUIRE(trace.nranks > 0, "trace manifest has no ranks");
  }

  // One rank vector is appended per rank file opened, so a manifest that
  // declares more ranks than there are files fails on the first missing
  // file instead of sizing a table from an unchecked count.
  std::string text;
  for (int rank = 0; rank < trace.nranks; ++rank) {
    const std::string path = dir + "/rank_" + std::to_string(rank) + ".ti";
    SMPI_REQUIRE(read_file(path, &text),
                 "trace file missing for rank " + std::to_string(rank) + ": " + path +
                     " (manifest declares " + std::to_string(trace.nranks) + " ranks)");
    TiRecords& records = trace.ranks.emplace_back();
    TiRecord scratch;
    long long line_no = 0;
    long long last_record_line = 0;
    for (std::size_t begin = 0; begin < text.size();) {
      std::size_t end = text.find('\n', begin);
      if (end == std::string::npos) end = text.size();
      const std::string_view line(text.data() + begin, end - begin);
      begin = end + 1;
      ++line_no;
      if (line.empty() || line == "\r" || line[0] == '#') continue;
      SMPI_REQUIRE(parse_record(line, &scratch),
                   "malformed trace record at " + path + ":" + std::to_string(line_no) + ": " +
                       std::string(line));
      records.push_back(scratch);
      last_record_line = line_no;
    }
    records.shrink_to_fit();
    // Structural validation, up front: a replay of a trace that stops short
    // of finalize deadlocks deep inside the simulation (peers wait on
    // messages that are never re-issued), so reject it here with the rank,
    // the path, and where the file ends.
    if (!validate) continue;
    SMPI_REQUIRE(!records.empty(),
                 "trace for rank " + std::to_string(rank) + " is empty: " + path);
    SMPI_REQUIRE(records.front().op == TiOp::kInit,
                 "trace for rank " + std::to_string(rank) + " does not start with init: " + path +
                     " (first record '" + ti_op_name(records.front().op) + "')");
    SMPI_REQUIRE(records.back().op == TiOp::kFinalize,
                 "trace for rank " + std::to_string(rank) + " is truncated: " + path +
                     " ends at line " + std::to_string(last_record_line) + " with '" +
                     ti_op_name(records.back().op) +
                     "' (expected finalize — was the capture interrupted?)");
  }
  return trace;
}

}  // namespace smpi::trace
