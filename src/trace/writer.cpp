#include "trace/writer.hpp"

#include <cstdio>
#include <filesystem>

#include "util/check.hpp"

namespace smpi::trace {

TiWriter::TiWriter(std::string dir, int nranks, std::string app)
    : dir_(std::move(dir)), nranks_(nranks), app_(std::move(app)) {
  SMPI_REQUIRE(nranks_ > 0, "trace writer needs at least one rank");
  std::filesystem::create_directories(dir_);
  buffers_.resize(static_cast<std::size_t>(nranks_));
  truncated_.resize(static_cast<std::size_t>(nranks_), false);
}

TiWriter::~TiWriter() { finish(); }

std::string TiWriter::rank_path(int rank) const {
  return dir_ + "/rank_" + std::to_string(rank) + ".ti";
}

void TiWriter::append(int rank, const TiRecord& record) {
  SMPI_REQUIRE(rank >= 0 && rank < nranks_, "trace record for out-of-range rank");
  SMPI_REQUIRE(!finished_, "trace writer already finished");
  auto& buffer = buffers_[static_cast<std::size_t>(rank)];
  const std::size_t before = buffer.size();
  buffer += serialize_record(record);
  buffer += '\n';
  buffered_ += buffer.size() - before;
  ++records_;
  if (buffered_ < kBufferBytes) return;
  for (int r = 0; r < nranks_; ++r) flush_rank(r);
}

void TiWriter::flush_rank(int rank) {
  auto& buffer = buffers_[static_cast<std::size_t>(rank)];
  const bool first = !truncated_[static_cast<std::size_t>(rank)];
  if (buffer.empty() && !first) return;
  std::FILE* f = std::fopen(rank_path(rank).c_str(), first ? "w" : "a");
  SMPI_ENSURE(f != nullptr, "cannot open trace file for writing");
  truncated_[static_cast<std::size_t>(rank)] = true;
  std::fwrite(buffer.data(), 1, buffer.size(), f);
  std::fclose(f);
  buffered_ -= buffer.size();
  std::string().swap(buffer);  // a kept capacity would escape the bound
}

void TiWriter::finish() {
  if (finished_) return;
  for (int rank = 0; rank < nranks_; ++rank) flush_rank(rank);
  const std::string manifest = dir_ + "/manifest.txt";
  std::FILE* f = std::fopen(manifest.c_str(), "w");
  SMPI_ENSURE(f != nullptr, "cannot write trace manifest");
  std::fprintf(f, "smpi-ti 1\nranks %d\napp %s\n", nranks_, app_.c_str());
  std::fclose(f);
  finished_ = true;
}

}  // namespace smpi::trace
