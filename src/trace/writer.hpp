// Buffered per-rank TI trace writer.
//
// Capture happens on the simulation's hot path (every MPI call emits one
// record), so records are serialized into an in-memory buffer per rank and
// appended to `<dir>/rank_<r>.ti` only when all buffers together hold
// kBufferBytes — capture must never add a syscall per MPI call, and an
// N-rank capture must not hold N buffers' worth of text. finish() flushes
// every buffer and writes `<dir>/manifest.txt`; the destructor calls it if
// the caller forgot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hpp"

namespace smpi::trace {

class TiWriter {
 public:
  static constexpr std::size_t kBufferBytes = 1 << 20;  // all ranks' buffers together

  // Creates `dir` (and parents) if needed; truncates any previous trace for
  // the same rank count.
  TiWriter(std::string dir, int nranks, std::string app = "app");
  ~TiWriter();

  TiWriter(const TiWriter&) = delete;
  TiWriter& operator=(const TiWriter&) = delete;

  void append(int rank, const TiRecord& record);
  // Flush all buffers and write the manifest. Idempotent.
  void finish();

  int nranks() const { return nranks_; }
  const std::string& dir() const { return dir_; }
  std::uint64_t records_written() const { return records_; }

 private:
  std::string rank_path(int rank) const;
  void flush_rank(int rank);

  std::string dir_;
  int nranks_;
  std::string app_;
  std::vector<std::string> buffers_;
  std::size_t buffered_ = 0;  // total size of buffers_
  std::vector<bool> truncated_;  // first flush truncates, later ones append
  std::uint64_t records_ = 0;
  bool finished_ = false;
};

}  // namespace smpi::trace
