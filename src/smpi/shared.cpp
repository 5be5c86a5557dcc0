// RAM folding (§3.2): SMPI_SHARED_MALLOC returns the *same* allocation to
// every rank calling from the same source location, cutting the footprint of
// an m-process run from m x s to s (technique #1 of [3]). The memory tracker
// accounts both views — what the folded simulation really uses and what the
// unfolded application would have used — which is how Figure 16 is measured.
#include <string>

#include "smpi/internals.hpp"
#include "util/check.hpp"

namespace smpi::core {

RunTables::~RunTables() {
  for (auto& [site, block] : shared) ::operator delete(block.ptr);
}

}  // namespace smpi::core

using namespace smpi::core;

void* smpi_malloc(std::size_t size) {
  Process& proc = current_process_checked();
  void* ptr = ::operator new(size);
  proc.allocations[ptr] = size;
  proc.world->memory().allocate(proc.world_rank, size, /*folded_already_counted=*/false);
  return ptr;
}

void smpi_free(void* ptr) {
  if (ptr == nullptr) return;
  Process& proc = current_process_checked();
  auto it = proc.allocations.find(ptr);
  SMPI_REQUIRE(it != proc.allocations.end(), "smpi_free of unknown pointer");
  proc.world->memory().release(proc.world_rank, it->second, false);
  proc.allocations.erase(it);
  ::operator delete(ptr);
}

void* smpi_shared_malloc(std::size_t size, const char* file, int line) {
  Process& proc = current_process_checked();
  // Keyed by call site *and* size: ranks at different stages of a dataflow
  // may allocate different amounts from the same line (e.g. DT's growing
  // streams); only identically-shaped allocations fold together.
  const std::string site =
      std::string(file) + ":" + std::to_string(line) + ":" + std::to_string(size);
  RunTables& tables = proc.world->tables();
  auto& blocks = tables.shared;
  auto it = blocks.find(site);
  if (it == blocks.end()) {
    SharedBlock block;
    block.ptr = ::operator new(size);
    block.size = size;
    block.refcount = 0;
    block.site = site;
    it = blocks.emplace(site, block).first;
    tables.shared_keys[block.ptr] = site;
    // First caller: the bytes are physically allocated.
    proc.world->memory().allocate(proc.world_rank, size, /*folded_already_counted=*/false);
  } else {
    // Folded: the rank's unfolded footprint grows, the real one does not.
    proc.world->memory().allocate(proc.world_rank, size, /*folded_already_counted=*/true);
  }
  it->second.refcount += 1;
  return it->second.ptr;
}

void smpi_shared_free(void* ptr) {
  if (ptr == nullptr) return;
  Process& proc = current_process_checked();
  RunTables& tables = proc.world->tables();
  auto idx = tables.shared_keys.find(ptr);
  SMPI_REQUIRE(idx != tables.shared_keys.end(), "SMPI_FREE of non-shared pointer");
  auto& blocks = tables.shared;
  auto it = blocks.find(idx->second);
  SMPI_ENSURE(it != blocks.end(), "shared block index out of sync");
  SharedBlock& block = it->second;
  SMPI_REQUIRE(block.refcount > 0, "SMPI_FREE refcount underflow");
  block.refcount -= 1;
  const bool last = block.refcount == 0;
  proc.world->memory().release(proc.world_rank, block.size,
                               /*folded_already_counted=*/!last);
  if (last) {
    ::operator delete(block.ptr);
    tables.shared_keys.erase(idx);
    blocks.erase(it);
  }
}
