#include "sim/mapped_region.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <new>

namespace smpi::sim {

MappedRegion::MappedRegion(std::size_t bytes, bool guard_page) {
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  size_ = bytes == 0 ? page : (bytes + page - 1) / page * page;
  const std::size_t guard = guard_page ? page : 0;
  mapped_ = size_ + guard;
  base_ = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    throw std::bad_alloc();
  }
  if (guard != 0 && mprotect(base_, guard, PROT_NONE) != 0) {
    munmap(base_, mapped_);
    base_ = nullptr;
    throw std::bad_alloc();
  }
  data_ = static_cast<unsigned char*>(base_) + guard;
}

MappedRegion::~MappedRegion() {
  if (base_ != nullptr) munmap(base_, mapped_);
}

bool MappedRegion::in_guard(const void* addr) const {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  return a >= reinterpret_cast<std::uintptr_t>(base_) &&
         a < reinterpret_cast<std::uintptr_t>(data_);
}

}  // namespace smpi::sim
