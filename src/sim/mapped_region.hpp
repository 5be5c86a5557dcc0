// Anonymous memory that is committed only where it is touched.
//
// A MappedRegion reserves whole pages with mmap(MAP_NORESERVE) instead of
// allocating and zero-filling them: the kernel backs a page with RAM the
// first time it is written. A 512 KiB fiber stack whose rank never recurses
// deeply therefore costs a few pages of resident memory, not 512 KiB, and a
// scratch arena that is never written costs none.
//
// With `guard_page`, one PROT_NONE page sits directly below the usable
// range. A stack growing down past its end faults there instead of
// silently overwriting whatever is mapped below it.
#pragma once

#include <cstddef>

namespace smpi::sim {

class MappedRegion {
 public:
  // Usable size is `bytes` rounded up to whole pages (at least one). Throws
  // std::bad_alloc when the kernel refuses the mapping.
  explicit MappedRegion(std::size_t bytes, bool guard_page = false);
  ~MappedRegion();

  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

  unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }
  // True when `addr` falls inside the guard page (never without one).
  bool in_guard(const void* addr) const;

 private:
  void* base_ = nullptr;  // start of the whole mapping, guard page included
  std::size_t mapped_ = 0;
  unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace smpi::sim
