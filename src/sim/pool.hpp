// Engine-owned free-list pools for the per-message hot path.
//
// Steady-state collectives create and destroy the same few object shapes
// millions of times per run: Activities (send/recv tokens, flows, sleeps),
// envelopes, and eager-payload snapshots. BlockPool recycles the raw memory
// of small objects (including the shared_ptr control block, via
// allocate_shared + PoolAllocator) and BufferPool recycles the snapshot
// byte arrays in power-of-two size classes. Objects are constructed fresh
// on every acquire ("reset-on-acquire": the pool hands out raw storage, the
// placement constructor re-establishes every invariant), so recycling can
// never leak state between messages — or, in the campaign runner, between
// fork-isolated scenarios, since pools live on the per-scenario Engine.
//
// Lifetime rule: the pools are the FIRST members of their owner, so they
// are destroyed LAST — every pooled object must die before the pool that
// carries its storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "obs/profile.hpp"
#include "sim/asan.hpp"

namespace smpi::sim {

struct PoolStats {
  std::uint64_t hits = 0;    // acquisitions served from a free list
  std::uint64_t misses = 0;  // acquisitions that had to touch the heap
};

// Free lists of fixed-granularity raw blocks for small objects. Sizes are
// rounded up to 64-byte granules; anything beyond kMaxBlockBytes bypasses
// the pool (counted as a miss — nothing on the hot path is that large).
//
// A miss carves its block from a 64 KiB slab, and the pool frees whole
// slabs when it dies: a run that retains a million messages pays neither a
// malloc header per block nor a million frees at teardown. Each size class
// is meant to serve one type, so the hit/miss counts a workload pins are
// those of its types, not of how their sizes happen to share a class.
//
// Slabs hide pooled objects from the sanitizers, so ASan builds poison a
// block while it sits on a free list and a slab's uncarved tail, and a pool
// that dies with blocks still handed out aborts there (LeakSanitizer no
// longer sees such a block: its slab is freed anyway).
class BlockPool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxBlockBytes = 4096;
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  ~BlockPool() {
#if defined(SMPI_ASAN)
    if (outstanding_ != 0) {
      std::fprintf(stderr, "BlockPool destroyed with %zu block(s) outstanding\n", outstanding_);
      std::abort();
    }
#endif
    for (void* slab : slabs_) {
      asan_unpoison(slab, kSlabBytes);
      ::operator delete(slab);
    }
  }

  // The block size class that serves a request of `size` bytes.
  static std::size_t class_of(std::size_t size) { return size == 0 ? 0 : (size - 1) / kGranule; }

  void* allocate(std::size_t size) {
    obs::ProfScope prof(obs::ProfKey::kPoolOp);
    const std::size_t cls = class_of(size);
    ++outstanding_;
    if (cls < free_.size() && !free_[cls].empty()) {
      void* block = free_[cls].back();
      free_[cls].pop_back();
      ++stats_.hits;
      asan_unpoison(block, block_bytes(cls));
      return block;
    }
    ++stats_.misses;
    if (cls >= kClassCount) return ::operator new(size);
    return carve(block_bytes(cls));
  }

  void deallocate(void* block, std::size_t size) noexcept {
    obs::ProfScope prof(obs::ProfKey::kPoolOp);
    const std::size_t cls = class_of(size);
    --outstanding_;
    if (cls >= kClassCount) {
      ::operator delete(block);
      return;
    }
    if (free_.size() <= cls) free_.resize(cls + 1);
    free_[cls].push_back(block);
    asan_poison(block, block_bytes(cls));
  }

  const PoolStats& stats() const { return stats_; }
  // Blocks handed out and not yet given back.
  std::size_t outstanding() const { return outstanding_; }

 private:
  static constexpr std::size_t kClassCount = kMaxBlockBytes / kGranule;

  static std::size_t block_bytes(std::size_t cls) { return (cls + 1) * kGranule; }

  // Operator new aligns a slab to 16 bytes and blocks are whole granules,
  // so every block is 16-byte aligned. A block that does not fit in the
  // current slab's tail opens a new slab; the tail stays poisoned.
  void* carve(std::size_t bytes) {
    if (slab_left_ < bytes) {
      slab_next_ = static_cast<unsigned char*>(::operator new(kSlabBytes));
      slabs_.push_back(slab_next_);
      slab_left_ = kSlabBytes;
      asan_poison(slab_next_, kSlabBytes);
    }
    void* block = slab_next_;
    slab_next_ += bytes;
    slab_left_ -= bytes;
    asan_unpoison(block, bytes);
    return block;
  }

  std::vector<std::vector<void*>> free_;
  std::vector<void*> slabs_;
  unsigned char* slab_next_ = nullptr;
  std::size_t slab_left_ = 0;
  std::size_t outstanding_ = 0;
  PoolStats stats_;
};

// Minimal allocator over a BlockPool, for std::allocate_shared: the object
// and its control block live in one recycled blob. The pool pointer is
// captured at construction and must outlive every allocation (see the
// lifetime rule above).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  explicit PoolAllocator(BlockPool* pool) noexcept : pool(pool) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) noexcept : pool(other.pool) {}

  T* allocate(std::size_t n) { return static_cast<T*>(pool->allocate(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { pool->deallocate(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const noexcept {
    return pool == other.pool;
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>& other) const noexcept {
    return pool != other.pool;
  }

  BlockPool* pool;
};

// Recycled byte buffers for eager-payload snapshots, bucketed by
// power-of-two capacity. The RAII Buffer handle returns its storage on
// destruction; a handle whose pool has been disabled (or that was acquired
// through the static unpooled fallback) owns plain heap memory instead.
class BufferPool {
 public:
  class Buffer {
   public:
    Buffer() noexcept = default;
    Buffer(Buffer&& other) noexcept
        : data_(other.data_), capacity_(other.capacity_), pool_(other.pool_) {
      other.data_ = nullptr;
      other.pool_ = nullptr;
    }
    Buffer& operator=(Buffer&& other) noexcept {
      if (this != &other) {
        release();
        data_ = other.data_;
        capacity_ = other.capacity_;
        pool_ = other.pool_;
        other.data_ = nullptr;
        other.pool_ = nullptr;
      }
      return *this;
    }
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;
    ~Buffer() { release(); }

    unsigned char* get() const noexcept { return data_; }
    explicit operator bool() const noexcept { return data_ != nullptr; }

    void release() noexcept {
      if (data_ == nullptr) return;
      if (pool_ != nullptr) {
        pool_->put_back(data_, capacity_);
      } else {
        delete[] data_;
      }
      data_ = nullptr;
      pool_ = nullptr;
    }

   private:
    friend class BufferPool;
    Buffer(unsigned char* data, std::size_t capacity, BufferPool* pool) noexcept
        : data_(data), capacity_(capacity), pool_(pool) {}

    unsigned char* data_ = nullptr;
    std::size_t capacity_ = 0;
    BufferPool* pool_ = nullptr;
  };

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool() {
    for (auto& list : classes_) {
      for (unsigned char* buffer : list) delete[] buffer;
    }
  }

  Buffer acquire(std::size_t bytes) {
    obs::ProfScope prof(obs::ProfKey::kPoolOp);
    const std::size_t cls = class_of(bytes);
    const std::size_t capacity = std::size_t{1} << cls;
    if (cls < classes_.size() && !classes_[cls].empty()) {
      unsigned char* data = classes_[cls].back();
      classes_[cls].pop_back();
      ++stats_.hits;
      return Buffer(data, capacity, this);
    }
    ++stats_.misses;
    return Buffer(new unsigned char[capacity], capacity, this);
  }

  // Plain-heap buffer for when no pool is available (pooling disabled or no
  // engine in scope).
  static Buffer acquire_unpooled(std::size_t bytes) {
    const std::size_t capacity = bytes == 0 ? 1 : bytes;
    return Buffer(new unsigned char[capacity], capacity, nullptr);
  }

  const PoolStats& stats() const { return stats_; }

 private:
  static std::size_t class_of(std::size_t bytes) {
    std::size_t cls = 0;
    while ((std::size_t{1} << cls) < bytes) ++cls;
    return cls;
  }

  void put_back(unsigned char* data, std::size_t capacity) noexcept {
    const std::size_t cls = class_of(capacity);
    if (classes_.size() <= cls) classes_.resize(cls + 1);
    classes_[cls].push_back(data);
  }

  std::vector<std::vector<unsigned char*>> classes_;
  PoolStats stats_;
};

}  // namespace smpi::sim
