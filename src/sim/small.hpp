// Small-object utilities for the per-message hot path.
//
// The engine fires millions of timer callbacks and activity-completion hooks
// per simulated collective; std::function heap-allocates any capture larger
// than two pointers and std::vector allocates for its very first element.
// SmallFunction and InlineVec keep both on the owning object's own storage
// for the capture/fan-out sizes the hot path actually produces, so a pooled
// Activity or a recycled timer slot costs zero heap traffic across its
// whole lifecycle.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace smpi::sim {

// Move-only callable with inline storage for captures up to `N` bytes;
// larger callables degrade to a single heap allocation (off the hot path —
// every hot-path lambda in the engine and MPI layers fits inline).
template <typename Sig, std::size_t N = 48>
class SmallFunction;

template <typename R, typename... Args, std::size_t N>
class SmallFunction<R(Args...), N> {
 public:
  SmallFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= N && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (storage()) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *static_cast<Fn**>(storage()) = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  SmallFunction(SmallFunction&& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(other.storage(), storage());
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(other.storage(), storage());
        ops_ = other.ops_;
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;

  ~SmallFunction() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) { return ops_->invoke(storage(), std::forward<Args>(args)...); }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* from, void* to);  // move-construct into `to`, destroy `from`
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* s, Args&&... args) -> R {
        return (*std::launder(static_cast<Fn*>(s)))(std::forward<Args>(args)...);
      },
      [](void* from, void* to) {
        Fn* f = std::launder(static_cast<Fn*>(from));
        ::new (to) Fn(std::move(*f));
        f->~Fn();
      },
      [](void* s) { std::launder(static_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* s, Args&&... args) -> R {
        return (**static_cast<Fn**>(s))(std::forward<Args>(args)...);
      },
      [](void* from, void* to) { *static_cast<Fn**>(to) = *static_cast<Fn**>(from); },
      [](void* s) { delete *static_cast<Fn**>(s); },
  };

  void* storage() noexcept { return &storage_; }

  alignas(std::max_align_t) unsigned char storage_[N < sizeof(void*) ? sizeof(void*) : N];
  const Ops* ops_ = nullptr;
};

// Vector with `N` elements of inline capacity; spills to the heap beyond
// that. Activities carry their waiter/callback lists in one of these: the
// common fan-out is 0 or 1, so a pooled Activity's construct/destroy cycle
// never touches the allocator.
template <typename T, std::size_t N>
class InlineVec {
 public:
  InlineVec() noexcept = default;
  InlineVec(const InlineVec&) = delete;
  InlineVec& operator=(const InlineVec&) = delete;

  ~InlineVec() {
    clear();
    if (data_ != inline_data()) ::operator delete(data_);
  }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    ::new (data_ + size_) T(std::move(value));
    ++size_;
  }

  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }

  // Steal the contents, leaving `other` empty — the completion-dispatch
  // idiom (callbacks may re-register on the same activity while the old
  // list is being fired).
  InlineVec(InlineVec&& other) noexcept {
    if (other.data_ == other.inline_data()) {
      for (std::size_t i = 0; i < other.size_; ++i) {
        ::new (data_ + i) T(std::move(other.data_[i]));
        other.data_[i].~T();
      }
      size_ = other.size_;
      other.size_ = 0;
    } else {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.inline_data();
      other.size_ = 0;
      other.capacity_ = N;
    }
  }

 private:
  void grow() {
    const std::size_t new_capacity = capacity_ * 2;
    T* fresh = static_cast<T*>(::operator new(new_capacity * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (fresh + i) T(std::move(data_[i]));
      data_[i].~T();
    }
    if (data_ != inline_data()) ::operator delete(data_);
    data_ = fresh;
    capacity_ = new_capacity;
  }

  T* inline_data() noexcept { return std::launder(reinterpret_cast<T*>(&inline_storage_)); }

  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  T* data_ = inline_data();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace smpi::sim
