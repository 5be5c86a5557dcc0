// AddressSanitizer hooks shared by the fiber switches (sim/context.cpp) and
// the engine pools (sim/pool.hpp). SMPI_ASAN is defined in ASan builds only;
// the poison helpers compile to nothing otherwise.
#pragma once

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define SMPI_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SMPI_ASAN 1
#endif
#endif

#if defined(SMPI_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* stack_bottom,
                                    std::size_t stack_size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** stack_bottom_old,
                                     std::size_t* stack_size_old);
void __asan_poison_memory_region(void const volatile* addr, std::size_t size);
void __asan_unpoison_memory_region(void const volatile* addr, std::size_t size);
}
#endif

namespace smpi::sim {

// Marks [addr, addr + size) unaddressable: an access reports as a
// use-after-poison, as for a freed heap block.
inline void asan_poison(const void* addr, std::size_t size) {
#if defined(SMPI_ASAN)
  __asan_poison_memory_region(addr, size);
#else
  (void)addr;
  (void)size;
#endif
}

inline void asan_unpoison(const void* addr, std::size_t size) {
#if defined(SMPI_ASAN)
  __asan_unpoison_memory_region(addr, size);
#else
  (void)addr;
  (void)size;
#endif
}

}  // namespace smpi::sim
