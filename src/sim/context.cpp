#include "sim/context.hpp"

#include <signal.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>

#include "sim/mapped_region.hpp"
#include "util/check.hpp"

// ---------------------------------------------------------------------------
// raw backend (x86-64 Linux): hand-rolled stack switch.
//
// glibc's swapcontext makes a sigprocmask *syscall* on every switch to
// save/restore the signal mask the simulation never touches. At two context
// switches per simulated block/wake, a 1024-rank collective spends half its
// wall-clock inside that syscall. The raw switch saves exactly the
// callee-saved registers the SysV ABI requires (rbp rbx r12-r15, the return
// address already on the stack) and swaps the stack pointer — ~20 ns
// instead of ~450 ns, no kernel involvement (SimGrid ships the same idea as
// its "raw" context factory). Every other platform runs on ucontext.
// ---------------------------------------------------------------------------
#if defined(__x86_64__) && defined(__linux__)
#define SMPI_HAVE_RAW_CONTEXT 1

extern "C" {
// Pushes the callee-saved frame on the current stack, stores the stack
// pointer to *save_sp, installs restore_sp and pops the frame there.
void smpi_raw_swap(void** save_sp, void* restore_sp);
// First-activation shim: the primed frame "returns" here with the context
// pointer in %r12; moves it into the first-argument register and calls the
// C++ trampoline.
void smpi_raw_boot();
void smpi_raw_trampoline(void* context);
}

asm(".text\n"
    ".globl smpi_raw_swap\n"
    ".hidden smpi_raw_swap\n"
    ".type smpi_raw_swap,@function\n"
    "smpi_raw_swap:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size smpi_raw_swap,.-smpi_raw_swap\n"
    ".globl smpi_raw_boot\n"
    ".hidden smpi_raw_boot\n"
    ".type smpi_raw_boot,@function\n"
    "smpi_raw_boot:\n"
    "  movq %r12, %rdi\n"
    "  callq smpi_raw_trampoline\n"
    ".size smpi_raw_boot,.-smpi_raw_boot\n");
#endif  // SMPI_HAVE_RAW_CONTEXT

// ---------------------------------------------------------------------------
// AddressSanitizer fiber annotations. ASan keeps one shadow ("fake") stack
// per thread; a manual stack switch it cannot see makes it report wild
// stack-buffer-overflow / use-after-return the moment the scheduler resumes
// an actor. Every switch is therefore bracketed with
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber in ASan
// builds; the helpers compile to nothing otherwise.
// ---------------------------------------------------------------------------
#if defined(__SANITIZE_ADDRESS__)
#define SMPI_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SMPI_ASAN_FIBERS 1
#endif
#endif

#if defined(SMPI_ASAN_FIBERS)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* stack_bottom,
                                    std::size_t stack_size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** stack_bottom_old,
                                     std::size_t* stack_size_old);
void __asan_unpoison_memory_region(void const volatile* addr, std::size_t size);
}
#endif

namespace smpi::sim {
namespace {

// `save`: where to park this stack's fake-stack pointer while away (nullptr
// on the final switch out of a dying fiber, releasing its fake frames).
inline void asan_start_switch(void** save, const void* target_bottom,
                              std::size_t target_size) {
#if defined(SMPI_ASAN_FIBERS)
  __sanitizer_start_switch_fiber(save, target_bottom, target_size);
#else
  (void)save;
  (void)target_bottom;
  (void)target_size;
#endif
}

// `save`: the pointer parked by the start_switch that last left this stack
// (nullptr on a fiber's first activation). Reports the previous stack's
// bounds through the out-params — how the fiber learns the kernel stack.
inline void asan_finish_switch(void* save, const void** old_bottom, std::size_t* old_size) {
#if defined(SMPI_ASAN_FIBERS)
  __sanitizer_finish_switch_fiber(save, old_bottom, old_size);
#else
  (void)save;
  (void)old_bottom;
  (void)old_size;
#endif
}

// ---------------------------------------------------------------------------
// Fiber stacks (raw and ucontext backends) and the overflow report.
//
// Each stack is a lazily committed mapping (MappedRegion): 1024 ranks of
// 512 KiB cost the pages their calls actually reach, not 512 MiB. The
// PROT_NONE guard page below it turns an overflow into a SIGSEGV, which
// the handler below reports with the actor's name instead of letting the
// fiber scribble over the neighbouring mapping.
// ---------------------------------------------------------------------------

struct FiberStack {
  FiberStack(std::size_t bytes, std::string owner)
      : region(bytes, /*guard_page=*/true), name(std::move(owner)) {
#if defined(SMPI_ASAN_FIBERS)
    // The mapping may reuse the addresses of an unmapped fiber stack whose
    // frames that never returned (a finished fiber's trampoline, say) left
    // their redzones poisoned in ASan's shadow; that poison is not this
    // fiber's and would be reported as a stack-buffer-overflow in it.
    __asan_unpoison_memory_region(region.data(), region.size());
#endif
  }
  MappedRegion region;
  std::string name;  // printed by the overflow report
};

// The stack of the fiber running right now, nullptr while the kernel runs
// (only the kernel resumes fibers, so switches never nest). Read only by
// the SIGSEGV handler.
const FiberStack* g_running_stack = nullptr;
struct sigaction g_previous_segv {};

// The handler runs here: the overflowing fiber has no stack left. Static
// storage, so it is committed only once a signal is delivered on it.
constexpr std::size_t kAltStackBytes = 64 * 1024;
alignas(16) unsigned char g_alt_stack[kAltStackBytes];

// Async-signal-safe string building for the report (no snprintf).
void append_text(char* buf, std::size_t cap, std::size_t& len, const char* text) {
  while (*text != '\0' && len + 1 < cap) buf[len++] = *text++;
}

void append_number(char* buf, std::size_t cap, std::size_t& len, std::size_t value) {
  char digits[24];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (n > 0 && len + 1 < cap) buf[len++] = digits[--n];
}

void on_segv(int sig, siginfo_t* info, void* ucontext) {
  const FiberStack* stack = g_running_stack;
  if (stack != nullptr && stack->region.in_guard(info->si_addr)) {
    char msg[256];
    std::size_t len = 0;
    append_text(msg, sizeof msg, len, "fiber stack overflow in actor ");
    append_text(msg, sizeof msg, len, stack->name.c_str());
    append_text(msg, sizeof msg, len, " (");
    append_number(msg, sizeof msg, len, stack->region.size() / 1024);
    append_text(msg, sizeof msg, len, " KiB stack)\n");
    const ssize_t written = write(STDERR_FILENO, msg, len);
    (void)written;
  } else if (g_previous_segv.sa_handler != SIG_DFL && g_previous_segv.sa_handler != SIG_IGN) {
    // Any other fault belongs to whoever handled SIGSEGV before us (ASan's
    // reports, for one).
    if ((g_previous_segv.sa_flags & SA_SIGINFO) != 0) {
      g_previous_segv.sa_sigaction(sig, info, ucontext);
    } else {
      g_previous_segv.sa_handler(sig);
    }
    return;
  }
  // Default action: the signal stays blocked until this handler returns,
  // then kills the process as an unhandled SIGSEGV would have.
  struct sigaction fallback {};
  fallback.sa_handler = SIG_DFL;
  sigemptyset(&fallback.sa_mask);
  sigaction(sig, &fallback, nullptr);
  raise(sig);
}

// Once per process; the raw and ucontext factories call it. An alternate
// signal stack already in place (ASan installs one) is kept.
void install_overflow_handler() {
  static const bool installed = [] {
    stack_t current{};
    if (sigaltstack(nullptr, &current) == 0 && (current.ss_flags & SS_DISABLE) != 0) {
      stack_t alt{};
      alt.ss_sp = g_alt_stack;
      alt.ss_size = kAltStackBytes;
      sigaltstack(&alt, nullptr);
    }
    struct sigaction action {};
    action.sa_sigaction = &on_segv;
    action.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&action.sa_mask);
    sigaction(SIGSEGV, &action, &g_previous_segv);
    return true;
  }();
  (void)installed;
}

// ---------------------------------------------------------------------------
// ucontext backend
// ---------------------------------------------------------------------------

class UcontextContext final : public Context {
 public:
  UcontextContext(std::function<void()> body, std::size_t stack_bytes, std::string name)
      : body_(std::move(body)), stack_(stack_bytes, std::move(name)) {
    getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_.region.data();
    ctx_.uc_stack.ss_size = stack_.region.size();
    ctx_.uc_link = nullptr;
    // makecontext only passes ints portably; smuggle `this` as two halves.
    const auto self = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&UcontextContext::trampoline), 2,
                static_cast<unsigned>(self >> 32), static_cast<unsigned>(self & 0xffffffffu));
  }

  ~UcontextContext() override {
    if (!done_ && started_) {
      // Let the context unwind its stack (runs destructors of locals).
      request_kill();
      resume();
    }
  }

  void resume() override {
    SMPI_ENSURE(!done_, "resuming a finished context");
    started_ = true;
    g_running_stack = &stack_;
    asan_start_switch(&kernel_fake_stack_, stack_.region.data(), stack_.region.size());
    swapcontext(&kernel_ctx_, &ctx_);
    asan_finish_switch(kernel_fake_stack_, nullptr, nullptr);
    g_running_stack = nullptr;
  }

  void suspend() override {
    asan_start_switch(&fiber_fake_stack_, kernel_stack_bottom_, kernel_stack_size_);
    swapcontext(&ctx_, &kernel_ctx_);
    asan_finish_switch(fiber_fake_stack_, &kernel_stack_bottom_, &kernel_stack_size_);
    if (kill_requested_) throw ForcedExit{};
  }

 private:
  static void trampoline(unsigned hi, unsigned lo) {
    auto* self = reinterpret_cast<UcontextContext*>(
        (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
    // First activation: no parked fake stack yet; learn the kernel stack's
    // bounds for the suspend() switches.
    asan_finish_switch(nullptr, &self->kernel_stack_bottom_, &self->kernel_stack_size_);
    if (!self->kill_requested_) {
      try {
        self->body_();
      } catch (const ForcedExit&) {
        // normal teardown path
      }
    }
    self->done_ = true;
    // nullptr save: this fiber never runs again — release its fake frames.
    asan_start_switch(nullptr, self->kernel_stack_bottom_, self->kernel_stack_size_);
    swapcontext(&self->ctx_, &self->kernel_ctx_);
    SMPI_UNREACHABLE("resumed a terminated context");
  }

  std::function<void()> body_;
  FiberStack stack_;
  ucontext_t ctx_{};
  ucontext_t kernel_ctx_{};
  bool started_ = false;
  // ASan fiber-annotation state (unused outside sanitized builds).
  void* kernel_fake_stack_ = nullptr;
  void* fiber_fake_stack_ = nullptr;
  const void* kernel_stack_bottom_ = nullptr;
  std::size_t kernel_stack_size_ = 0;
};

class UcontextFactory final : public ContextFactory {
 public:
  explicit UcontextFactory(std::size_t stack_bytes) : stack_bytes_(stack_bytes) {
    install_overflow_handler();
  }
  std::unique_ptr<Context> create(std::function<void()> body, std::string name) override {
    return std::make_unique<UcontextContext>(std::move(body), stack_bytes_, std::move(name));
  }

 private:
  std::size_t stack_bytes_;
};

#if SMPI_HAVE_RAW_CONTEXT

class RawContext final : public Context {
 public:
  RawContext(std::function<void()> body, std::size_t stack_bytes, std::string name)
      : body_(std::move(body)), stack_(std::max(stack_bytes, kMinStack), std::move(name)) {
    // Prime the stack so the first swap-in pops the callee-saved frame and
    // "returns" into smpi_raw_boot with the context pointer in a
    // callee-saved register. Stack top is page-aligned, so inside
    // smpi_raw_boot the stack meets the ABI alignment at the trampoline
    // call.
    auto* slots = reinterpret_cast<void**>(stack_.region.data() + stack_.region.size());
    slots[-1] = reinterpret_cast<void*>(&smpi_raw_boot);  // ret target
    slots[-2] = nullptr;                                  // rbp
    slots[-3] = nullptr;                                  // rbx
    slots[-4] = this;                                     // r12
    slots[-5] = nullptr;                                  // r13
    slots[-6] = nullptr;                                  // r14
    slots[-7] = nullptr;                                  // r15
    sp_ = static_cast<void*>(&slots[-7]);
  }

  ~RawContext() override {
    if (!done_ && started_) {
      // Let the context unwind its stack (runs destructors of locals).
      request_kill();
      resume();
    }
  }

  void resume() override {
    SMPI_ENSURE(!done_, "resuming a finished context");
    started_ = true;
    g_running_stack = &stack_;
    asan_start_switch(&kernel_fake_stack_, stack_.region.data(), stack_.region.size());
    smpi_raw_swap(&kernel_sp_, sp_);
    asan_finish_switch(kernel_fake_stack_, nullptr, nullptr);
    g_running_stack = nullptr;
  }

  void suspend() override {
    asan_start_switch(&fiber_fake_stack_, kernel_stack_bottom_, kernel_stack_size_);
    smpi_raw_swap(&sp_, kernel_sp_);
    asan_finish_switch(fiber_fake_stack_, &kernel_stack_bottom_, &kernel_stack_size_);
    if (kill_requested_) throw ForcedExit{};
  }

  // First activation (via smpi_raw_boot); runs on the fiber stack.
  void boot_entry() {
    // No parked fake stack yet; learn the kernel stack's bounds for the
    // suspend() switches.
    asan_finish_switch(nullptr, &kernel_stack_bottom_, &kernel_stack_size_);
    if (!kill_requested_) {
      try {
        body_();
      } catch (const ForcedExit&) {
        // normal teardown path
      }
    }
    done_ = true;
    // nullptr save: this fiber never runs again — release its fake frames.
    asan_start_switch(nullptr, kernel_stack_bottom_, kernel_stack_size_);
    smpi_raw_swap(&sp_, kernel_sp_);
    SMPI_UNREACHABLE("resumed a terminated context");
  }

 private:
  static constexpr std::size_t kMinStack = 16 * 1024;

  std::function<void()> body_;
  FiberStack stack_;
  void* sp_ = nullptr;         // fiber stack pointer while suspended
  void* kernel_sp_ = nullptr;  // kernel stack pointer while the fiber runs
  bool started_ = false;
  // ASan fiber-annotation state (unused outside sanitized builds).
  void* kernel_fake_stack_ = nullptr;
  void* fiber_fake_stack_ = nullptr;
  const void* kernel_stack_bottom_ = nullptr;
  std::size_t kernel_stack_size_ = 0;
};

class RawFactory final : public ContextFactory {
 public:
  explicit RawFactory(std::size_t stack_bytes) : stack_bytes_(stack_bytes) {
    install_overflow_handler();
  }
  std::unique_ptr<Context> create(std::function<void()> body, std::string name) override {
    return std::make_unique<RawContext>(std::move(body), stack_bytes_, std::move(name));
  }

 private:
  std::size_t stack_bytes_;
};

#endif  // SMPI_HAVE_RAW_CONTEXT

}  // namespace

#if SMPI_HAVE_RAW_CONTEXT
// Reached once per context via smpi_raw_boot; C linkage so the asm shim can
// name it.
extern "C" void smpi_raw_trampoline(void* context) {
  static_cast<RawContext*>(context)->boot_entry();
}
#endif

std::unique_ptr<ContextFactory> ContextFactory::make(std::size_t stack_bytes) {
#if SMPI_HAVE_RAW_CONTEXT
  return std::make_unique<RawFactory>(stack_bytes);
#else
  return make_ucontext(stack_bytes);
#endif
}

std::unique_ptr<ContextFactory> ContextFactory::make_ucontext(std::size_t stack_bytes) {
  return std::make_unique<UcontextFactory>(stack_bytes);
}

}  // namespace smpi::sim
