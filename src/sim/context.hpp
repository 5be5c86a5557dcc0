// Cooperative execution contexts for simulated processes.
//
// Every simulated MPI process runs its real application code on its own
// context; the simulation kernel resumes exactly one context at a time and
// the context gives control back whenever the process blocks on a simulated
// activity. This is the mechanism that makes the simulation *on-line* (the
// code actually executes) yet strictly sequential (§5.1 of the paper).
//
// Three interchangeable backends:
//  * "raw"      — hand-rolled callee-saved-register stack switch (x86-64
//    and aarch64 Linux), the default there: no sigprocmask syscall per
//    switch, ~20x faster than swapcontext. On aarch64 the frame carries
//    x19-x28, fp/lr, and d8-d15 per AAPCS64. Falls back to ucontext
//    elsewhere.
//  * "ucontext" — swapcontext-based fibers, the portable POSIX default;
//  * "thread"   — one std::thread per context with strict semaphore handoff,
//    a portable fallback (select with SMPI_CONTEXT_BACKEND=thread).
//
// The raw and ucontext stacks are lazily committed mappings with a guard
// page below them (sim/mapped_region.hpp): a fiber pays resident memory
// only for the stack depth it reaches, and one that overflows dies with
// "fiber stack overflow in actor <name> (<N> KiB stack)" on stderr.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

namespace smpi::sim {

// Thrown inside a context to force stack unwinding when an unfinished actor
// is destroyed (engine teardown, kill). Must never be swallowed by user code.
struct ForcedExit {};

class Context {
 public:
  virtual ~Context() = default;

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // Kernel side: run the context until it suspends or terminates.
  virtual void resume() = 0;
  // Actor side: yield control back to the kernel.
  virtual void suspend() = 0;

  bool done() const { return done_; }
  // Ask the context to unwind the next time it runs; resume() must then be
  // called once to let it do so.
  void request_kill() { kill_requested_ = true; }
  bool kill_requested() const { return kill_requested_; }

 protected:
  Context() = default;
  bool done_ = false;
  bool kill_requested_ = false;
};

class ContextFactory {
 public:
  virtual ~ContextFactory() = default;
  // `name` is the owning actor's, used by the stack-overflow report.
  virtual std::unique_ptr<Context> create(std::function<void()> body, std::string name = {}) = 0;
  virtual std::string name() const = 0;

  // backend: "ucontext", "thread", or "" to honor SMPI_CONTEXT_BACKEND (with
  // ucontext as the final default).
  static std::unique_ptr<ContextFactory> make(const std::string& backend, std::size_t stack_bytes);
};

}  // namespace smpi::sim
