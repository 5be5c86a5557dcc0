// Cooperative execution contexts for simulated processes.
//
// Every simulated MPI process runs its real application code on its own
// context; the simulation kernel resumes exactly one context at a time and
// the context gives control back whenever the process blocks on a simulated
// activity. This is the mechanism that makes the simulation *on-line* (the
// code actually executes) yet strictly sequential (§5.1 of the paper).
//
// One backend per platform, fixed at build time:
//  * raw      — a hand-rolled callee-saved-register stack switch, on x86-64
//    Linux: no sigprocmask syscall per switch, ~20x faster than
//    swapcontext;
//  * ucontext — swapcontext-based fibers, the portable POSIX backend, on
//    every other platform.
//
// Both run on lazily committed stacks with a guard page below them
// (sim/mapped_region.hpp): a fiber pays resident memory only for the stack
// depth it reaches, and one that overflows dies with
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

  // This platform's backend.
  static std::unique_ptr<ContextFactory> make(std::size_t stack_bytes);
  // The ucontext backend, whatever the platform: lets x86-64 builds test
  // the backend every other platform runs.
  static std::unique_ptr<ContextFactory> make_ucontext(std::size_t stack_bytes);
};

}  // namespace smpi::sim
