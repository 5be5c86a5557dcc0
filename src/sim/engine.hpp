// The sequential simulation kernel (the paper's SIMIX/SURF driver, §5.1).
//
// One Engine per simulation. It owns the virtual clock, the actors, and the
// one event calendar that every dated event goes through: the entries
// models push and the engine's own timers. The main loop alternates between
//   (1) running every runnable actor (in pid order — fully deterministic)
//       until each blocks on an activity, and
//   (2) advancing virtual time to the earliest calendar entry and popping
//       everything due there in (date, creation) order.
// Models are never polled: a model only runs when one of its own calendar
// entries comes due. Exactly one actor executes at any instant, which is
// what makes running hundreds of MPI processes inside one OS process safe.
#pragma once


#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/activity.hpp"
#include "sim/actor.hpp"
#include "sim/calendar.hpp"
#include "sim/context.hpp"
#include "sim/model.hpp"
#include "sim/pool.hpp"
#include "sim/small.hpp"

namespace smpi::sim {

struct EngineConfig {
  std::size_t stack_bytes = 512 * 1024;
  // Recycle Activities / envelopes / snapshot buffers through engine-owned
  // free lists. Off = the pre-pooling allocation behavior, kept as the
  // reference arm for equivalence tests and the p2p microbench.
  bool pool_objects = true;
  // Abort the simulation (TimeLimitError) once the virtual clock would pass
  // this date. 0 = unlimited. Guards runaway simulations whose poll/timer
  // escalation keeps virtual time advancing forever.
  double max_sim_time = 0;
};

class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

// Thrown when EngineConfig::max_sim_time is exceeded.
class TimeLimitError : public std::runtime_error {
 public:
  explicit TimeLimitError(const std::string& what) : std::runtime_error(what) {}
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- setup -------------------------------------------------------------
  Actor* spawn(std::string name, int node, std::function<void()> body);
  // Binds the model to this engine's event calendar and keeps it alive.
  void add_model(std::shared_ptr<Model> model);

  // --- main loop ---------------------------------------------------------
  // Runs until every actor is dead. Throws DeadlockError if actors remain
  // but nothing can ever happen again.
  void run();

  // Freeze the simulation at the current date: run() stops scheduling as
  // soon as the requesting actor yields control, and no further calendar
  // events or timers fire. Used on abort — once a rank's frame has unwound,
  // in-flight completions into it must never be dispatched.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  // Destroy all actors now, force-unwinding live ones (ForcedExit through
  // their contexts). Higher layers call this before freeing per-actor state
  // that the unwinding destructors write back into, while the engine (and
  // its object pools) stays alive for the cleanup itself. Idempotent;
  // ~Engine calls it as a fallback.
  void shutdown_actors();

  // --- services available from actor context ------------------------------
  double now() const { return now_; }
  Actor* current_actor() const { return current_; }

  // Block the current actor until `activity` completes.
  void wait_on(Activity& activity);
  // Block the current actor for `duration` simulated seconds.
  void sleep_for(double duration);
  // Give other runnable actors a chance to run at the current date.
  void yield();

  // --- services for models / higher layers --------------------------------
  using TimerFn = SmallFunction<void(), 48>;
  // Runs `callback` once virtual time reaches `date`. A timer at kNever
  // never fires.
  void add_timer(double date, TimerFn callback);
  void wake(Actor* actor);
  EventCalendar& calendar() { return calendar_; }

  // Hot-path object recycling (see sim/pool.hpp). The pools are engine
  // members so every fork-isolated campaign scenario gets fresh ones; they
  // are declared first so they outlive every pooled object.
  bool pooling() const { return config_.pool_objects; }
  BlockPool& object_pool() { return object_pool_; }
  BufferPool& buffer_pool() { return buffer_pool_; }
  const BlockPool& object_pool() const { return object_pool_; }
  const BufferPool& buffer_pool() const { return buffer_pool_; }
  // Queue `model` for a single on_settle() call before time next advances
  // (idempotent until the settle runs). Use Model::request_settle().
  void request_settle(Model* model);

  // Higher layers (the MPI world) can attach a wait-for reporter: its output
  // is appended to the DeadlockError message so the diagnostic can name the
  // blocked MPI operation per rank, not just the actor names.
  void set_deadlock_reporter(std::function<std::string()> reporter) {
    deadlock_reporter_ = std::move(reporter);
  }

  // The engine currently executing (set for the duration of run()).
  static Engine* current();

  // O(1): maintained incrementally — the main loop consults it after every
  // scheduling round, so a scan over all actors would be quadratic at 1024
  // ranks.
  std::size_t live_actor_count() const { return live_actors_; }
  const std::vector<std::unique_ptr<Actor>>& actors() const { return actors_; }

  // Diagnostics: total timers ever created (the poll-subscription path in
  // the MPI layer asserts it stays sub-linear in simulated polls).
  std::uint64_t timers_created() const { return timers_created_; }

 private:
  void run_actor(Actor* actor);
  // Advance the clock to the next event; returns false when nothing is left.
  bool advance_time();
  // Run the pending on_settle() hooks (at the current date).
  void drain_settles();
  void suspend_current();

  // Owner of the timers' calendar entries: each entry's tag indexes the
  // slot holding its callback. Fired slots are recycled through a free
  // list, so a warm timer costs no allocation.
  class CallbackSlots final : public Model {
   public:
    std::uint64_t store(TimerFn callback);
    void on_calendar_event(double now, std::uint64_t slot) override;

   private:
    std::vector<TimerFn> callbacks_;
    std::vector<std::uint64_t> free_;
  };

  EngineConfig config_;
  // Destroyed last (declared first): pooled objects live in actors' stack
  // frames and in the models below, all of which die before these.
  BlockPool object_pool_;
  BufferPool buffer_pool_;
  std::unique_ptr<ContextFactory> context_factory_;
  double now_ = 0;
  std::vector<std::unique_ptr<Actor>> actors_;
  // FIFO of ready actors as a vector + head cursor instead of a deque: the
  // scheduler drains it fully every round, at which point it resets to
  // offset 0 with its capacity kept — a deque's chunk recycling would
  // allocate every ~64 pushes forever, breaking the zero-allocation
  // steady state the pools exist for.
  std::vector<Actor*> runnable_;
  std::size_t runnable_head_ = 0;
  bool runnable_empty() const { return runnable_head_ == runnable_.size(); }
  void runnable_push(Actor* actor) { runnable_.push_back(actor); }
  Actor* runnable_pop() {
    Actor* actor = runnable_[runnable_head_++];
    if (runnable_head_ == runnable_.size()) {
      runnable_.clear();
      runnable_head_ = 0;
    }
    return actor;
  }
  std::size_t live_actors_ = 0;
  Actor* current_ = nullptr;
  std::vector<std::shared_ptr<Model>> models_;
  EventCalendar calendar_;
  std::vector<Model*> settle_queue_;
  CallbackSlots timer_slots_;
  std::uint64_t timers_created_ = 0;
  bool running_ = false;
  bool stop_requested_ = false;
  std::function<std::string()> deadlock_reporter_;
};

}  // namespace smpi::sim
