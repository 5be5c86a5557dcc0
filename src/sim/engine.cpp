#include "sim/engine.hpp"

#include <sstream>

#include "obs/profile.hpp"
#include "util/check.hpp"

namespace smpi::sim {

namespace {
Engine* g_current_engine = nullptr;
}  // namespace

void Model::request_settle() {
  SMPI_REQUIRE(engine_ != nullptr, "model not registered with an engine (add_model)");
  engine_->request_settle(this);
}

// ---------------------------------------------------------------------------
// Activity
// ---------------------------------------------------------------------------

Activity::Activity(std::string label) : label_(std::move(label)) {}

Activity::State Activity::wait() {
  if (!completed()) {
    Engine* engine = Engine::current();
    SMPI_REQUIRE(engine != nullptr && engine->current_actor() != nullptr,
                 "Activity::wait outside actor context");
    engine->wait_on(*this);
  }
  return state_;
}

void Activity::on_completion(CompletionFn callback) {
  if (completed()) {
    callback(*this);
  } else {
    callbacks_.push_back(std::move(callback));
  }
}

void Activity::finish(State state) {
  SMPI_REQUIRE(state != State::kRunning, "finish() with kRunning");
  if (completed()) return;  // idempotent (cancel after completion, etc.)
  state_ = state;
  Engine* engine = Engine::current();
  finish_time_ = engine != nullptr ? engine->now() : 0;
  if (engine != nullptr) {
    for (Actor* actor : waiters_) engine->wake(actor);
  }
  waiters_.clear();
  // Callbacks may start new activities or finish other ones — steal the
  // list before firing so re-registrations land on a clean vector. Most
  // activities carry no callback; skip the steal for those.
  if (!callbacks_.empty()) {
    auto callbacks = std::move(callbacks_);
    for (auto& cb : callbacks) cb(*this);
  }
}

ActivityPtr new_activity(const char* label) {
  Engine* engine = Engine::current();
  if (engine != nullptr && engine->pooling()) {
    return std::allocate_shared<Activity>(PoolAllocator<Activity>(&engine->object_pool()),
                                          label);
  }
  return std::make_shared<Activity>(label);
}

// ---------------------------------------------------------------------------
// Actor
// ---------------------------------------------------------------------------

Actor::Actor(Engine* engine, int pid, int node, std::string name)
    : engine_(engine), pid_(pid), node_(node), name_(std::move(name)) {}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(EngineConfig config)
    : config_(config), context_factory_(ContextFactory::make(config_.stack_bytes)) {
  SMPI_REQUIRE(g_current_engine == nullptr, "only one Engine may exist at a time");
  g_current_engine = this;
}

Engine::~Engine() {
  // Destroy actors before anything else so their contexts can unwind while
  // the engine still exists.
  shutdown_actors();
  g_current_engine = nullptr;
}

void Engine::shutdown_actors() {
  actors_.clear();
  live_actors_ = 0;
  current_ = nullptr;
}

Engine* Engine::current() { return g_current_engine; }

Actor* Engine::spawn(std::string name, int node, std::function<void()> body) {
  auto actor = std::unique_ptr<Actor>(new Actor(this, static_cast<int>(actors_.size()), node,
                                                std::move(name)));
  Actor* raw = actor.get();
  actor->context_ = context_factory_->create(
      [this, raw, body = std::move(body)] {
        body();
        raw->state_ = Actor::State::kDead;
      },
      raw->name());
  runnable_push(raw);
  actors_.push_back(std::move(actor));
  ++live_actors_;
  return raw;
}

void Engine::add_model(std::shared_ptr<Model> model) {
  model->engine_ = this;
  model->calendar_ = &calendar_;
  models_.push_back(std::move(model));
}

void Engine::request_settle(Model* model) {
  if (model->settle_pending_) return;
  model->settle_pending_ = true;
  settle_queue_.push_back(model);
}

void Engine::drain_settles() {
  // Index loop: a settle hook may legitimately queue further settles.
  for (std::size_t i = 0; i < settle_queue_.size(); ++i) {
    Model* model = settle_queue_[i];
    model->settle_pending_ = false;
    model->on_settle(now_);
  }
  settle_queue_.clear();
}

void Engine::run_actor(Actor* actor) {
  if (!actor->alive()) return;
  current_ = actor;
  actor->state_ = Actor::State::kRunning;
  {
    // One "call" per context switch into an actor; seconds = host time spent
    // inside the resumed slice (includes the rank's user code).
    obs::ProfScope prof(obs::ProfKey::kContextSwitch);
    actor->context_->resume();
  }
  current_ = nullptr;
  // Actors only die inside their own resume (the body returning), so this is
  // the single place the live count can drop.
  if (actor->state_ == Actor::State::kDead || actor->context_->done()) {
    actor->state_ = Actor::State::kDead;
    SMPI_ENSURE(live_actors_ > 0, "live actor count underflow");
    --live_actors_;
  }
}

void Engine::run() {
  SMPI_REQUIRE(!running_, "Engine::run is not reentrant");
  running_ = true;
  while (true) {
    // Phase 1: run every runnable actor until it blocks or dies. Actors made
    // runnable during this phase (e.g. woken by a completion triggered from
    // another actor) run within the same phase, at the same date.
    while (!runnable_empty() && !stop_requested_) {
      Actor* actor = runnable_pop();
      run_actor(actor);
    }
    // A stop request (abort) freezes the world here: actors that unwound
    // have freed their frames, and pending completions/timers hold raw
    // pointers into them — dispatching anything further would be a
    // use-after-free. Remaining live actors are torn down by ~Engine.
    if (stop_requested_) break;
    if (live_actor_count() == 0) break;
    // Phase 2: let time flow to the next event.
    if (!advance_time()) {
      std::ostringstream os;
      os << "deadlock at t=" << now_ << ": " << live_actor_count()
         << " actor(s) blocked forever:";
      for (const auto& actor : actors_) {
        if (actor->alive()) os << ' ' << actor->name();
      }
      if (deadlock_reporter_) {
        std::string detail = deadlock_reporter_();
        if (!detail.empty()) os << '\n' << detail;
      }
      running_ = false;
      throw DeadlockError(os.str());
    }
  }
  running_ = false;
}

bool Engine::advance_time() {
  obs::ProfScope prof(obs::ProfKey::kCalendarAdvance);
  // Let models fold the batch of mutations made since the last step (flow
  // arrivals/departures at the current date) into fresh calendar entries
  // before we look at what comes next.
  drain_settles();
  const double next = calendar_.next_date();
  if (next == kNever) return false;
  SMPI_ENSURE(next >= now_, "time went backwards");
  if (config_.max_sim_time > 0 && next > config_.max_sim_time) {
    std::ostringstream os;
    os << "simulated-time limit exceeded: next event at t=" << next << " is past --max-sim-time="
       << config_.max_sim_time << " (" << live_actor_count() << " actor(s) still live)";
    running_ = false;
    throw TimeLimitError(os.str());
  }
  now_ = next;
  // Dispatch everything due at the new date in (date, creation) order.
  // Handling an entry may push new due entries (a timer callback arming
  // another timer, a completion re-solve that drops another activity's
  // remaining work to zero); pop_due picks those up within the same step.
  EventCalendar::Fired fired;
  while (calendar_.pop_due(now_, &fired)) fired.owner->on_calendar_event(now_, fired.tag);
  return true;
}

void Engine::suspend_current() {
  Actor* actor = current_;
  SMPI_REQUIRE(actor != nullptr, "no current actor to suspend");
  actor->state_ = Actor::State::kBlocked;
  actor->context_->suspend();
  // Back from the kernel: we are running again.
  actor->state_ = Actor::State::kRunning;
}

void Engine::wait_on(Activity& activity) {
  if (activity.completed()) return;
  activity.waiters_.push_back(current_);
  suspend_current();
}

void Engine::sleep_for(double duration) {
  SMPI_REQUIRE(duration >= 0, "negative sleep");
  auto token = new_activity("sleep");
  add_timer(now_ + duration, [token] { token->finish(Activity::State::kDone); });
  wait_on(*token);
}

void Engine::yield() {
  Actor* actor = current_;
  SMPI_REQUIRE(actor != nullptr, "yield outside actor context");
  // Stay kReady (not kBlocked) so a stray wake() cannot enqueue us twice.
  actor->state_ = Actor::State::kReady;
  runnable_push(actor);
  actor->context_->suspend();
  actor->state_ = Actor::State::kRunning;
}

void Engine::add_timer(double date, TimerFn callback) {
  SMPI_REQUIRE(date >= now_, "timer in the past");
  ++timers_created_;
  if (date == kNever) return;
  calendar_.schedule(date, &timer_slots_, timer_slots_.store(std::move(callback)));
}

std::uint64_t Engine::CallbackSlots::store(TimerFn callback) {
  if (free_.empty()) {
    callbacks_.push_back(std::move(callback));
    return callbacks_.size() - 1;
  }
  const std::uint64_t slot = free_.back();
  free_.pop_back();
  callbacks_[slot] = std::move(callback);
  return slot;
}

void Engine::CallbackSlots::on_calendar_event(double /*now*/, std::uint64_t slot) {
  // Free the slot before firing: the callback may arm a timer of its own.
  TimerFn callback = std::move(callbacks_[slot]);
  free_.push_back(slot);
  callback();
}

void Engine::wake(Actor* actor) {
  // Only a blocked actor can be woken; an actor that is already queued
  // (kReady) or running must not be enqueued a second time.
  if (!actor->alive() || actor->state_ != Actor::State::kBlocked) return;
  actor->state_ = Actor::State::kReady;
  runnable_push(actor);
}

}  // namespace smpi::sim
