// Activities are the things simulated processes wait on: a computation, a
// network flow, a sleep, or a synthetic condition completed by higher layers
// (the MPI matching engine backs every MPI_Request with one).
#pragma once

#include <algorithm>
#include <memory>

#include "sim/small.hpp"

namespace smpi::sim {

class Actor;
class Engine;

class Activity {
 public:
  enum class State { kRunning, kDone, kFailed };

  State state() const { return state_; }
  bool completed() const { return state_ != State::kRunning; }

  // Block the calling actor until the activity completes. Returns the final
  // state. Must be called from actor context.
  State wait();
  // Non-blocking check.
  bool test() const { return completed(); }

  // Completion hook; fires exactly once, immediately if already completed.
  // The callback type keeps hot-path captures (a shared_ptr or two plus a
  // few scalars) in inline storage — no heap traffic per registration.
  using CompletionFn = SmallFunction<void(Activity&), 48>;
  void on_completion(CompletionFn callback);

  // Mark complete and wake all waiting actors (at the engine's current time).
  void finish(State state);

  // Virtual time at which the activity completed (meaningful once completed).
  double finish_time() const { return finish_time_; }

 private:
  friend class Engine;
  State state_ = State::kRunning;
  double finish_time_ = -1;
  // The common fan-out is one waiter (a waitany-style helper may add a
  // second) and at most one callback, so a pooled Activity's whole
  // construct/wait/finish/destroy cycle allocates nothing. A second
  // callback spills to the heap; no hot path registers one.
  InlineVec<Actor*, 2> waiters_;
  InlineVec<CompletionFn, 1> callbacks_;
};

using ActivityPtr = std::shared_ptr<Activity>;

// Engine-pooled Activity factory: recycles the object + control-block
// storage from the current engine's BlockPool when one exists and pooling
// is enabled, else falls back to a plain make_shared.
ActivityPtr new_activity();

// Lazy remaining-work accounting for fluid activities (flows, executions).
//
// Instead of integrating every activity's progress on every engine step, the
// remaining amount is only materialized when this activity's own rate
// changes: remaining_at(t) = remaining - rate * (t - last_update). A solver
// re-solve therefore touches exactly the activities whose allocation
// changed; all others keep a valid (rate, last_update) pair untouched.
class FluidWork {
 public:
  void start(double total, double now) {
    remaining_ = total;
    rate_ = 0;
    last_update_ = now;
  }

  double remaining_at(double now) const {
    return std::max(0.0, remaining_ - rate_ * (now - last_update_));
  }

  // Folds the progress made at the old rate, then switches to `rate`.
  void set_rate(double rate, double now) {
    remaining_ = remaining_at(now);
    rate_ = rate;
    last_update_ = now;
  }

  // Date at which the work hits zero under the current rate; kNever-like
  // infinity when the rate is zero and work remains.
  double completion_date(double now) const {
    const double remaining = remaining_at(now);
    if (remaining <= 0) return now;
    return now + remaining / rate_;  // +inf when rate_ == 0
  }

  double rate() const { return rate_; }
  double last_update() const { return last_update_; }

 private:
  double remaining_ = 0;
  double rate_ = 0;
  double last_update_ = 0;
};

}  // namespace smpi::sim
