// Weighted max-min fairness solver — the analytical heart of the contention
// model (§4.2). At every instant the bandwidth allocated to each active flow
// is computed given the network topology and all currently active flows:
// flows are variables, links are capacity constraints, and the solver
// performs classic progressive filling ("water filling") with per-variable
// rate bounds.
//
// The same solver shares CPU cores among computations.
//
// Two solve strategies live behind SolveMode:
//
//   kLazy  — (default) SimGrid-style partial invalidation: a mutation seeds
//            only the variables/constraints it provably affects, and the
//            re-solve grows a *modified set* outward through shared
//            constraints only while member allocations actually change. A
//            bcast tree where one link changes re-solves only the affected
//            subtree; an unsaturated backbone never floods the whole
//            connected component. See docs/architecture.md for the
//            promotion rule and its correctness argument.
//   kFull  — reference path: every mutation marks the system dirty, and
//            solve() re-runs progressive filling over the whole system from
//            scratch.
//
// set_mode(SolveMode::kFull) selects the reference solve for equivalence
// testing; the property test in test_surf_maxmin.cpp asserts both modes
// agree within 1e-9 under randomized churn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace smpi::surf {

enum class SolveMode {
  kFull,  // re-solve everything on every solve()
  kLazy,  // modified-set propagation (default)
};

class MaxMinSystem {
 public:
  static constexpr double kUnbounded = std::numeric_limits<double>::infinity();

  // Returns a constraint id. Capacity must be > 0.
  int new_constraint(double capacity);
  // Returns a variable id. weight scales the variable's fair share; bound is
  // an absolute cap on its value.
  int new_variable(double weight = 1.0, double bound = kUnbounded);
  // Makes `variable` consume `constraint` (coefficient 1: every byte of a
  // flow crosses every link of its route once).
  void attach(int variable, int constraint);

  void set_bound(int variable, double bound);
  void set_capacity(int constraint, double capacity);
  // Detaches and retires the variable; its id may be recycled. The variable
  // stops contributing to constraint_usage() immediately.
  void release_variable(int variable);

  // Recomputes the allocations affected by mutations since the last solve
  // (all of them when the mode is kFull).
  void solve();
  bool dirty() const { return dirty_; }
  double value(int variable) const;

  // Solve strategy selection.
  void set_mode(SolveMode mode) { mode_ = mode; }
  SolveMode mode() const { return mode_; }

  // Update notification: ids of the variables whose allocation was recomputed
  // by the last solve(). Consumers reschedule completion events only for
  // these instead of re-deriving every activity's date.
  const std::vector<int>& last_solved_variables() const { return last_solved_; }

  std::size_t active_variable_count() const { return active_variables_; }
  std::size_t constraint_count() const { return constraints_.size(); }

  // Diagnostics for property tests: total allocation crossing a constraint.
  // Released variables never contribute, even before the next solve().
  double constraint_usage(int constraint) const;

  // Perf counters (cumulative): how much work the solver actually did.
  // vars_touched/cons_touched count every variable/constraint fed through a
  // progressive-filling pass (lazy iterations re-count what they re-fill, so
  // the counters reflect true work, not set sizes).
  std::uint64_t solve_count() const { return solve_count_; }
  std::uint64_t vars_touched() const { return vars_touched_; }
  std::uint64_t cons_touched() const { return cons_touched_; }

  // --- Observation API (obs/resource layer) -------------------------------
  // While observing, the system records which constraints' usage or
  // membership changed since the last drain. Solver fills are not the only
  // source: release_variable() on an unsaturated constraint drops its usage
  // immediately without ever triggering a solve in lazy mode, so an observer
  // polling after solves alone would miss steps. Draining the changed set at
  // every model settle instead yields exact piecewise-constant timelines.
  // Off (the default) costs one predictable branch on the mutation paths and
  // changes no allocation arithmetic.
  void set_observing(bool on);
  bool observing() const { return observing_; }
  // Appends the ids of constraints changed since the last drain, then clears
  // the changed set. An id appears at most once per drain.
  void drain_changed_constraints(std::vector<int>& out);
  double constraint_capacity(int constraint) const;
  // A constraint is saturated when its exact usage reaches capacity within
  // the solver's saturation epsilon (1e-9 relative) — the same notion the
  // lazy promotion rule uses.
  bool constraint_saturated(int constraint) const;
  // Single-pass snapshot accessor for the observability drain: appends the
  // active (variable, allocation) pairs and returns usage/capacity/saturated
  // from the same member walk — three separate accessor calls would iterate
  // the membership list three times per drained constraint.
  struct ConstraintState {
    double usage = 0;
    double capacity = 0;
    bool saturated = false;
  };
  ConstraintState constraint_observe(int constraint,
                                     std::vector<std::pair<int, double>>& shares_out) const;

  // Cumulative trigger/observation counters feeding the surf.* metrics
  // namespace. Solve triggers classify each solve() by the mutation kinds
  // pending since the previous solve (a solve batching several kinds counts
  // once per kind). saturation_events counts constraint-saturation fill
  // events inside progressive filling; observe_drains counts snapshot-hook
  // invocations (drain calls).
  struct ObserveCounters {
    std::uint64_t solves_attach = 0;
    std::uint64_t solves_release = 0;
    std::uint64_t solves_capacity = 0;
    std::uint64_t solves_bound = 0;
    std::uint64_t saturation_events = 0;
    std::uint64_t observe_drains = 0;
  };
  const ObserveCounters& observe_counters() const { return observe_counters_; }

 private:
  struct Variable {
    double weight = 1;
    double bound = kUnbounded;
    double value = 0;
    double old_value = 0;  // snapshot on entering the lazy modified set
    int fixed_by = -1;     // constraint that capped the last fill (-1: bound)
    bool active = false;
    bool fixed = false;
    bool in_set = false;   // member of the current round's re-fill set
    bool in_pass = false;  // touched at least once during this solve()
    bool seeded = false;   // queued in seed_variables_
    std::vector<int> constraints;
  };
  struct Constraint {
    double capacity = 0;
    std::vector<int> variables;  // released ids are eagerly removed
    bool dirty = false;
    bool in_set = false;    // full member of the current round's re-fill set
    bool in_pass = false;   // touched at least once during this solve()
    bool promoted = false;  // promoted at least once during this solve()
    bool boundary = false;  // partial member: only some variables in set
    bool changed = false;   // usage/membership changed since the last drain
    // Running sum of member values, maintained on every value change so the
    // lazy seeding saturation check is O(1) instead of O(members). May
    // carry float drift; the seeding epsilon is loose enough that drift
    // only ever causes extra (benign) seeding, and constraint_usage()
    // recomputes exactly for diagnostics.
    double usage = 0;
    // Scratch state for the progressive-filling loop.
    double remaining = 0;
    double weight_sum = 0;
    // Boundary walk of the last fill, read back by the promotion check: the
    // frozen usage of the out-of-set members (summed in member order), their
    // highest fill level, and the in-set members, in member order, as the
    // slice [in_set_begin, in_set_end) of boundary_members_.
    double external = 0;
    double max_external_level = 0;
    std::uint32_t in_set_begin = 0;
    std::uint32_t in_set_end = 0;
  };

  // Mutation-kind bits pending for the next solve()'s trigger classification.
  enum : std::uint8_t {
    kTrigAttach = 1u << 0,
    kTrigRelease = 1u << 1,
    kTrigCapacity = 1u << 2,
    kTrigBound = 1u << 3,
  };

  void note_changed(int constraint) {
    if (!observing_) return;
    auto& cons = constraints_[static_cast<std::size_t>(constraint)];
    if (!cons.changed) {
      cons.changed = true;
      changed_constraints_.push_back(constraint);
    }
  }

  void mark_dirty(int constraint);
  void mark_unconstrained_dirty(int variable);
  // The full reference re-solves after every mutation, independently of the
  // lazy seeding rules it is there to check.
  void mark_full_dirty() {
    if (mode_ == SolveMode::kFull) dirty_ = true;
  }
  // Lazy seeding: queue the variable for re-solve (its constraints join as
  // boundaries at solve time).
  void seed_variable(int variable);
  // Lazy seeding: queue the constraint as a full member iff it is saturated
  // (only then can its members' allocations move).
  void seed_constraint_if_binding(int constraint, double reference_capacity);
  // Modified-set propagation (kLazy): solve the seed set against frozen
  // boundaries, promoting boundaries whose member allocations changed.
  void solve_lazy();
  // Progressive filling restricted to the given constraint/variable ids.
  // Constraints flagged .boundary contribute capacity minus the usage of
  // their out-of-set members; the walk that sums it also records each
  // boundary's in-set members for the fill and the promotion check.
  void solve_subset(const std::vector<int>& cons_ids, const std::vector<int>& var_ids);

  std::vector<Variable> variables_;
  std::vector<Constraint> constraints_;
  std::vector<int> free_variable_ids_;
  std::vector<int> dirty_constraints_;      // ids with .dirty set
  std::vector<int> seed_variables_;         // lazy mode: ids with .seeded set
  std::vector<int> dirty_unconstrained_;    // variables with no constraints yet
  std::vector<int> comp_cons_;              // scratch: every constraint touched this solve
  std::vector<int> comp_vars_;              // scratch: every variable touched this solve
  std::vector<int> active_cons_;            // scratch: this round's re-fill set (lazy)
  std::vector<int> active_vars_;
  std::vector<int> promoted_cons_;          // scratch: boundaries promoted this round
  std::vector<int> boundary_cons_;          // scratch: current boundary frontier
  std::vector<int> all_cons_;               // scratch: active_cons_ + boundary_cons_
  std::vector<int> boundary_members_;       // scratch: in-set members of each boundary
  std::vector<int> live_cons_;              // scratch: fill constraints with weight_sum > 0
  std::vector<int> last_solved_;
  std::vector<int> changed_constraints_;    // observation: ids with .changed set
  std::vector<double> observe_prev_values_;  // scratch: pre-fill values of var_ids
  std::size_t active_variables_ = 0;
  bool dirty_ = false;
  bool observing_ = false;
  std::uint8_t pending_triggers_ = 0;
  SolveMode mode_ = SolveMode::kLazy;
  std::uint64_t solve_count_ = 0;
  std::uint64_t vars_touched_ = 0;
  std::uint64_t cons_touched_ = 0;
  ObserveCounters observe_counters_;
};

}  // namespace smpi::surf
