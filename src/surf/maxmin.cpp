#include "surf/maxmin.hpp"

#include <algorithm>
#include <cmath>

#include "obs/profile.hpp"
#include "util/check.hpp"

namespace smpi::surf {

namespace {
// A constraint counts as saturated when its usage reaches this fraction of
// capacity; only saturated constraints can move their members' allocations.
constexpr double kSatEps = 1e-9;
// Looser saturation margin for mutation-time *seeding* decisions, which
// consult the O(1) running usage: its float drift must only ever err toward
// seeding (extra work), never toward skipping a binding constraint.
constexpr double kSeedSatEps = 1e-6;
// A member's allocation counts as changed when it moved by more than this
// (relative to the constraint's capacity scale). Changes below the threshold
// are numerical dust from re-filling a subset in a different order; not
// propagating them keeps the modified set small and stays far inside the
// 1e-9 equivalence tolerance the property tests assert.
constexpr double kChangeEps = 1e-12;
// A member at (numerically) zero was starved by a frozen boundary and forces
// promotion regardless of the change test — final allocations are always
// strictly positive.
constexpr double kStarveEps = 1e-12;
}  // namespace

int MaxMinSystem::new_constraint(double capacity) {
  SMPI_REQUIRE(capacity > 0, "constraint capacity must be positive");
  constraints_.emplace_back();
  constraints_.back().capacity = capacity;
  // A fresh constraint has no members: nothing to re-solve in lazy mode.
  mark_full_dirty();
  return static_cast<int>(constraints_.size()) - 1;
}

int MaxMinSystem::new_variable(double weight, double bound) {
  SMPI_REQUIRE(weight > 0, "variable weight must be positive");
  SMPI_REQUIRE(bound > 0, "variable bound must be positive");
  int id;
  if (!free_variable_ids_.empty()) {
    id = free_variable_ids_.back();
    free_variable_ids_.pop_back();
    // Field-wise reset keeps the constraints vector's capacity — a recycled
    // variable re-attaches to about as many links as its predecessor, and a
    // whole-struct assignment made every attach re-grow from zero.
    auto& recycled = variables_[static_cast<std::size_t>(id)];
    recycled.weight = 1;
    recycled.bound = kUnbounded;
    recycled.value = 0;
    recycled.old_value = 0;
    recycled.fixed_by = -1;
    recycled.active = false;
    recycled.fixed = false;
    recycled.in_set = false;
    recycled.in_pass = false;
    recycled.seeded = false;
    recycled.constraints.clear();
  } else {
    id = static_cast<int>(variables_.size());
    variables_.emplace_back();
  }
  auto& var = variables_[static_cast<std::size_t>(id)];
  var.weight = weight;
  var.bound = bound;
  var.active = true;
  ++active_variables_;
  pending_triggers_ |= kTrigAttach;
  // Until attached somewhere the variable is its own component; if it is
  // still unconstrained at the next solve it takes its bound.
  mark_unconstrained_dirty(id);
  return id;
}

void MaxMinSystem::mark_dirty(int constraint) {
  auto& cons = constraints_[static_cast<std::size_t>(constraint)];
  if (!cons.dirty) {
    cons.dirty = true;
    dirty_constraints_.push_back(constraint);
  }
  dirty_ = true;
}

void MaxMinSystem::mark_unconstrained_dirty(int variable) {
  dirty_unconstrained_.push_back(variable);
  dirty_ = true;
}

void MaxMinSystem::seed_variable(int variable) {
  auto& var = variables_[static_cast<std::size_t>(variable)];
  if (!var.seeded) {
    var.seeded = true;
    seed_variables_.push_back(variable);
  }
  dirty_ = true;
}

void MaxMinSystem::seed_constraint_if_binding(int constraint, double reference_capacity) {
  const auto& cons = constraints_[static_cast<std::size_t>(constraint)];
  if (cons.dirty) return;
  // Unsaturated constraints constrain nobody: their members' allocations are
  // certified elsewhere and cannot move, so the mutation is inert here. The
  // O(1) running usage makes this check constant-time on the mutation path.
  if (cons.usage >= reference_capacity * (1 - kSeedSatEps)) {
    mark_dirty(constraint);
  }
}

void MaxMinSystem::attach(int variable, int constraint) {
  SMPI_REQUIRE(variable >= 0 && variable < static_cast<int>(variables_.size()), "bad variable");
  SMPI_REQUIRE(constraint >= 0 && constraint < static_cast<int>(constraints_.size()),
               "bad constraint");
  auto& var = variables_[static_cast<std::size_t>(variable)];
  SMPI_REQUIRE(var.active, "attach on retired variable");
  var.constraints.push_back(constraint);
  auto& cons = constraints_[static_cast<std::size_t>(constraint)];
  cons.variables.push_back(variable);
  cons.usage += var.value;
  pending_triggers_ |= kTrigAttach;
  note_changed(constraint);  // membership changed even at value 0
  // The new/updated variable must be re-solved; whether the constraint's
  // other members move is decided by boundary promotion at solve time.
  seed_variable(variable);
}

void MaxMinSystem::set_bound(int variable, double bound) {
  SMPI_REQUIRE(bound > 0, "bound must be positive");
  auto& var = variables_[static_cast<std::size_t>(variable)];
  SMPI_REQUIRE(var.active, "set_bound on retired variable");
  var.bound = bound;
  pending_triggers_ |= kTrigBound;
  if (var.constraints.empty()) {
    mark_unconstrained_dirty(variable);
  } else {
    seed_variable(variable);
  }
}

void MaxMinSystem::set_capacity(int constraint, double capacity) {
  SMPI_REQUIRE(capacity > 0, "capacity must be positive");
  auto& cons = constraints_[static_cast<std::size_t>(constraint)];
  const double old_capacity = cons.capacity;
  cons.capacity = capacity;
  pending_triggers_ |= kTrigCapacity;
  note_changed(constraint);
  // Members can only move if the constraint was saturated before (they may
  // grow) or its usage exceeds the new capacity (they must shrink).
  seed_constraint_if_binding(constraint, std::min(old_capacity, capacity));
  mark_full_dirty();
}

void MaxMinSystem::release_variable(int variable) {
  auto& var = variables_[static_cast<std::size_t>(variable)];
  SMPI_REQUIRE(var.active, "double release of variable");
  // The freed share must be redistributed: every *saturated* constraint the
  // variable crossed needs a re-solve (checked while the released value still
  // counts toward usage). Unsaturated ones constrained nobody.
  for (int c : var.constraints) {
    seed_constraint_if_binding(c, constraints_[static_cast<std::size_t>(c)].capacity);
  }
  mark_full_dirty();
  var.active = false;
  pending_triggers_ |= kTrigRelease;
  // Eagerly drop it from constraint membership lists (so constraint_usage()
  // never sees it again) and from the running usage sums. This is the path
  // that changes usage without ever reaching solve() in lazy mode — the
  // changed-set note here is what keeps observed timelines exact.
  for (int c : var.constraints) {
    auto& cons = constraints_[static_cast<std::size_t>(c)];
    cons.usage -= var.value;
    cons.variables.erase(std::remove(cons.variables.begin(), cons.variables.end(), variable),
                         cons.variables.end());
    note_changed(c);
  }
  var.value = 0;
  var.constraints.clear();
  free_variable_ids_.push_back(variable);
  SMPI_ENSURE(active_variables_ > 0, "active variable count underflow");
  --active_variables_;
}

double MaxMinSystem::value(int variable) const {
  const auto& var = variables_[static_cast<std::size_t>(variable)];
  SMPI_REQUIRE(var.active, "value of retired variable");
  return var.value;
}

void MaxMinSystem::set_observing(bool on) {
  observing_ = on;
  if (!on) {
    for (int c : changed_constraints_) {
      constraints_[static_cast<std::size_t>(c)].changed = false;
    }
    changed_constraints_.clear();
  }
}

void MaxMinSystem::drain_changed_constraints(std::vector<int>& out) {
  ++observe_counters_.observe_drains;
  for (int c : changed_constraints_) {
    constraints_[static_cast<std::size_t>(c)].changed = false;
    out.push_back(c);
  }
  changed_constraints_.clear();
}

double MaxMinSystem::constraint_capacity(int constraint) const {
  return constraints_[static_cast<std::size_t>(constraint)].capacity;
}

bool MaxMinSystem::constraint_saturated(int constraint) const {
  const auto& cons = constraints_[static_cast<std::size_t>(constraint)];
  return constraint_usage(constraint) >= cons.capacity * (1 - kSatEps);
}

MaxMinSystem::ConstraintState MaxMinSystem::constraint_observe(
    int constraint, std::vector<std::pair<int, double>>& shares_out) const {
  const auto& cons = constraints_[static_cast<std::size_t>(constraint)];
  ConstraintState state;
  state.capacity = cons.capacity;
  for (int v : cons.variables) {
    const auto& var = variables_[static_cast<std::size_t>(v)];
    if (!var.active) continue;
    state.usage += var.value;
    shares_out.emplace_back(v, var.value);
  }
  state.saturated = state.usage >= cons.capacity * (1 - kSatEps);
  return state;
}

double MaxMinSystem::constraint_usage(int constraint) const {
  const auto& cons = constraints_[static_cast<std::size_t>(constraint)];
  double usage = 0;
  for (int v : cons.variables) {
    const auto& var = variables_[static_cast<std::size_t>(v)];
    if (var.active) usage += var.value;
  }
  return usage;
}

void MaxMinSystem::solve() {
  if (!dirty_) return;
  obs::ProfScope prof(obs::ProfKey::kSolverSolve);
  dirty_ = false;
  ++solve_count_;
  if (pending_triggers_ & kTrigAttach) ++observe_counters_.solves_attach;
  if (pending_triggers_ & kTrigRelease) ++observe_counters_.solves_release;
  if (pending_triggers_ & kTrigCapacity) ++observe_counters_.solves_capacity;
  if (pending_triggers_ & kTrigBound) ++observe_counters_.solves_bound;
  pending_triggers_ = 0;
  last_solved_.clear();

  // Variables that are (still) unconstrained take their bound directly.
  for (int v : dirty_unconstrained_) {
    auto& var = variables_[static_cast<std::size_t>(v)];
    if (!var.active || !var.constraints.empty()) continue;  // released / attached since
    SMPI_REQUIRE(std::isfinite(var.bound),
                 "variable without constraints needs a finite bound");
    var.value = var.bound;
    var.fixed = true;
    last_solved_.push_back(v);
  }
  dirty_unconstrained_.clear();

  if (mode_ == SolveMode::kLazy) {
    solve_lazy();
    return;
  }

  // Reference path: drop the lazy seeds and re-solve the whole system from
  // scratch.
  for (int v : seed_variables_) variables_[static_cast<std::size_t>(v)].seeded = false;
  seed_variables_.clear();
  for (int c : dirty_constraints_) constraints_[static_cast<std::size_t>(c)].dirty = false;
  dirty_constraints_.clear();
  comp_cons_.clear();
  comp_vars_.clear();
  for (int c = 0; c < static_cast<int>(constraints_.size()); ++c) comp_cons_.push_back(c);
  for (int v = 0; v < static_cast<int>(variables_.size()); ++v) {
    const auto& var = variables_[static_cast<std::size_t>(v)];
    if (var.active && !var.constraints.empty()) comp_vars_.push_back(v);
  }
  solve_subset(comp_cons_, comp_vars_);
  last_solved_.insert(last_solved_.end(), comp_vars_.begin(), comp_vars_.end());
}

// Modified-set propagation. The seed set (mutated constraints that were
// binding, plus mutated variables) is solved against its *boundary*: a
// constraint partially inside the set contributes capacity minus the frozen
// usage of its out-of-set members. After each fill, a boundary is promoted
// to a full member — pulling its remaining members into the set — iff
//   (a) it is saturated before or after (only then does it constrain
//       anyone; unsaturated constraints certify nobody's allocation), and
//   (b) some in-set member's allocation actually changed (or was starved to
//       zero by the frozen remainder — real allocations are positive).
// When no boundary promotes, every out-of-set variable keeps a valid
// bottleneck certificate, so the untouched allocations remain exactly the
// global max-min solution.
//
// Promotion rounds are *incremental*: after each fill the just-solved
// members freeze (they now carry fresh certificates against the current
// state) and the next round re-fills only the newly-promoted constraints and
// their members. A frozen variable whose certificate a later round
// invalidates is simply pulled back in through the same promotion rule — the
// fixpoint condition (no boundary of the final active set promotes) is
// unchanged, but a chain of k promotions now costs the sum of the local
// re-fills instead of k times the grown set. A promotion budget guards the
// adversarial ping-pong case: past it, the rounds revert to the monotone
// grow-and-refill behaviour whose termination is bounded by the constraint
// count.
void MaxMinSystem::solve_lazy() {
  comp_cons_.clear();
  comp_vars_.clear();
  active_cons_.clear();
  active_vars_.clear();

  auto activate_var = [&](int v) {
    auto& var = variables_[static_cast<std::size_t>(v)];
    // Unconstrained variables are handled by the bound path in solve().
    if (!var.active || var.in_set || var.constraints.empty()) return;
    var.in_set = true;
    var.old_value = var.value;
    active_vars_.push_back(v);
    if (!var.in_pass) {
      var.in_pass = true;
      comp_vars_.push_back(v);
    }
  };
  auto activate_cons = [&](int c) {
    auto& cons = constraints_[static_cast<std::size_t>(c)];
    cons.dirty = false;
    if (cons.in_set) return;
    cons.in_set = true;
    cons.boundary = false;
    active_cons_.push_back(c);
    if (!cons.in_pass) {
      cons.in_pass = true;
      comp_cons_.push_back(c);
    }
    for (int v : cons.variables) activate_var(v);
  };

  for (int c : dirty_constraints_) activate_cons(c);
  dirty_constraints_.clear();
  for (int v : seed_variables_) {
    variables_[static_cast<std::size_t>(v)].seeded = false;
    activate_var(v);
  }
  seed_variables_.clear();

  bool monotone = false;  // set once any constraint is promoted twice

  while (!active_vars_.empty()) {
    // Discover the boundary: constraints touched by active variables but not
    // active full members — including constraints already solved in an
    // earlier round, whose members are now frozen at certified values.
    boundary_cons_.clear();
    for (int v : active_vars_) {
      for (int c : variables_[static_cast<std::size_t>(v)].constraints) {
        auto& cons = constraints_[static_cast<std::size_t>(c)];
        if (!cons.in_set && !cons.boundary) {
          cons.boundary = true;
          boundary_cons_.push_back(c);
        }
      }
    }
    all_cons_ = active_cons_;
    all_cons_.insert(all_cons_.end(), boundary_cons_.begin(), boundary_cons_.end());

    solve_subset(all_cons_, active_vars_);

    // The fill's boundary walk recorded each boundary's frozen remainder,
    // highest out-of-set level and in-set members; the fill moves only
    // in-set values, so all three still hold here.
    promoted_cons_.clear();
    for (int c : boundary_cons_) {
      auto& cons = constraints_[static_cast<std::size_t>(c)];
      double in_old = 0, in_new = 0;
      double min_capped_level = kUnbounded;
      bool changed = false, starved = false;
      for (std::uint32_t i = cons.in_set_begin; i < cons.in_set_end; ++i) {
        const auto& var = variables_[static_cast<std::size_t>(boundary_members_[i])];
        in_old += var.old_value;
        in_new += var.value;
        if (std::fabs(var.value - var.old_value) > kChangeEps * std::max(1.0, cons.capacity)) {
          changed = true;
        }
        if (var.value <= kStarveEps * cons.capacity) starved = true;
        if (var.fixed_by == c) {
          min_capped_level = std::min(min_capped_level, var.value / var.weight);
        }
      }
      const double saturation = cons.capacity * (1 - kSatEps);
      const bool saturated_before = cons.external + in_old >= saturation;
      const bool saturated_after = cons.external + in_new >= saturation;
      // This boundary's frozen remainder capped an in-set member below an
      // out-of-set member's fill level: global max-min would equalize them
      // (the frozen member must shrink), so fairness across the boundary is
      // unresolved even though no in-set value moved.
      const bool squeezed = cons.max_external_level > min_capped_level * (1 + kSatEps);
      if (squeezed || ((changed || starved) && (saturated_before || saturated_after))) {
        promoted_cons_.push_back(c);
      }
    }
    for (int c : boundary_cons_) constraints_[static_cast<std::size_t>(c)].boundary = false;
    if (promoted_cons_.empty()) break;

    // Re-promotion detector: a constraint promoted twice in one pass means
    // the frozen/active frontier is oscillating (two neighbourhoods keep
    // invalidating each other's fill, typically through a tied bottleneck
    // attribution). Monotone growth resolves that by construction — each
    // further round jointly fills everything touched so far — and by the
    // pigeonhole bound terminates within #constraints promotions.
    for (int c : promoted_cons_) {
      auto& cons = constraints_[static_cast<std::size_t>(c)];
      if (cons.promoted) monotone = true;
      cons.promoted = true;
    }
    if (!monotone) {
      // Incremental round: freeze the just-solved members; only the promoted
      // constraints' neighbourhoods re-fill (re-snapshotting old_value for
      // any member that re-enters).
      for (int v : active_vars_) variables_[static_cast<std::size_t>(v)].in_set = false;
      for (int c : active_cons_) constraints_[static_cast<std::size_t>(c)].in_set = false;
      active_vars_.clear();
      active_cons_.clear();
    }
    for (int c : promoted_cons_) activate_cons(c);
  }

  for (int c : comp_cons_) {
    auto& cons = constraints_[static_cast<std::size_t>(c)];
    cons.in_set = false;
    cons.in_pass = false;
    cons.promoted = false;
  }
  for (int v : comp_vars_) {
    auto& var = variables_[static_cast<std::size_t>(v)];
    var.in_set = false;
    var.in_pass = false;
    last_solved_.push_back(v);
  }
}

void MaxMinSystem::solve_subset(const std::vector<int>& cons_ids,
                                const std::vector<int>& var_ids) {
  // Progressive filling: all unfixed variables grow their value as
  // mu * weight for a common scale mu. The next event is either a variable
  // hitting its bound or a constraint saturating; process events in order
  // until every variable is fixed.
  constexpr double kEpsRel = 1e-12;

  boundary_members_.clear();
  for (int c : cons_ids) {
    auto& cons = constraints_[static_cast<std::size_t>(c)];
    if (cons.boundary) {
      // Boundary constraint: its out-of-set members keep their allocation,
      // so only the leftover capacity is up for filling. The one walk over
      // the members also records what the promotion check and the fill need.
      double external = 0;
      double max_external_level = 0;
      cons.in_set_begin = static_cast<std::uint32_t>(boundary_members_.size());
      for (int v : cons.variables) {
        const auto& var = variables_[static_cast<std::size_t>(v)];
        if (!var.active) continue;
        if (var.in_set) {
          boundary_members_.push_back(v);
        } else {
          external += var.value;
          max_external_level = std::max(max_external_level, var.value / var.weight);
        }
      }
      cons.in_set_end = static_cast<std::uint32_t>(boundary_members_.size());
      cons.external = external;
      cons.max_external_level = max_external_level;
      cons.remaining = std::max(0.0, cons.capacity - external);
    } else {
      cons.remaining = cons.capacity;
    }
    cons.weight_sum = 0;
  }
  if (observing_) {
    // Snapshot-worthiness is decided per variable after the fill: a
    // constraint's usage and share set only move when some member's value
    // moves (membership and capacity mutations are noted at their call
    // sites), so capture the pre-fill values and compare at the end —
    // re-solves that land on the same allocation then cost no snapshots.
    observe_prev_values_.clear();
    for (int v : var_ids) {
      observe_prev_values_.push_back(variables_[static_cast<std::size_t>(v)].value);
    }
  }
  std::size_t unfixed = 0;
  for (int v : var_ids) {
    auto& var = variables_[static_cast<std::size_t>(v)];
    var.fixed = false;
    ++unfixed;
    for (int c : var.constraints) {
      auto& cons = constraints_[static_cast<std::size_t>(c)];
      cons.weight_sum += var.weight;
      cons.usage -= var.value;  // re-added when the fill fixes the variable
    }
    var.value = 0;
  }
  vars_touched_ += var_ids.size();
  cons_touched_ += cons_ids.size();

  // A lower bound on the lowest bound level (bound / weight) among the
  // unfixed variables, exact while at_mu_bound > 0 unfixed variables sit on
  // it. Fixing a variable only raises the true minimum, so a stale level
  // above the next constraint event still decides that event correctly:
  // the variables are rescanned only once the fill reaches a level whose
  // variables are all fixed.
  double mu_bound = -MaxMinSystem::kUnbounded;
  std::size_t at_mu_bound = 0;
  auto fix_variable = [&](Variable& var, double value, int by) {
    if (var.bound / var.weight == mu_bound) --at_mu_bound;
    var.value = value;
    var.fixed = true;
    var.fixed_by = by;
    for (int c : var.constraints) {
      auto& cons = constraints_[static_cast<std::size_t>(c)];
      cons.remaining -= value;
      if (cons.remaining < 0) cons.remaining = 0;
      cons.weight_sum -= var.weight;
      if (cons.weight_sum < kEpsRel) cons.weight_sum = 0;
      cons.usage += value;
    }
    --unfixed;
  };

  // Constraints with unfixed members, in cons_ids order. A weight_sum only
  // ever shrinks during the fill, so a constraint that reaches 0 leaves for
  // good; each event's min scan drops them.
  live_cons_.assign(cons_ids.begin(), cons_ids.end());
  while (unfixed > 0) {
    // Scale at which the first constraint saturates.
    double mu_constraint = MaxMinSystem::kUnbounded;
    std::size_t live = 0;
    for (int c : live_cons_) {
      const auto& cons = constraints_[static_cast<std::size_t>(c)];
      if (!(cons.weight_sum > 0)) continue;
      live_cons_[live++] = c;
      mu_constraint = std::min(mu_constraint, cons.remaining / cons.weight_sum);
    }
    live_cons_.resize(live);
    // Scale at which the first variable hits its bound.
    if (at_mu_bound == 0 && mu_bound <= mu_constraint) {
      mu_bound = MaxMinSystem::kUnbounded;
      for (int v : var_ids) {
        const auto& var = variables_[static_cast<std::size_t>(v)];
        if (var.fixed) continue;
        const double level = var.bound / var.weight;
        if (level < mu_bound) {
          mu_bound = level;
          at_mu_bound = 1;
        } else if (level == mu_bound) {
          ++at_mu_bound;
        }
      }
    }
    SMPI_ENSURE(std::isfinite(mu_constraint) || std::isfinite(mu_bound),
                "unbounded variable attached to no saturable constraint");

    if (mu_bound <= mu_constraint) {
      // Fix every variable whose bound event is (numerically) now.
      const double cutoff = mu_bound * (1 + kEpsRel);
      bool fixed_any = false;
      for (int v : var_ids) {
        auto& var = variables_[static_cast<std::size_t>(v)];
        if (var.fixed) continue;
        if (var.bound / var.weight <= cutoff) {
          fix_variable(var, var.bound, -1);
          fixed_any = true;
        }
      }
      SMPI_ENSURE(fixed_any, "bound event fixed no variable");
    } else {
      // Saturate the tightest constraint(s): every unfixed variable crossing
      // one gets mu * weight. A boundary's out-of-set members are all fixed
      // already, so walking only its in-set members fixes the same variables
      // in the same order.
      const double cutoff = mu_constraint * (1 + kEpsRel);
      bool fixed_any = false;
      for (int c : live_cons_) {
        const auto& cons = constraints_[static_cast<std::size_t>(c)];
        if (cons.weight_sum <= 0) continue;
        if (cons.remaining / cons.weight_sum > cutoff) continue;
        const int* first = cons.variables.data();
        const int* last = first + cons.variables.size();
        if (cons.boundary) {
          first = boundary_members_.data() + cons.in_set_begin;
          last = boundary_members_.data() + cons.in_set_end;
        }
        bool fixed_here = false;
        for (; first != last; ++first) {
          auto& var = variables_[static_cast<std::size_t>(*first)];
          if (!var.active || var.fixed) continue;
          fix_variable(var, mu_constraint * var.weight, c);
          fixed_any = true;
          fixed_here = true;
        }
        if (fixed_here) ++observe_counters_.saturation_events;
      }
      SMPI_ENSURE(fixed_any, "saturation event fixed no variable");
    }
  }

  if (observing_) {
    for (std::size_t i = 0; i < var_ids.size(); ++i) {
      const auto& var = variables_[static_cast<std::size_t>(var_ids[i])];
      if (var.value != observe_prev_values_[i]) {
        for (int c : var.constraints) note_changed(c);
      }
    }
  }
}

}  // namespace smpi::surf
