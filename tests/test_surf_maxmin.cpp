#include "surf/maxmin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace sf = smpi::surf;

TEST(MaxMin, SingleFlowGetsFullCapacity) {
  sf::MaxMinSystem sys;
  const int link = sys.new_constraint(100.0);
  const int flow = sys.new_variable();
  sys.attach(flow, link);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(flow), 100.0);
}

TEST(MaxMin, TwoFlowsShareEqually) {
  sf::MaxMinSystem sys;
  const int link = sys.new_constraint(100.0);
  const int f1 = sys.new_variable();
  const int f2 = sys.new_variable();
  sys.attach(f1, link);
  sys.attach(f2, link);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(f1), 50.0);
  EXPECT_DOUBLE_EQ(sys.value(f2), 50.0);
}

TEST(MaxMin, BoundedFlowLeavesCapacityToOthers) {
  sf::MaxMinSystem sys;
  const int link = sys.new_constraint(100.0);
  const int slow = sys.new_variable(1.0, 10.0);
  const int fast = sys.new_variable();
  sys.attach(slow, link);
  sys.attach(fast, link);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(slow), 10.0);
  EXPECT_DOUBLE_EQ(sys.value(fast), 90.0);
}

TEST(MaxMin, WeightsSkewTheShares) {
  sf::MaxMinSystem sys;
  const int link = sys.new_constraint(90.0);
  const int heavy = sys.new_variable(2.0);
  const int light = sys.new_variable(1.0);
  sys.attach(heavy, link);
  sys.attach(light, link);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(heavy), 60.0);
  EXPECT_DOUBLE_EQ(sys.value(light), 30.0);
}

TEST(MaxMin, ClassicLinearNetwork) {
  // The textbook example: flow 0 crosses both links, flows 1 and 2 cross one
  // link each. Max-min: f0 = 50, f1 = 50, f2 = 50 with capacities 100.
  sf::MaxMinSystem sys;
  const int l1 = sys.new_constraint(100.0);
  const int l2 = sys.new_constraint(100.0);
  const int f0 = sys.new_variable();
  const int f1 = sys.new_variable();
  const int f2 = sys.new_variable();
  sys.attach(f0, l1);
  sys.attach(f0, l2);
  sys.attach(f1, l1);
  sys.attach(f2, l2);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(f0), 50.0);
  EXPECT_DOUBLE_EQ(sys.value(f1), 50.0);
  EXPECT_DOUBLE_EQ(sys.value(f2), 50.0);
}

TEST(MaxMin, AsymmetricBottleneck) {
  // Long flow crosses a thin link (30) and a fat link (100); a short flow
  // shares the fat link. The long flow is bottlenecked at 30 by the thin
  // link, leaving 70 to the short one.
  sf::MaxMinSystem sys;
  const int thin = sys.new_constraint(30.0);
  const int fat = sys.new_constraint(100.0);
  const int long_flow = sys.new_variable();
  const int short_flow = sys.new_variable();
  sys.attach(long_flow, thin);
  sys.attach(long_flow, fat);
  sys.attach(short_flow, fat);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(long_flow), 30.0);
  EXPECT_DOUBLE_EQ(sys.value(short_flow), 70.0);
}

TEST(MaxMin, UnconstrainedVariableTakesItsBound) {
  sf::MaxMinSystem sys;
  const int v = sys.new_variable(1.0, 42.0);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(v), 42.0);
}

TEST(MaxMin, UnconstrainedUnboundedVariableIsRejected) {
  sf::MaxMinSystem sys;
  sys.new_variable();
  EXPECT_THROW(sys.solve(), smpi::util::ContractError);
}

TEST(MaxMin, ReleaseRedistributesCapacity) {
  sf::MaxMinSystem sys;
  const int link = sys.new_constraint(100.0);
  const int f1 = sys.new_variable();
  const int f2 = sys.new_variable();
  sys.attach(f1, link);
  sys.attach(f2, link);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(f1), 50.0);
  sys.release_variable(f2);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(f1), 100.0);
  EXPECT_THROW(sys.value(f2), smpi::util::ContractError);
}

TEST(MaxMin, VariableIdsAreRecycled) {
  sf::MaxMinSystem sys;
  const int link = sys.new_constraint(10.0);
  const int a = sys.new_variable();
  sys.attach(a, link);
  sys.release_variable(a);
  const int b = sys.new_variable();
  EXPECT_EQ(a, b);  // recycled id
  sys.attach(b, link);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(b), 10.0);
}

TEST(MaxMin, SolveIsLazy) {
  sf::MaxMinSystem sys;
  const int link = sys.new_constraint(10.0);
  const int v = sys.new_variable();
  sys.attach(v, link);
  EXPECT_TRUE(sys.dirty());
  sys.solve();
  EXPECT_FALSE(sys.dirty());
  sys.set_capacity(link, 20.0);
  EXPECT_TRUE(sys.dirty());
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(v), 20.0);
}

TEST(MaxMin, ReleaseKeepsUsageAndDirtyConsistent) {
  // Regression: a released variable must stop contributing to
  // constraint_usage() immediately, and the release must leave the system
  // dirty so its constraints are re-solved (under the incremental path a
  // missed dirty mark would freeze the survivors at their old shares).
  sf::MaxMinSystem sys;
  const int link = sys.new_constraint(100.0);
  const int f1 = sys.new_variable();
  const int f2 = sys.new_variable();
  sys.attach(f1, link);
  sys.attach(f2, link);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.constraint_usage(link), 100.0);
  sys.release_variable(f2);
  EXPECT_TRUE(sys.dirty());
  EXPECT_DOUBLE_EQ(sys.constraint_usage(link), 50.0);  // f2 gone, f1 not yet re-solved
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.constraint_usage(link), 100.0);  // f1 re-expanded
  EXPECT_DOUBLE_EQ(sys.value(f1), 100.0);
  EXPECT_FALSE(sys.dirty());
}

TEST(MaxMin, IncrementalSolveTouchesOnlyAffectedComponents) {
  // Two disjoint links with two flows each; perturbing one component must
  // not re-solve the other.
  sf::MaxMinSystem sys;
  const int link_a = sys.new_constraint(100.0);
  const int link_b = sys.new_constraint(60.0);
  const int a1 = sys.new_variable();
  const int a2 = sys.new_variable();
  const int b1 = sys.new_variable();
  const int b2 = sys.new_variable();
  sys.attach(a1, link_a);
  sys.attach(a2, link_a);
  sys.attach(b1, link_b);
  sys.attach(b2, link_b);
  sys.solve();
  const auto visited_initial = sys.vars_touched();

  sys.set_capacity(link_b, 80.0);
  sys.solve();
  // Only b1/b2 re-solved.
  EXPECT_EQ(sys.vars_touched() - visited_initial, 2u);
  EXPECT_EQ(sys.last_solved_variables().size(), 2u);
  EXPECT_DOUBLE_EQ(sys.value(a1), 50.0);
  EXPECT_DOUBLE_EQ(sys.value(b1), 40.0);
  EXPECT_DOUBLE_EQ(sys.value(b2), 40.0);
}

TEST(MaxMin, AttachBridgingTwoComponentsResolvesBoth) {
  sf::MaxMinSystem sys;
  const int link_a = sys.new_constraint(100.0);
  const int link_b = sys.new_constraint(10.0);
  const int a1 = sys.new_variable();
  sys.attach(a1, link_a);
  const int b1 = sys.new_variable();
  sys.attach(b1, link_b);
  sys.solve();
  EXPECT_DOUBLE_EQ(sys.value(a1), 100.0);
  // A new flow crossing both links merges the components: everyone re-solves.
  const int bridge = sys.new_variable();
  sys.attach(bridge, link_a);
  sys.attach(bridge, link_b);
  sys.solve();
  EXPECT_EQ(sys.last_solved_variables().size(), 3u);
  EXPECT_DOUBLE_EQ(sys.value(bridge), 5.0);   // squeezed on link_b
  EXPECT_DOUBLE_EQ(sys.value(b1), 5.0);
  EXPECT_DOUBLE_EQ(sys.value(a1), 95.0);      // gets the rest of link_a
}

// ---------------------------------------------------------------------------
// Property tests over randomized systems.
// ---------------------------------------------------------------------------

class MaxMinPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinPropertyTest, AllocationsAreFeasibleAndMaxMinOptimal) {
  smpi::util::Xoshiro256StarStar rng(GetParam());
  sf::MaxMinSystem sys;

  const int num_constraints = 2 + static_cast<int>(rng.next_in_range(0, 8));
  const int num_variables = 1 + static_cast<int>(rng.next_in_range(0, 30));
  std::vector<int> constraints, variables;
  std::vector<double> capacities;
  for (int c = 0; c < num_constraints; ++c) {
    const double cap = 10.0 + 190.0 * rng.next_double();
    capacities.push_back(cap);
    constraints.push_back(sys.new_constraint(cap));
  }
  std::vector<std::vector<int>> memberships(static_cast<std::size_t>(num_variables));
  std::vector<double> bounds(static_cast<std::size_t>(num_variables));
  for (int v = 0; v < num_variables; ++v) {
    const bool bounded = rng.next_double() < 0.5;
    const double bound = bounded ? 1.0 + 50.0 * rng.next_double() : sf::MaxMinSystem::kUnbounded;
    bounds[static_cast<std::size_t>(v)] = bound;
    const int var = sys.new_variable(1.0, bound);
    variables.push_back(var);
    // Attach to 1..3 distinct random constraints (or leave unconstrained if
    // bounded).
    const int attach_count =
        bounded && rng.next_double() < 0.2 ? 0 : 1 + static_cast<int>(rng.next_in_range(0, 2));
    for (int k = 0; k < attach_count; ++k) {
      const int c = static_cast<int>(rng.next_in_range(0, num_constraints - 1));
      bool already = false;
      for (int existing : memberships[static_cast<std::size_t>(v)]) {
        if (existing == c) already = true;
      }
      if (already) continue;
      memberships[static_cast<std::size_t>(v)].push_back(c);
      sys.attach(var, constraints[static_cast<std::size_t>(c)]);
    }
  }
  sys.solve();

  constexpr double kTol = 1e-7;
  // Feasibility: no constraint is over capacity; no variable above bound.
  for (int c = 0; c < num_constraints; ++c) {
    EXPECT_LE(sys.constraint_usage(constraints[static_cast<std::size_t>(c)]),
              capacities[static_cast<std::size_t>(c)] * (1 + kTol));
  }
  for (int v = 0; v < num_variables; ++v) {
    EXPECT_LE(sys.value(variables[static_cast<std::size_t>(v)]),
              bounds[static_cast<std::size_t>(v)] * (1 + kTol));
    EXPECT_GT(sys.value(variables[static_cast<std::size_t>(v)]), 0.0);
  }
  // Max-min optimality certificate: every variable is either at its bound or
  // crosses at least one saturated constraint on which it has a maximal
  // allocation among that constraint's members.
  for (int v = 0; v < num_variables; ++v) {
    const double val = sys.value(variables[static_cast<std::size_t>(v)]);
    if (val >= bounds[static_cast<std::size_t>(v)] * (1 - kTol)) continue;  // at bound
    bool certified = false;
    for (int c : memberships[static_cast<std::size_t>(v)]) {
      const double usage = sys.constraint_usage(constraints[static_cast<std::size_t>(c)]);
      const double cap = capacities[static_cast<std::size_t>(c)];
      if (usage < cap * (1 - 1e-6)) continue;  // not saturated
      // v must not be dominated on this saturated constraint.
      double max_member = 0;
      for (int other = 0; other < num_variables; ++other) {
        bool member = false;
        for (int oc : memberships[static_cast<std::size_t>(other)]) {
          if (oc == c) member = true;
        }
        if (member) {
          max_member = std::max(max_member, sys.value(variables[static_cast<std::size_t>(other)]));
        }
      }
      if (val >= max_member * (1 - 1e-6)) {
        certified = true;
        break;
      }
    }
    EXPECT_TRUE(certified) << "variable " << v << " is neither bounded nor on a saturated "
                           << "constraint where it is maximal (value " << val << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, MaxMinPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 33));

// ---------------------------------------------------------------------------
// Equivalence: the lazy (modified-set) and the full-reference solver receive
// an identical randomized interleaving of new/attach/release/set_capacity/
// set_bound ops, and after every step both allocations must match within
// 1e-9.
// ---------------------------------------------------------------------------

class MaxMinEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinEquivalenceTest, LazyMatchesFullReferenceOnEveryStep) {
  smpi::util::Xoshiro256StarStar rng(GetParam() * 7919 + 13);
  sf::MaxMinSystem lazy;
  sf::MaxMinSystem ref;
  ASSERT_EQ(lazy.mode(), sf::SolveMode::kLazy);  // the default
  ref.set_mode(sf::SolveMode::kFull);
  sf::MaxMinSystem* systems[] = {&lazy, &ref};

  constexpr int kConstraints = 12;
  constexpr int kSteps = 250;
  std::vector<std::array<int, 2>> cons;
  for (int c = 0; c < kConstraints; ++c) {
    const double capacity = 1.0 + rng.next_double() * 99.0;
    cons.push_back({lazy.new_constraint(capacity), ref.new_constraint(capacity)});
  }

  std::vector<std::array<int, 2>> live;

  for (int step = 0; step < kSteps; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.45 || live.empty()) {
      // New variable attached to 1-3 distinct constraints.
      const double weight = 0.5 + rng.next_double() * 2.0;
      const double bound = rng.next_double() < 0.5
                               ? 1.0 + rng.next_double() * 49.0
                               : sf::MaxMinSystem::kUnbounded;
      const int attach_count = 1 + static_cast<int>(rng.next_in_range(0, 2));
      std::vector<int> chosen;
      while (static_cast<int>(chosen.size()) < attach_count) {
        const int c = static_cast<int>(rng.next_in_range(0, kConstraints - 1));
        if (std::find(chosen.begin(), chosen.end(), c) == chosen.end()) chosen.push_back(c);
      }
      std::array<int, 2> var = {lazy.new_variable(weight, bound),
                                ref.new_variable(weight, bound)};
      for (int c : chosen) {
        for (int s = 0; s < 2; ++s) {
          systems[s]->attach(var[static_cast<std::size_t>(s)],
                             cons[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)]);
        }
      }
      live.push_back(var);
    } else if (dice < 0.70) {
      const auto idx = static_cast<std::size_t>(rng.next_in_range(0, live.size() - 1));
      for (int s = 0; s < 2; ++s) {
        systems[s]->release_variable(live[idx][static_cast<std::size_t>(s)]);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (dice < 0.85) {
      const auto c = static_cast<std::size_t>(rng.next_in_range(0, kConstraints - 1));
      const double capacity = 1.0 + rng.next_double() * 99.0;
      for (int s = 0; s < 2; ++s) systems[s]->set_capacity(cons[c][static_cast<std::size_t>(s)], capacity);
    } else {
      const auto idx = static_cast<std::size_t>(rng.next_in_range(0, live.size() - 1));
      const double bound = 1.0 + rng.next_double() * 49.0;
      for (int s = 0; s < 2; ++s) systems[s]->set_bound(live[idx][static_cast<std::size_t>(s)], bound);
    }

    for (int s = 0; s < 2; ++s) systems[s]->solve();
    ASSERT_EQ(lazy.active_variable_count(), ref.active_variable_count());
    for (const auto& var : live) {
      ASSERT_NEAR(lazy.value(var[0]), ref.value(var[1]), 1e-9)
          << "step " << step << ": lazy diverged from reference";
    }
    for (int c = 0; c < kConstraints; ++c) {
      ASSERT_NEAR(lazy.constraint_usage(cons[static_cast<std::size_t>(c)][0]),
                  ref.constraint_usage(cons[static_cast<std::size_t>(c)][1]), 1e-9)
          << "step " << step << " usage diverged on constraint " << c;
    }
    // Observation-layer invariants, after every solve: no constraint above
    // capacity (within 1e-9 relative), and "saturated" means usage equals
    // capacity — the saturation ledger depends on both.
    for (int s = 0; s < 2; ++s) {
      for (int c = 0; c < kConstraints; ++c) {
        const int id = cons[static_cast<std::size_t>(c)][static_cast<std::size_t>(s)];
        const double usage = systems[s]->constraint_usage(id);
        const double capacity = systems[s]->constraint_capacity(id);
        ASSERT_LE(usage, capacity * (1 + 1e-9))
            << "step " << step << " system " << s << ": constraint " << c << " over capacity";
        if (systems[s]->constraint_saturated(id)) {
          ASSERT_NEAR(usage, capacity, 1e-9 * capacity)
              << "step " << step << " system " << s << ": constraint " << c
              << " flagged saturated but usage != capacity";
        }
      }
    }
  }
  // No work comparison here: on this deliberately dense 12-constraint mesh
  // the lazy path's promotion rounds re-fill the grown set and can touch
  // more variables than the full re-solve. Its win is on sparse topologies,
  // pinned by LazySolveStopsAtUnsaturatedHub below.
}

INSTANTIATE_TEST_SUITE_P(RandomInterleavings, MaxMinEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 17));

// ---------------------------------------------------------------------------
// The modified-set payoff: on a star topology (per-flow leaf links, one
// shared hub), a leaf mutation whose effect is absorbed locally must not
// flood the whole connected component the way the full re-solve does.
// ---------------------------------------------------------------------------

TEST(MaxMinLazy, LazySolveStopsAtUnsaturatedHub) {
  constexpr int kFlows = 32;
  sf::MaxMinSystem lazy;
  sf::MaxMinSystem full;
  full.set_mode(sf::SolveMode::kFull);
  sf::MaxMinSystem* systems[] = {&lazy, &full};

  // Hub with plenty of headroom; every flow crosses its own leaf plus the
  // hub, and is bound below the leaf capacity.
  std::vector<int> leaves_lazy, leaves_full;
  const int hub_lazy = lazy.new_constraint(1e6);
  const int hub_full = full.new_constraint(1e6);
  std::vector<int> flows_lazy, flows_full;
  for (int f = 0; f < kFlows; ++f) {
    leaves_lazy.push_back(lazy.new_constraint(10.0));
    leaves_full.push_back(full.new_constraint(10.0));
    flows_lazy.push_back(lazy.new_variable(1.0, 5.0));
    flows_full.push_back(full.new_variable(1.0, 5.0));
    lazy.attach(flows_lazy.back(), leaves_lazy.back());
    lazy.attach(flows_lazy.back(), hub_lazy);
    full.attach(flows_full.back(), leaves_full.back());
    full.attach(flows_full.back(), hub_full);
  }
  for (auto* sys : systems) sys->solve();

  const auto lazy_before = lazy.vars_touched();
  const auto full_before = full.vars_touched();

  // Shrink one leaf below its flow's bound: that flow must drop to 3, but
  // the hub has so much headroom that nothing else can change.
  lazy.set_capacity(leaves_lazy[0], 3.0);
  full.set_capacity(leaves_full[0], 3.0);
  lazy.solve();
  full.solve();
  EXPECT_NEAR(lazy.value(flows_lazy[0]), 3.0, 1e-9);

  for (int f = 0; f < kFlows; ++f) {
    EXPECT_NEAR(lazy.value(flows_lazy[static_cast<std::size_t>(f)]),
                full.value(flows_full[static_cast<std::size_t>(f)]), 1e-9);
  }
  // The hub links every flow into one component: the full path re-fills all
  // of them, the lazy path touches only the mutated leaf's flow.
  EXPECT_EQ(full.vars_touched() - full_before, static_cast<std::uint64_t>(kFlows));
  EXPECT_EQ(lazy.vars_touched() - lazy_before, 1u);
  EXPECT_LT(lazy.last_solved_variables().size(), full.last_solved_variables().size());
}

// ---------------------------------------------------------------------------
// Golden churn: exact pins of the solver's arithmetic and work. A seeded
// churn (attach, release, set_capacity, set_bound) runs on a two-level
// topology — nodes in cabinets, each cabinet behind an uplink/downlink pair
// that the inter-cabinet flows saturate, so the lazy path solves against
// boundaries with many out-of-set members. Bounds come from a small set in
// which bound/weight ties exactly (1/1 == 2/2 in units of kShare), and they
// sit below the fair share, so bound events fire and tie. Observing is on.
// Each case pins an FNV-1a hash of every live variable's "%.17g" value after
// every solve, a hash of the drained changed-constraint id sequence, and the
// solve/fill/saturation counters: a change to the fill order, to any
// floating-point sum or to the work done moves one of them.
// ---------------------------------------------------------------------------

namespace {

struct GoldenHash {
  std::uint64_t h = 14695981039346656037ull;
  void add(const char* text) {
    for (; *text != '\0'; ++text) {
      h ^= static_cast<unsigned char>(*text);
      h *= 1099511628211ull;
    }
  }
  void add(double value) {
    char text[40];
    std::snprintf(text, sizeof text, "%.17g;", value);
    add(text);
  }
  void add(int id) {
    char text[16];
    std::snprintf(text, sizeof text, "%d;", id);
    add(text);
  }
};

std::string golden_churn(sf::SolveMode mode, std::uint64_t seed) {
  constexpr int kCabinets = 6;
  constexpr int kNodesPerCabinet = 8;
  constexpr int kNodes = kCabinets * kNodesPerCabinet;
  constexpr int kSteps = 600;
  constexpr double kNodeLink = 1.25e8;
  constexpr double kCabinetLink = 2.5e8;  // ~2 node links: saturated early
  constexpr double kShare = 2e6;          // bound unit, below most fair shares

  smpi::util::Xoshiro256StarStar rng(seed);
  sf::MaxMinSystem sys;
  sys.set_mode(mode);
  sys.set_observing(true);

  std::vector<int> node_up, node_down, cab_up, cab_down;
  for (int n = 0; n < kNodes; ++n) {
    node_up.push_back(sys.new_constraint(kNodeLink));
    node_down.push_back(sys.new_constraint(kNodeLink));
  }
  for (int c = 0; c < kCabinets; ++c) {
    cab_up.push_back(sys.new_constraint(kCabinetLink));
    cab_down.push_back(sys.new_constraint(kCabinetLink));
  }
  auto pick = [&](std::uint64_t n) { return rng.next_in_range(0, n - 1); };
  auto random_bound = [&](double weight) {
    switch (pick(4)) {
      case 0: return kShare * weight;        // level kShare: ties across weights
      case 1: return 2 * kShare * weight;    // level 2 kShare
      case 2: return 3 * kShare;             // level 3 or 1.5 kShare
      default: return sf::MaxMinSystem::kUnbounded;
    }
  };

  std::vector<int> live;
  GoldenHash values, changed;
  std::vector<int> drained;
  for (int step = 0; step < kSteps; ++step) {
    const std::uint64_t dice = pick(100);
    if (dice < 45 || live.size() < 8) {
      const int src = static_cast<int>(pick(kNodes));
      int dst = src;
      while (dst == src) dst = static_cast<int>(pick(kNodes));
      const double weight = pick(3) == 0 ? 2.0 : 1.0;
      const int v = sys.new_variable(weight, random_bound(weight));
      sys.attach(v, node_up[static_cast<std::size_t>(src)]);
      const int src_cab = src / kNodesPerCabinet;
      const int dst_cab = dst / kNodesPerCabinet;
      if (src_cab != dst_cab) {
        sys.attach(v, cab_up[static_cast<std::size_t>(src_cab)]);
        sys.attach(v, cab_down[static_cast<std::size_t>(dst_cab)]);
      }
      sys.attach(v, node_down[static_cast<std::size_t>(dst)]);
      live.push_back(v);
    } else if (dice < 75) {
      const auto idx = static_cast<std::size_t>(pick(live.size()));
      sys.release_variable(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (dice < 85) {
      const auto cab = static_cast<std::size_t>(pick(kCabinets));
      const double capacity = kCabinetLink * static_cast<double>(1 + pick(3)) / 2;
      sys.set_capacity(pick(2) == 0 ? cab_up[cab] : cab_down[cab], capacity);
    } else if (dice < 90) {
      const auto n = static_cast<std::size_t>(pick(kNodes));
      const double capacity = kNodeLink * static_cast<double>(1 + pick(4)) / 4;
      sys.set_capacity(pick(2) == 0 ? node_up[n] : node_down[n], capacity);
    } else {
      const auto idx = static_cast<std::size_t>(pick(live.size()));
      const std::uint64_t level = pick(4);
      sys.set_bound(live[idx], level == 3 ? sf::MaxMinSystem::kUnbounded
                                          : kShare * static_cast<double>(1 + level));
    }
    // Mutations sometimes batch up before a solve, as they do within one
    // simulated date.
    if (pick(4) == 0 && step + 1 < kSteps) continue;
    sys.solve();
    for (int v : live) values.add(sys.value(v));
    drained.clear();
    sys.drain_changed_constraints(drained);
    for (int c : drained) changed.add(c);
    changed.add("|");
  }
  char text[160];
  std::snprintf(text, sizeof text,
                "values=%016llx changed=%016llx solves=%llu vars=%llu cons=%llu sat=%llu",
                static_cast<unsigned long long>(values.h),
                static_cast<unsigned long long>(changed.h),
                static_cast<unsigned long long>(sys.solve_count()),
                static_cast<unsigned long long>(sys.vars_touched()),
                static_cast<unsigned long long>(sys.cons_touched()),
                static_cast<unsigned long long>(sys.observe_counters().saturation_events));
  return text;
}

}  // namespace

TEST(MaxMinGolden, LazySeed1) {
  EXPECT_EQ(golden_churn(sf::SolveMode::kLazy, 1),
            "values=476bdd45bfe515ed changed=871c4a8c9a35f618 "
            "solves=364 vars=4121 cons=8343 sat=1014");
}

TEST(MaxMinGolden, LazySeed2) {
  EXPECT_EQ(golden_churn(sf::SolveMode::kLazy, 2),
            "values=7ec4a3bbb50a2317 changed=17d81bacc1c4cbb7 "
            "solves=360 vars=4579 cons=9359 sat=1216");
}

TEST(MaxMinGolden, LazySeed3) {
  EXPECT_EQ(golden_churn(sf::SolveMode::kLazy, 3),
            "values=0675882ad3561a61 changed=932f434d07bc1220 "
            "solves=353 vars=1759 cons=4439 sat=547");
}

TEST(MaxMinGolden, FullSeed1) {
  EXPECT_EQ(golden_churn(sf::SolveMode::kFull, 1),
            "values=9d530421fb2b070f changed=8b45f489f0b00d84 "
            "solves=459 vars=25493 cons=49572 sat=3518");
}

TEST(MaxMinGolden, FullSeed2) {
  EXPECT_EQ(golden_churn(sf::SolveMode::kFull, 2),
            "values=d0dd877152af1a85 changed=58c0f63d8500d9c0 "
            "solves=455 vars=19828 cons=49140 sat=3244");
}
