#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace ss = smpi::sim;

TEST(Engine, RunsActorsToCompletion) {
  ss::Engine engine;
  int ran = 0;
  engine.spawn("a", 0, [&] { ++ran; });
  engine.spawn("b", 0, [&] { ++ran; });
  engine.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(engine.live_actor_count(), 0u);
}

TEST(Engine, VirtualTimeStartsAtZero) {
  ss::Engine engine;
  double t = -1;
  engine.spawn("a", 0, [&] { t = engine.now(); });
  engine.run();
  EXPECT_EQ(t, 0.0);
}

TEST(Engine, SleepAdvancesVirtualTime) {
  ss::Engine engine;
  double t = -1;
  engine.spawn("a", 0, [&] {
    engine.sleep_for(1.5);
    engine.sleep_for(0.25);
    t = engine.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(t, 1.75);
}

TEST(Engine, SleepersWakeInDateOrder) {
  ss::Engine engine;
  std::vector<std::string> order;
  engine.spawn("late", 0, [&] {
    engine.sleep_for(2.0);
    order.push_back("late");
  });
  engine.spawn("early", 0, [&] {
    engine.sleep_for(1.0);
    order.push_back("early");
  });
  engine.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "early");
  EXPECT_EQ(order[1], "late");
}

TEST(Engine, SimultaneousWakeupsRunInCreationOrder) {
  ss::Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    engine.spawn("a" + std::to_string(i), 0, [&, i] {
      engine.sleep_for(1.0);
      order.push_back(i);
    });
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, TimersFireAtTheirDate) {
  ss::Engine engine;
  std::vector<double> fired;
  engine.spawn("a", 0, [&] {
    engine.add_timer(engine.now() + 3.0, [&] { fired.push_back(engine.now()); });
    engine.add_timer(engine.now() + 1.0, [&] { fired.push_back(engine.now()); });
    engine.sleep_for(5.0);
  });
  engine.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[0], 1.0);
  EXPECT_DOUBLE_EQ(fired[1], 3.0);
}

TEST(Engine, ActivityWaitBlocksUntilFinish) {
  ss::Engine engine;
  auto token = std::make_shared<ss::Activity>("token");
  double waited_until = -1;
  engine.spawn("waiter", 0, [&] {
    token->wait();
    waited_until = engine.now();
  });
  engine.spawn("finisher", 0, [&] {
    engine.sleep_for(2.5);
    token->finish(ss::Activity::State::kDone);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(waited_until, 2.5);
  EXPECT_EQ(token->state(), ss::Activity::State::kDone);
  EXPECT_DOUBLE_EQ(token->finish_time(), 2.5);
}

TEST(Engine, MultipleWaitersAllWake) {
  ss::Engine engine;
  auto token = std::make_shared<ss::Activity>("token");
  int woke = 0;
  for (int i = 0; i < 4; ++i) {
    engine.spawn("w" + std::to_string(i), 0, [&] {
      token->wait();
      ++woke;
    });
  }
  engine.spawn("f", 0, [&] {
    engine.sleep_for(1.0);
    token->finish(ss::Activity::State::kDone);
  });
  engine.run();
  EXPECT_EQ(woke, 4);
}

TEST(Engine, CompletionCallbacksFire) {
  ss::Engine engine;
  auto token = std::make_shared<ss::Activity>("token");
  std::vector<std::string> events;
  token->on_completion([&](ss::Activity&) { events.push_back("cb1"); });
  engine.spawn("f", 0, [&] {
    engine.sleep_for(1.0);
    token->finish(ss::Activity::State::kDone);
    // Registering after completion fires immediately.
    token->on_completion([&](ss::Activity&) { events.push_back("cb2"); });
  });
  engine.run();
  EXPECT_EQ(events, (std::vector<std::string>{"cb1", "cb2"}));
}

TEST(Engine, FinishIsIdempotent) {
  ss::Engine engine;
  auto token = std::make_shared<ss::Activity>("token");
  engine.spawn("f", 0, [&] {
    token->finish(ss::Activity::State::kDone);
    token->finish(ss::Activity::State::kFailed);  // ignored
  });
  engine.run();
  EXPECT_EQ(token->state(), ss::Activity::State::kDone);
}

TEST(Engine, WaitOnCompletedActivityReturnsImmediately) {
  ss::Engine engine;
  auto token = std::make_shared<ss::Activity>("token");
  double t = -1;
  engine.spawn("a", 0, [&] {
    token->finish(ss::Activity::State::kDone);
    EXPECT_EQ(token->wait(), ss::Activity::State::kDone);
    t = engine.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(Engine, DeadlockIsDetected) {
  ss::Engine engine;
  auto never = std::make_shared<ss::Activity>("never");
  engine.spawn("stuck", 0, [&] { never->wait(); });
  EXPECT_THROW(engine.run(), ss::DeadlockError);
}

TEST(Engine, YieldInterleavesActors) {
  ss::Engine engine;
  std::vector<int> order;
  engine.spawn("a", 0, [&] {
    order.push_back(1);
    engine.yield();
    order.push_back(3);
  });
  engine.spawn("b", 0, [&] {
    order.push_back(2);
    engine.yield();
    order.push_back(4);
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Engine, SpawnDuringRunExecutesChild) {
  ss::Engine engine;
  bool child_ran = false;
  engine.spawn("parent", 0, [&] {
    engine.spawn("child", 0, [&] { child_ran = true; });
    engine.sleep_for(1.0);
  });
  engine.run();
  EXPECT_TRUE(child_ran);
}

TEST(Engine, TraceHashIsDeterministic) {
  using Trace = std::vector<std::pair<double, std::string>>;
  auto run_once = [] {
    ss::Engine engine;
    Trace trace;
    for (int i = 0; i < 8; ++i) {
      engine.spawn("a" + std::to_string(i), 0, [&engine, &trace, i] {
        engine.sleep_for(0.1 * (i % 3));
        trace.emplace_back(engine.now(), "step-" + std::to_string(i));
        engine.sleep_for(0.05 * i);
        trace.emplace_back(engine.now(), "done-" + std::to_string(i));
      });
    }
    engine.run();
    return trace;
  };
  const Trace first = run_once();
  EXPECT_EQ(first.size(), 16u);
  EXPECT_EQ(first, run_once());
}

TEST(Engine, InfiniteSleepIsReportedAsDeadlock) {
  // A timer at +inf never fires: the sleeper is blocked forever, which the
  // engine must report as a deadlock naming it.
  ss::Engine engine;
  engine.spawn("sleeper", 0, [&] { engine.sleep_for(std::numeric_limits<double>::infinity()); });
  try {
    engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const ss::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("blocked forever: sleeper"), std::string::npos)
        << e.what();
  }
}

TEST(Engine, CurrentActorIsSetDuringExecution) {
  ss::Engine engine;
  std::string seen;
  engine.spawn("me", 3, [&] {
    seen = engine.current_actor()->name();
    EXPECT_EQ(engine.current_actor()->node(), 3);
  });
  engine.run();
  EXPECT_EQ(seen, "me");
}
