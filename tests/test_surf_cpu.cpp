#include "surf/cpu.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "platform/builders.hpp"
#include "sim/engine.hpp"

namespace sf = smpi::surf;
namespace sp = smpi::platform;
namespace ss = smpi::sim;

namespace {

struct Fixture {
  explicit Fixture(int cores = 2) {
    sp::FlatClusterParams params;
    params.nodes = 2;
    params.speed_flops = 1e9;
    params.cores = cores;
    platform = sp::build_flat_cluster(params);
    auto model = std::make_shared<sf::CpuModel>(platform);
    cpu = model.get();
    engine.add_model(model);
  }
  sp::Platform platform;
  ss::Engine engine;
  sf::CpuModel* cpu = nullptr;
};

}  // namespace

TEST(CpuModel, SingleExecutionTakesFlopsOverSpeed) {
  Fixture fx;
  double done_at = -1;
  fx.engine.spawn("worker", 0, [&] {
    fx.cpu->execute(0, 2e9)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(CpuModel, TwoTasksOnTwoCoresRunInParallel) {
  Fixture fx(/*cores=*/2);
  std::vector<double> done(2, -1);
  fx.engine.spawn("w", 0, [&] {
    auto e1 = fx.cpu->execute(0, 1e9);
    auto e2 = fx.cpu->execute(0, 1e9);
    e1->on_completion([&](ss::Activity& a) { done[0] = a.finish_time(); });
    e2->on_completion([&](ss::Activity& a) { done[1] = a.finish_time(); });
    e1->wait();
    e2->wait();
  });
  fx.engine.run();
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 1.0, 1e-9);
}

TEST(CpuModel, ThreeTasksOnTwoCoresContend) {
  Fixture fx(/*cores=*/2);
  std::vector<double> done(3, -1);
  fx.engine.spawn("w", 0, [&] {
    std::vector<ss::ActivityPtr> execs;
    for (int i = 0; i < 3; ++i) {
      auto e = fx.cpu->execute(0, 1e9);
      e->on_completion([&done, i](ss::Activity& a) { done[static_cast<std::size_t>(i)] = a.finish_time(); });
      execs.push_back(e);
    }
    for (auto& e : execs) e->wait();
  });
  fx.engine.run();
  // 3 tasks, 2 cores: each runs at 2/3 of a core -> finishes at 1.5s.
  for (double d : done) EXPECT_NEAR(d, 1.5, 1e-9);
}

TEST(CpuModel, SingleTaskNeverExceedsOneCore) {
  Fixture fx(/*cores=*/8);
  double done_at = -1;
  fx.engine.spawn("w", 0, [&] {
    fx.cpu->execute(0, 1e9)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  // Even with 8 idle cores, one task runs at single-core speed.
  EXPECT_NEAR(done_at, 1.0, 1e-9);
}

TEST(CpuModel, ExecutionsOnDifferentNodesAreIndependent) {
  Fixture fx;
  std::vector<double> done(2, -1);
  fx.engine.spawn("w", 0, [&] {
    auto e1 = fx.cpu->execute(0, 1e9);
    auto e2 = fx.cpu->execute(1, 1e9);
    e1->on_completion([&](ss::Activity& a) { done[0] = a.finish_time(); });
    e2->on_completion([&](ss::Activity& a) { done[1] = a.finish_time(); });
    e1->wait();
    e2->wait();
  });
  fx.engine.run();
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 1.0, 1e-9);
}

TEST(CpuModel, ZeroFlopsCompletesImmediately) {
  Fixture fx;
  double done_at = -1;
  fx.engine.spawn("w", 0, [&] {
    fx.cpu->execute(0, 0)->wait();
    done_at = fx.engine.now();
  });
  fx.engine.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}
