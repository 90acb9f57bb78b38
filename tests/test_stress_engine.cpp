// Engine stress and degenerate-configuration tests: many fibers, long
// event chains, minimal machines.
#include <gtest/gtest.h>

#include <vector>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

TEST(SchedulerStress, FiveHundredFibersTokenRing) {
  // A token passes around a 500-fiber ring via suspend/wake; total hops
  // and final time must be exact.
  sim::Scheduler s;
  constexpr int kN = 500, kRounds = 20;
  std::vector<sim::Scheduler::FiberId> ids(kN);
  int token_hops = 0;
  bool token_arrived[kN] = {};
  for (int i = 0; i < kN; ++i) {
    ids[i] = s.spawn([&, i] {
      for (int r = 0; r < kRounds; ++r) {
        if (!(i == 0 && r == 0)) {
          while (!token_arrived[i]) s.suspend();
          token_arrived[i] = false;
        }
        ++token_hops;
        const int next = (i + 1) % kN;
        token_arrived[next] = true;
        s.wake(ids[next], s.now() + 1);
      }
    });
  }
  s.run();
  EXPECT_EQ(token_hops, kN * kRounds);
}

TEST(SchedulerStress, DeepEventChains) {
  sim::Scheduler s;
  std::uint64_t fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 100000) s.at(s.now() + 1, chain);
  };
  s.at(0, chain);
  s.run();
  EXPECT_EQ(fired, 100000u);
  EXPECT_EQ(s.now(), 99999u);
}

TEST(EventQueueStress, RandomizedOrderMatchesSort) {
  sim::EventQueue q;
  sim::Xoshiro256 r(77);
  std::vector<sim::Cycle> times;
  for (int i = 0; i < 5000; ++i) {
    const sim::Cycle t = r.below(1000);
    times.push_back(t);
    q.schedule(t, [] {});
  }
  std::sort(times.begin(), times.end());
  for (std::size_t i = 0; i < times.size(); ++i) {
    sim::Cycle t;
    q.pop(&t)();
    EXPECT_EQ(t, times[i]);
  }
}

TEST(DegenerateMachine, SingleCoreStillWorks) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(1, 1);
  SimExecutor ex(p, 1);
  ds::SeqCounter c;
  sync::CcSynch<SimCtx> cc(&c, 4);
  ex.add_thread([&](SimCtx& ctx) {
    for (int k = 0; k < 100; ++k) cc.apply(ctx, ds::counter_inc<SimCtx>, 0);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), 100u);
}

TEST(DegenerateMachine, SingleCoreMultiplexedHybComb) {
  // 1 core, 4 threads on the 4 demux queues: HybComb self-messaging works.
  arch::MachineParams p = arch::MachineParams::tilegx_small(1, 1);
  SimExecutor ex(p, 2);
  ds::SeqCounter c;
  sync::HybComb<SimCtx> hyb(&c, 4);
  for (int i = 0; i < 4; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (int k = 0; k < 50; ++k) hyb.apply(ctx, ds::counter_inc<SimCtx>, 0);
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), 200u);
}

TEST(DegenerateMachine, ZeroThinkTimeSaturation) {
  // No think time at all: pure back-to-back ops must still be exact.
  SimExecutor ex(arch::MachineParams::tilegx36(), 3);
  ds::SeqCounter c;
  sync::HybComb<SimCtx> hyb(&c, 200);
  for (int i = 0; i < 35; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (int k = 0; k < 60; ++k) hyb.apply(ctx, ds::counter_inc<SimCtx>, 0);
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), 35u * 60u);
}

TEST(LongRun, MillionsOfCyclesStayConsistent) {
  // A longer soak: ~2M simulated cycles of saturated MP-SERVER traffic.
  SimExecutor ex(arch::MachineParams::tilegx36(), 4);
  ds::SeqCounter c;
  sync::MpServer<SimCtx> mp(0, &c);
  std::vector<std::uint64_t> ops(10, 0);
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  for (int i = 0; i < 10; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (;;) {
        mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
        ++ops[i];
      }
    });
  }
  ex.run_until(2'000'000);
  std::uint64_t total = 0;
  for (auto o : ops) total += o;
  // Counter equals completed client ops, modulo requests in flight.
  EXPECT_GE(c.value.load(), total);
  EXPECT_LE(c.value.load(), total + 11);
  EXPECT_GT(total, 50'000u);
}

}  // namespace
}  // namespace hmps
