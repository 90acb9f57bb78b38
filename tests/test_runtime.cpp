// Focused tests for the SimCtx cost accounting: prefetch latency hiding,
// posted-write buffering and same-line coalescing, fence draining, message
// send/receive attribution, and thread placement.
#include <gtest/gtest.h>

#include <atomic>

#include "arch/params.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/fault.hpp"
#include "sim/perturb.hpp"

namespace hmps::rt {
namespace {

using sim::Cycle;
using B = obs::CycleAccount;

struct alignas(kCacheLine) Line {
  Word a{0};
  Word b{0};
};

TEST(Prefetch, HidesMissLatencyWhenEarly) {
  arch::MachineParams p = arch::MachineParams::tilegx36();
  SimExecutor ex(p, 1);
  Line remote;
  Cycle with_pf = 0, without_pf = 0;
  ex.add_thread([&](SimCtx& ctx) {  // thread 0: dirty the line
    ctx.store(&remote.a, std::uint64_t{1});
  });
  ex.add_thread([&](SimCtx& ctx) {
    ctx.compute(200);
    // Cold load, no prefetch.
    Cycle t0 = ctx.now();
    (void)ctx.load(&remote.a);
    without_pf = ctx.now() - t0;
  });
  ex.run_until(sim::kCycleMax);

  SimExecutor ex2(p, 1);
  Line remote2;
  ex2.add_thread([&](SimCtx& ctx) {
    ctx.store(&remote2.a, std::uint64_t{1});
  });
  ex2.add_thread([&](SimCtx& ctx) {
    ctx.compute(200);
    ctx.prefetch(&remote2.a);
    ctx.compute(100);  // plenty of time for the prefetch to land
    Cycle t0 = ctx.now();
    (void)ctx.load(&remote2.a);
    with_pf = ctx.now() - t0;
  });
  ex2.run_until(sim::kCycleMax);

  EXPECT_GT(without_pf, 20u);
  EXPECT_LT(with_pf, 6u);  // hit + issue only
}

TEST(Prefetch, PartialOverlapStallsForRemainder) {
  arch::MachineParams p = arch::MachineParams::tilegx36();
  SimExecutor ex(p, 1);
  Line remote;
  Cycle lat = 0;
  ex.add_thread([&](SimCtx& ctx) {
    ctx.store(&remote.a, std::uint64_t{1});
  });
  ex.add_thread([&](SimCtx& ctx) {
    ctx.compute(200);
    ctx.prefetch(&remote.a);
    ctx.compute(5);  // much less than the miss latency
    Cycle t0 = ctx.now();
    (void)ctx.load(&remote.a);
    lat = ctx.now() - t0;
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_GT(lat, 5u);    // some stall remains
  EXPECT_LT(lat, 60u);   // but less than a full miss + issue
}

TEST(PostedWrites, StoreMissDoesNotStall) {
  arch::MachineParams p = arch::MachineParams::tilegx36();
  SimExecutor ex(p, 1);
  Line remote;
  Cycle store_cost = 0;
  ex.add_thread([&](SimCtx& ctx) { (void)ctx.load(&remote.a); });
  ex.add_thread([&](SimCtx& ctx) {
    ctx.compute(100);
    Cycle t0 = ctx.now();
    ctx.store(&remote.a, std::uint64_t{7});  // upgrade RMR, posted
    store_cost = ctx.now() - t0;
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_LE(store_cost, 3u);  // issue cost only; retire in background
}

TEST(PostedWrites, SecondMissStallsOnFullBuffer) {
  arch::MachineParams p = arch::MachineParams::tilegx36();
  SimExecutor ex(p, 1);
  Line x, y;  // two different lines
  Cycle second_cost = 0;
  ex.add_thread([&](SimCtx& ctx) {
    (void)ctx.load(&x.a);
    (void)ctx.load(&y.a);
  });
  ex.add_thread([&](SimCtx& ctx) {
    ctx.compute(100);
    ctx.store(&x.a, std::uint64_t{1});  // posted
    Cycle t0 = ctx.now();
    ctx.store(&y.a, std::uint64_t{2});  // buffer occupied -> stalls
    second_cost = ctx.now() - t0;
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_GT(second_cost, 10u);
  EXPECT_GT(ex.machine().core(1).account.bucket(B::kCoherenceWrite), 0u);
}

TEST(PostedWrites, SameLineCoalesces) {
  arch::MachineParams p = arch::MachineParams::tilegx36();
  SimExecutor ex(p, 1);
  Line x;
  Cycle second_cost = 0;
  ex.add_thread([&](SimCtx& ctx) { (void)ctx.load(&x.a); });
  ex.add_thread([&](SimCtx& ctx) {
    ctx.compute(100);
    ctx.store(&x.a, std::uint64_t{1});  // posted miss
    Cycle t0 = ctx.now();
    ctx.store(&x.b, std::uint64_t{2});  // same line: coalesced, cheap
    second_cost = ctx.now() - t0;
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_LE(second_cost, 2u);
}

TEST(Fence, DrainsWriteBuffer) {
  arch::MachineParams p = arch::MachineParams::tilegx36();
  SimExecutor ex(p, 1);
  Line x;
  Cycle fence_cost = 0;
  ex.add_thread([&](SimCtx& ctx) { (void)ctx.load(&x.a); });
  ex.add_thread([&](SimCtx& ctx) {
    ctx.compute(100);
    ctx.store(&x.a, std::uint64_t{1});  // posted, ~40+ cycles in flight
    Cycle t0 = ctx.now();
    ctx.fence();
    fence_cost = ctx.now() - t0;
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_GT(fence_cost, 20u);  // waited for the drain
}

TEST(Fence, CheapWhenBufferEmpty) {
  arch::MachineParams p = arch::MachineParams::tilegx36();
  SimExecutor ex(p, 1);
  Cycle fence_cost = 0;
  ex.add_thread([&](SimCtx& ctx) {
    Cycle t0 = ctx.now();
    ctx.fence();
    fence_cost = ctx.now() - t0;
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(fence_cost, p.fence_cost);
}

TEST(Messaging, ReceiveWaitIsIdleNotStall) {
  arch::MachineParams p = arch::MachineParams::tilegx36();
  SimExecutor ex(p, 1);
  ex.add_thread([&](SimCtx& ctx) {  // receiver waits first
    std::uint64_t w;
    ctx.receive(&w, 1);
  });
  ex.add_thread([&](SimCtx& ctx) {
    ctx.compute(1000);
    ctx.send(0, {42});
  });
  ex.run_until(sim::kCycleMax);
  const auto& c0 = ex.machine().core(0);
  EXPECT_GT(c0.account.bucket(B::kUdnRecvWait), 500u);
  EXPECT_EQ(c0.stall, 0u);
}

TEST(Messaging, SendChargesInjectionOnly) {
  arch::MachineParams p = arch::MachineParams::tilegx36();
  SimExecutor ex(p, 1);
  Cycle send_cost = 0;
  ex.add_thread([&](SimCtx& ctx) {  // thread 0 on core 0
    ctx.compute(300);  // let the peer reach its far corner first
    Cycle t0 = ctx.now();
    ctx.send(1, {1, 2, 3});  // to the far-corner thread
    send_cost = ctx.now() - t0;
  });
  ex.add_thread([&](SimCtx& ctx) {  // thread 1: sits at the opposite corner
    ctx.migrate(35, 0, /*cost=*/0);
    std::uint64_t w[3];
    ctx.receive(w, 3);
  });
  ex.run_until(sim::kCycleMax);
  // The sender pays injection + word serialization only, not the wire.
  EXPECT_EQ(send_cost, p.udn_inject + 3 * p.udn_per_word_wire);
}

TEST(Placement, DefaultPinsThreadToCore) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  rt::Tid seen0 = 99, seen37 = 99;
  std::uint32_t q37 = 99;
  for (int i = 0; i < 38; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      if (i == 0) seen0 = ctx.core();
      if (i == 37) {
        seen37 = ctx.core();
        q37 = ctx.queue_of_thread(37);
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(seen0, 0u);
  EXPECT_EQ(seen37, 1u);  // 37 % 36
  EXPECT_EQ(q37, 1u);     // 37 / 36: second demux queue
}

TEST(Placement, MigrateMovesMessageIdentity) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  std::uint64_t got = 0;
  ex.add_thread([&](SimCtx& ctx) {
    ctx.migrate(17, 2);
    ctx.send(1, {ctx.tid()});     // tell the peer we are ready
    got = ctx.receive1();          // must arrive at core 17, queue 2
  });
  ex.add_thread([&](SimCtx& ctx) {
    const std::uint64_t who = ctx.receive1();
    ctx.send(static_cast<rt::Tid>(who), {777});
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(got, 777u);
}

TEST(Accounting, AtomicStallCounted) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  Word x{0};
  ex.add_thread([&](SimCtx& ctx) {
    for (int i = 0; i < 10; ++i) (void)ctx.faa(&x, 1);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_GT(ex.machine().core(0).account.bucket(B::kAtomic), 100u);
  EXPECT_EQ(ex.machine().coherence().counters().atomics, 10u);
}

TEST(Accounting, CasFailureCheaperThanSuccess) {
  arch::MachineParams p = arch::MachineParams::tilegx36();
  SimExecutor ex(p, 1);
  Word x{5};
  Cycle ok_cost = 0, fail_cost = 0;
  ex.add_thread([&](SimCtx& ctx) {
    Cycle t0 = ctx.now();
    EXPECT_TRUE(ctx.cas(&x, std::uint64_t{5}, std::uint64_t{6}));
    ok_cost = ctx.now() - t0;
    ctx.compute(200);
    t0 = ctx.now();
    EXPECT_FALSE(ctx.cas(&x, std::uint64_t{5}, std::uint64_t{7}));
    fail_cost = ctx.now() - t0;
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_LT(fail_cost, ok_cost);
}

TEST(Accounting, XeonAtomicsStayLocal) {
  SimExecutor ex(arch::MachineParams::xeon10(), 1);
  Word x{0};
  Cycle second = 0;
  ex.add_thread([&](SimCtx& ctx) {
    (void)ctx.faa(&x, 1);
    Cycle t0 = ctx.now();
    (void)ctx.faa(&x, 1);  // line now owned locally: cheap RMW
    second = ctx.now() - t0;
  });
  ex.run_until(sim::kCycleMax);
  const auto& p = arch::MachineParams::xeon10();
  EXPECT_LE(second, p.l_hit + p.atomic_local_extra + 2 * p.issue_cost);
}

// busy and stall are CoreState::book()'s unclipped view of the account:
// with one fiber per core nothing clips, so every op kind, run once, must
// leave busy equal to the compute, spin and udn-send-block buckets and
// stall equal to the stalled buckets on every core.
TEST(Accounting, BusyStallMatchTheBucketsOnSingleFiberCores) {
  struct PointDelay final : sim::Perturber {
    Cycle resume_delay(std::uint32_t, Cycle) override { return 0; }
    Cycle point_delay(std::uint32_t, std::uint32_t, const char*,
                      Cycle) override {
      return 40;
    }
  } perturber;
  arch::MachineParams p = arch::MachineParams::tilegx36();
  p.udn_buf_words = 6;  // two 3-word frames fill a buffer
  SimExecutor ex(p, 1);
  ex.sched().set_perturber(&perturber);
  sim::FaultPlan fp;
  fp.preempt_period = 200;
  fp.preempt_duration = 50;
  fp.preempt_cores = {4};
  ex.machine().install_faults(fp);
  const auto ch = ex.machine().vlink().create_channel(/*home=*/5, 6);
  Line x, y, z, w;
  Word flag{0};
  int finished = 0;
  ex.add_thread([&](SimCtx& ctx) {  // core 0: memory ops
    ctx.compute(300);                // core 1 shares y and z first
    (void)ctx.load(&x.a);
    ctx.store(&y.a, std::uint64_t{1});  // posted miss
    ctx.store(&y.b, std::uint64_t{2});  // coalesces
    ctx.store(&z.a, std::uint64_t{3});  // waits for the buffer to drain
    ctx.store(&w.a, std::uint64_t{4});
    ctx.fence();                         // drains
    ctx.store(&w.b, std::uint64_t{5});  // owned: a hit
    (void)ctx.faa(&x.a, 1);
    (void)ctx.exchange(&x.a, std::uint64_t{9});
    (void)ctx.cas(&x.a, std::uint64_t{9}, std::uint64_t{10});
    (void)ctx.cas(&x.a, std::uint64_t{9}, std::uint64_t{11});
    ctx.prefetch(&z.b);
    (void)ctx.load(&z.b);
    (void)ctx.spin_until(&flag, [](std::uint64_t v) { return v != 0; });
    ctx.cpu_relax();
    ctx.explore_point("book");
    ++finished;
  });
  ex.add_thread([&](SimCtx& ctx) {  // core 1
    (void)ctx.load(&y.a);
    (void)ctx.load(&z.a);
    ctx.compute(3000);
    ctx.store(&flag, std::uint64_t{1});
    ++finished;
  });
  ex.add_thread([&](SimCtx& ctx) {  // core 2: sender
    for (std::uint64_t i = 0; i < 3; ++i) ctx.send(3, {i, i, i});
    for (std::uint64_t i = 0; i < 3; ++i) ctx.vlink_push(ch, {i, i, i});
    ctx.compute(2000);
    ctx.send(3, {7});
    ctx.vlink_push(ch, {8});
    ++finished;
  });
  ex.add_thread([&](SimCtx& ctx) {  // core 3: receiver
    ctx.compute(500);
    std::uint64_t m[3];
    for (int i = 0; i < 3; ++i) ctx.receive(m, 3);
    for (int i = 0; i < 3; ++i) ctx.vlink_pop(ch, m, 3);
    (void)ctx.queue_empty();
    (void)ctx.vlink_empty(ch);
    ctx.receive_async(m, 1);
    ctx.vlink_pop_async(ch, m, 1);
    ++finished;
  });
  ex.add_thread([&](SimCtx& ctx) {  // core 4: preempted by the fault plan
    for (int i = 0; i < 100; ++i) ctx.compute(10);
    ++finished;
  });
  ex.run_until(100'000);  // preemption windows recur forever
  arch::Machine& m = ex.machine();
  m.settle_accounts();

  // Every thread finished and every path ran.
  EXPECT_EQ(finished, 5);
  EXPECT_GT(m.udn().counters().sender_blocks, 0u);
  EXPECT_GT(m.vlink().counters().producer_blocks, 0u);
  EXPECT_GT(m.core(0).account.bucket(B::kCoherenceRead), 0u);
  EXPECT_GT(m.core(0).account.bucket(B::kCoherenceWrite), 0u);
  EXPECT_GT(m.core(0).account.bucket(B::kAtomic), 0u);
  EXPECT_GT(m.core(0).account.bucket(B::kSpin), 0u);
  EXPECT_EQ(m.core(0).account.bucket(B::kPreempted), 40u);
  EXPECT_GT(m.core(2).account.bucket(B::kUdnSendBlock), 0u);
  EXPECT_GT(m.core(3).account.bucket(B::kUdnRecvWait), 0u);
  EXPECT_GT(m.core(3).account.bucket(B::kUdnAsyncWait), 0u);
  EXPECT_GT(m.core(4).preemptions, 0u);
  EXPECT_GT(m.core(4).account.bucket(B::kPreempted), 0u);

  for (rt::Tid c = 0; c < m.cores(); ++c) {
    const arch::CoreState& cs = m.core(c);
    const obs::CycleAccount& a = cs.account;
    EXPECT_EQ(cs.busy, a.bucket(B::kCompute) + a.bucket(B::kSpin) +
                           a.bucket(B::kUdnSendBlock))
        << "core " << c;
    EXPECT_EQ(cs.stall, a.stalled()) << "core " << c;
    EXPECT_EQ(a.total(), a.mark() - a.origin()) << "core " << c;
  }
}

// Two fibers computing at once on one core: the account clips the overlap,
// busy counts every cycle either occupies the core for.
TEST(Accounting, BusyCountsWhatTheComputeBucketClips) {
  SimExecutor ex(arch::MachineParams::tilegx_small(1, 1), 1);
  ex.add_thread([](SimCtx& ctx) { ctx.compute(100); });  // starts at 0
  ex.add_thread([](SimCtx& ctx) { ctx.compute(100); });  // starts at 1
  ex.run_until(sim::kCycleMax);
  const arch::CoreState& cs = ex.machine().core(0);
  EXPECT_EQ(cs.busy, 200u);
  EXPECT_EQ(cs.account.bucket(B::kCompute), 101u);
  EXPECT_EQ(cs.stall, 0u);
}

}  // namespace
}  // namespace hmps::rt
