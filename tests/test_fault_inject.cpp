// Deterministic fault injection (sim/fault.hpp) and the Section 6
// robustness paths it exercises: UDN credit pressure, delivery delays,
// preemption windows, the MP-SERVER/HYBCOMB in-flight throttling guards and
// the HYBCOMB combiner-stall knob. See docs/ROBUSTNESS.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "arch/noc.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "ds/counter.hpp"
#include "harness/record.hpp"
#include "harness/service.hpp"
#include "harness/workload.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/fault.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

sim::FaultPlan pressure_plan(std::uint64_t seed) {
  sim::FaultPlan fp;
  fp.seed = seed;
  fp.credit_period = 8'000;
  fp.credit_duration = 3'000;
  fp.credit_pct = 25;
  fp.preempt_period = 6'000;
  fp.preempt_duration = 1'500;
  fp.delay_permille = 100;
  fp.delay_min = 5;
  fp.delay_max = 60;
  return fp;
}

// ---- determinism ----

TEST(FaultDeterminism, DisabledPlanIsByteIdentical) {
  // Installing an all-off plan must not perturb the timeline at all (the
  // injector stays inert, no events, no extra randomness).
  auto run = [](bool install_empty_plan) {
    SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 17);
    if (install_empty_plan) ex.machine().install_faults(sim::FaultPlan{});
    ds::SeqCounter c;
    sync::MpServer<SimCtx> mp(0, &c);
    std::uint32_t done = 0;
    ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
    for (int i = 0; i < 5; ++i) {
      ex.add_thread([&](SimCtx& ctx) {
        for (int k = 0; k < 50; ++k) {
          mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
          ctx.compute(ctx.rand_below(30));
        }
        if (++done == 5) mp.request_stop(ctx);
      });
    }
    ex.run_until(sim::kCycleMax);
    return std::make_tuple(c.value.load(), ex.sched().now(),
                           ex.machine().udn().counters().messages);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultDeterminism, SameSeedSameTimeline) {
  auto run = [] {
    arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
    SimExecutor ex(p, 23);
    ex.machine().install_faults(pressure_plan(99));
    ds::SeqCounter c;
    sync::MpServer<SimCtx> mp(0, &c, /*max_inflight=*/4);
    std::uint32_t done = 0;
    ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
    const std::uint32_t nclients = 10;
    for (std::uint32_t i = 0; i < nclients; ++i) {
      ex.add_thread([&](SimCtx& ctx) {
        for (int k = 0; k < 40; ++k) {
          mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
          ctx.compute(ctx.rand_below(25));
        }
        if (++done == nclients) mp.request_stop(ctx);
      });
    }
    // Bounded horizon as a backstop; the workload finishes well before it.
    ex.run_until(3'000'000);
    std::uint64_t throttle = 0;
    for (rt::Tid t = 0; t < sync::MpServer<SimCtx>::kMaxThreads; ++t) {
      throttle += mp.stats(t).throttle_waits;
    }
    const auto& fc = ex.machine().faults().counters();
    return std::make_tuple(c.value.load(), throttle, fc.credit_windows,
                           fc.delayed_messages, fc.preemptions,
                           ex.machine().udn().counters().sender_blocks);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::get<0>(a), 400u) << "all ops must complete under faults";
  EXPECT_GT(std::get<2>(a), 0u) << "credit windows should have opened";
  EXPECT_GT(std::get<4>(a), 0u) << "preemption windows should have opened";
}

// ---- UDN credit blocking (regression for the backpressure path) ----

TEST(UdnCredit, SenderBlocksUntilReceiverDrains) {
  // A sender filling the destination's hardware buffer must block on the
  // credit check and resume exactly when the receiver's drain frees space —
  // not earlier, not never.
  arch::MachineParams p = arch::MachineParams::tilegx_small(2, 1);
  p.udn_buf_words = 4;  // one 3-word message fits; two do not
  SimExecutor ex(p, 31);
  const sim::Cycle drain_at = 50'000;
  sim::Cycle second_send_done = 0;
  sim::Cycle first_send_done = 0;
  // Thread 0 (core 0): receiver, drains after a long pause.
  ex.add_thread([&](SimCtx& ctx) {
    ctx.compute(drain_at);
    std::uint64_t m[3];
    ctx.receive(m, 3);
    EXPECT_EQ(m[0], 1u);
    ctx.receive(m, 3);
    EXPECT_EQ(m[0], 2u);
  });
  // Thread 1 (core 1): sender; the second send must block on credits.
  ex.add_thread([&](SimCtx& ctx) {
    ctx.send(0, {1, 2, 3});
    first_send_done = ctx.now();
    ctx.send(0, {2, 3, 4});
    second_send_done = ctx.now();
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_LT(first_send_done, 1'000u) << "first send must not block";
  EXPECT_GE(second_send_done, drain_at)
      << "second send must wait for the receiver's drain";
  EXPECT_LT(second_send_done, drain_at + 1'000u)
      << "second send must resume promptly once credits free up";
  EXPECT_GE(ex.machine().udn().counters().sender_blocks, 1u);
}

TEST(UdnCredit, FaultWindowCloseReleasesBlockedSender) {
  // A sender blocked by a shrunk credit window (not by a full buffer) must
  // be released when the window closes even if no receive ever happens
  // in between.
  arch::MachineParams p = arch::MachineParams::tilegx_small(2, 1);
  p.udn_buf_words = 32;
  SimExecutor ex(p, 37);
  sim::FaultPlan fp;
  fp.seed = 5;
  fp.credit_period = 2'000;  // first window opens within [1000, 3000]
  fp.credit_duration = 4'000;
  fp.credit_pct = 10;  // floor of 6 words applies
  ex.machine().install_faults(fp);
  sim::Cycle burst_done = 0;
  ex.add_thread([&](SimCtx& ctx) {
    // Receiver: drain everything at the very end only.
    ctx.compute(40'000);
    std::uint64_t w;
    for (int i = 0; i < 12; ++i) ctx.receive(&w, 1);
  });
  ex.add_thread([&](SimCtx& ctx) {
    ctx.compute(3'500);  // land inside the first pressure window
    for (int i = 0; i < 12; ++i) {
      const std::uint64_t w = static_cast<std::uint64_t>(i);
      ctx.send(0, &w, 1);
    }
    burst_done = ctx.now();
  });
  ex.run_until(100'000);
  ASSERT_GT(ex.machine().faults().counters().credit_windows, 0u);
  EXPECT_GT(burst_done, 0u) << "sender must not stay blocked forever";
  EXPECT_LT(burst_done, 40'000u)
      << "the window close, not the receiver, must release the sender";
}

// ---- NoC link jitter under contention (regression) ----

TEST(LinkJitter, ContentionPathExtendsLinkHold) {
  // Jitter on a hop must extend the link's reservation, not only the
  // jittered message's own arrival: a later message crossing the same link
  // has to queue behind the jitter. Before the fix the contention path
  // added hop jitter to the head latency only, so jittered runs were
  // indistinguishable from clean ones for every *other* message — this
  // test fails on that code with jit.second == clean.second + 1.
  arch::MachineParams p = arch::MachineParams::tilegx_small(2, 1);
  p.model_link_contention = true;
  arch::MeshTopology topo(p);
  sim::Scheduler sched;
  sim::FaultInjector fi(sched);
  sim::FaultPlan fp;
  fp.seed = 9;
  fp.jitter_permille = 1000;  // every hop draw hits...
  fp.jitter_max = 1;          // ...and adds exactly 1 + below(1) = 1 cycle
  fi.install(fp, p.cores());
  auto arrivals = [&](sim::FaultInjector* f) {
    arch::NocModel noc(p, topo);
    if (f) noc.attach_faults(f);
    // Two back-to-back 3-word messages over the single east link of the
    // 2x1 mesh, both injected at t = 0: the second queues behind the first.
    const sim::Cycle a1 = noc.route(0, 1, 0, 3);
    const sim::Cycle a2 = noc.route(0, 1, 0, 3);
    return std::make_pair(a1, a2);
  };
  const auto clean = arrivals(nullptr);
  const auto jit = arrivals(&fi);
  // First message: only its own hop jitter.
  EXPECT_EQ(jit.first, clean.first + 1);
  // Second message: the first message's jittered hold plus its own jitter.
  EXPECT_EQ(jit.second, clean.second + 2)
      << "link hold must absorb the jitter so later messages queue behind it";
}

// ---- Section 6 overflow guards ----

TEST(Sec6Overflow, ThrottlingFixesClientOnServerCoreWedge) {
  // The DeadlockHazard scenario from test_sec6_practical.cpp: a client
  // sharing the server's core with a 6-word buffer wedges the plain
  // MP-SERVER. With max_inflight = 1 the whole system holds at most one
  // 3-word request plus one 1-word response at a time, so the server's
  // response send can always complete.
  arch::MachineParams p = arch::MachineParams::tilegx_small(2, 1);
  p.udn_buf_words = 6;
  SimExecutor ex(p, 3);
  ds::SeqCounter c;
  sync::MpServer<SimCtx> mp(0, &c, /*max_inflight=*/1);
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });  // core 0
  for (int i = 0; i < 3; ++i) {  // threads 1..3 land on cores 1, 0(!), 1
    ex.add_thread([&](SimCtx& ctx) {
      for (;;) mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
    });
  }
  ex.run_until(2'000'000);
  EXPECT_GT(c.value.load(), 10'000u) << "throttling must prevent the wedge";
  std::uint64_t throttle = 0;
  for (rt::Tid t = 0; t < sync::MpServer<SimCtx>::kMaxThreads; ++t) {
    throttle += mp.stats(t).throttle_waits;
  }
  EXPECT_GT(throttle, 0u) << "clients should have waited for credits";
}

TEST(Sec6Overflow, MpServerCompletesUnderPressureAndPreemption) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  p.udn_buf_words = 24;  // small buffer: pressure windows bite
  SimExecutor ex(p, 41);
  ex.machine().install_faults(pressure_plan(7));
  ds::SeqCounter c;
  sync::MpServer<SimCtx> mp(0, &c, /*max_inflight=*/2);
  const std::uint32_t nclients = 12;
  const std::uint64_t ops_each = 40;
  std::uint32_t done = 0;
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  for (std::uint32_t i = 0; i < nclients; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint64_t k = 0; k < ops_each; ++k) {
        mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
      }
      if (++done == nclients) mp.request_stop(ctx);
    });
  }
  ex.run_until(10'000'000);
  EXPECT_EQ(c.value.load(), nclients * ops_each)
      << "no request may be lost under faults";
  EXPECT_GT(ex.machine().faults().counters().preemptions, 0u);
}

// MP-SERVER-HUB parity: the consolidated server must survive the same two
// Section 6 adversaries as the single-object MpServer above.

TEST(Sec6Overflow, HubThrottlingFixesClientOnServerCoreWedge) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(2, 1);
  p.udn_buf_words = 6;
  SimExecutor ex(p, 3);
  ds::SeqCounter c;
  sync::MpServerHub<SimCtx> hub(0, /*max_inflight=*/1);
  const std::uint64_t op = hub.add_op(ds::counter_inc<SimCtx>, &c);
  ex.add_thread([&](SimCtx& ctx) { hub.serve(ctx); });  // core 0
  for (int i = 0; i < 3; ++i) {  // threads 1..3 land on cores 1, 0(!), 1
    ex.add_thread([&](SimCtx& ctx) {
      for (;;) hub.apply(ctx, op, 0);
    });
  }
  ex.run_until(2'000'000);
  EXPECT_GT(c.value.load(), 10'000u) << "throttling must prevent the wedge";
  std::uint64_t throttle = 0;
  for (rt::Tid t = 0; t < sync::MpServerHub<SimCtx>::kMaxThreads; ++t) {
    throttle += hub.stats(t).throttle_waits;
  }
  EXPECT_GT(throttle, 0u) << "clients should have waited for credits";
}

TEST(Sec6Overflow, HubCompletesUnderPressureAndPreemption) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  p.udn_buf_words = 24;
  SimExecutor ex(p, 41);
  ex.machine().install_faults(pressure_plan(7));
  ds::SeqCounter c;
  sync::MpServerHub<SimCtx> hub(0, /*max_inflight=*/2);
  const std::uint64_t op = hub.add_op(ds::counter_inc<SimCtx>, &c);
  const std::uint32_t nclients = 12;
  const std::uint64_t ops_each = 40;
  std::uint32_t done = 0;
  ex.add_thread([&](SimCtx& ctx) { hub.serve(ctx); });
  for (std::uint32_t i = 0; i < nclients; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint64_t k = 0; k < ops_each; ++k) {
        hub.apply(ctx, op, 0);
      }
      if (++done == nclients) hub.request_stop(ctx);
    });
  }
  ex.run_until(10'000'000);
  EXPECT_EQ(c.value.load(), nclients * ops_each)
      << "no request may be lost under faults";
  EXPECT_GT(ex.machine().faults().counters().preemptions, 0u);
}

TEST(Sec6Overflow, HybCombCompletesWithStallDetection) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  SimExecutor ex(p, 43);
  sim::FaultPlan fp;
  fp.seed = 11;
  fp.preempt_period = 3'000;  // aggressive: combiners get descheduled often
  fp.preempt_duration = 2'000;
  ex.machine().install_faults(fp);
  ds::SeqCounter c;
  sync::HybComb<SimCtx>::Options opts;
  opts.stall_timeout = 400;
  opts.max_inflight = 4;
  sync::HybComb<SimCtx> hyb(&c, 16, /*fixed_combiner=*/false, opts);
  const std::uint32_t nthreads = 16;
  const std::uint64_t ops_each = 40;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint64_t k = 0; k < ops_each; ++k) {
        hyb.apply(ctx, ds::counter_inc<SimCtx>, 0);
        ctx.compute(ctx.rand_below(20));
      }
    });
  }
  ex.run_until(20'000'000);
  EXPECT_EQ(c.value.load(), nthreads * ops_each)
      << "no request may be lost under combiner preemption";
  std::uint64_t stalls = 0;
  for (rt::Tid t = 0; t < sync::HybComb<SimCtx>::kMaxThreads; ++t) {
    stalls += hyb.stats(t).stall_timeouts;
  }
  EXPECT_GT(stalls, 0u)
      << "stall detection should have fired under aggressive preemption";
}

TEST(Sec6Overflow, HarnessReportsRobustnessCounters) {
  // The acceptance scenario: harness-level run with buffer pressure and
  // combiner preemption completes and surfaces the new counters.
  harness::RunCfg cfg;
  cfg.machine = arch::MachineParams::tilegx_small(4, 2);
  cfg.app_threads = 8;
  cfg.warmup = 20'000;
  cfg.window = 60'000;
  cfg.reps = 2;
  cfg.faults = pressure_plan(3);
  cfg.max_inflight = 2;
  cfg.stall_timeout = 500;
  for (harness::Approach a :
       {harness::Approach::kMpServer, harness::Approach::kHybComb}) {
    const harness::RunResult r = harness::run_counter(cfg, a);
    EXPECT_GT(r.total_ops, 0u) << harness::approach_name(a);
    EXPECT_GT(r.preemptions, 0u) << harness::approach_name(a);
    EXPECT_GT(r.throttle_waits, 0u) << harness::approach_name(a);
  }
}

// The open-loop drivers report preemptions as the closed loop does: every
// driver sums the cores' preemption counts when its run frame ends.
TEST(Sec6Overflow, ServiceRunsReportPreemptions) {
  harness::ServiceCfg cfg;
  cfg.base.machine = arch::MachineParams::tilegx_small(4, 2);
  cfg.base.warmup = 10'000;
  cfg.base.window = 60'000;
  cfg.base.seed = 3;
  cfg.base.faults = pressure_plan(3);
  cfg.sessions = 4;
  cfg.objects = 4;
  cfg.offered_mops = 20;
  const harness::RunResult r =
      harness::run_service(cfg, harness::Approach::kMpServer);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GT(r.preemptions, 0u);
  cfg.shards = 2;
  const harness::RunResult s = harness::run_service_sharded(cfg);
  EXPECT_GT(s.total_ops, 0u);
  EXPECT_GT(s.preemptions, 0u);
}

// ---- fault windows stop once nothing else is pending ----

// One fault category each: a preemption plan and a credit-pressure plan.
std::vector<sim::FaultPlan> single_category_plans() {
  sim::FaultPlan preempt;
  preempt.preempt_period = 6'000;
  preempt.preempt_duration = 1'500;
  sim::FaultPlan credit;
  credit.credit_period = 8'000;
  credit.credit_duration = 3'000;
  return {preempt, credit, pressure_plan(5)};
}

TEST(FaultWindows, RunDrainsOnceTheWorkloadFinishes) {
  // A window that found every fiber finished used to arm the next one
  // anyway, so a run under a plan only ever ended at its horizon.
  constexpr sim::Cycle kHorizon = 20'000'000;
  for (const sim::FaultPlan& plan : single_category_plans()) {
    SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 13);
    ex.machine().install_faults(plan);
    ds::SeqCounter c;
    sync::MpServer<SimCtx> mp(0, &c);
    std::uint32_t done = 0;
    ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
    for (int i = 0; i < 3; ++i) {
      ex.add_thread([&](SimCtx& ctx) {
        for (int k = 0; k < 200; ++k) {
          mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
          ctx.compute(ctx.rand_below(40));
        }
        if (++done == 3) mp.request_stop(ctx);
      });
    }
    ex.run_until(kHorizon);
    EXPECT_EQ(c.value.load(), 600u);
    EXPECT_GT(ex.machine().faults().counters().preemptions +
                  ex.machine().faults().counters().credit_windows,
              0u);
    EXPECT_LT(ex.sched().now(), kHorizon);
  }
}

TEST(FaultWindows, RecordedRunEndsBeforeItsHorizon) {
  harness::RecordCfg cfg;
  cfg.construction = harness::Construction::kMpServer;
  cfg.object = harness::Object::kQueue;
  cfg.threads = 4;
  cfg.ops_each = 6;
  cfg.horizon = 20'000'000;
  for (const sim::FaultPlan& plan : single_category_plans()) {
    cfg.faults = plan;
    const harness::RecordResult r = harness::record_history(cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.history.size(), 24u);
    EXPECT_LT(r.end_time, cfg.horizon);
  }
}

// ---- hard capacity checks (death tests) ----

using FaultInjectDeathTest = ::testing::Test;

TEST(FaultInjectDeathTest, StatsBeyondCapacityAborts) {
  ds::SeqCounter c;
  sync::MpServer<SimCtx> mp(0, &c);
  EXPECT_DEATH(mp.stats(64), "exceeds the construction's fixed capacity");
  sync::HybComb<SimCtx> hyb(&c);
  EXPECT_DEATH(hyb.stats(200), "exceeds the construction's fixed capacity");
  sync::CcSynch<SimCtx> cc(&c);
  EXPECT_DEATH(cc.stats(64), "exceeds the construction's fixed capacity");
}

TEST(FaultInjectDeathTest, TooManyThreadsAborts) {
  // A 73rd thread (tid 72) would silently index past the 64-slot pools; the
  // capacity check must fire before any memory is touched.
  EXPECT_DEATH(
      {
        // 36 cores x 4 demux queues hold 144 threads, so every placement is
        // valid; only the construction's 64-slot pools are exceeded.
        SimExecutor ex(arch::MachineParams::tilegx36(), 3);
        ds::SeqCounter c;
        sync::HybComb<SimCtx> hyb(&c, 16);
        const std::uint32_t nthreads = 72;
        for (std::uint32_t i = 0; i < nthreads; ++i) {
          ex.add_thread([&](SimCtx& ctx) {
            hyb.apply(ctx, ds::counter_inc<SimCtx>, 0);
          });
        }
        ex.run_until(sim::kCycleMax);
      },
      "exceeds the construction's fixed capacity");
}

TEST(FaultInjectDeathTest, McsLockBeyondCapacityAborts) {
  // record_history drives McsLock directly, with no capacity check in
  // front of it; a 65th client (tid 64) must die in the lock itself
  // instead of writing past its 64-node pool.
  harness::RecordCfg cfg;
  cfg.construction = harness::Construction::kMcsLock;
  cfg.threads = 65;
  cfg.ops_each = 1;
  EXPECT_DEATH(harness::record_history(cfg),
               "hmps fatal: McsLock::lock: thread id 64 exceeds");
}

TEST(FaultInjectDeathTest, AsyncTrainsPastCapacityAbortInTheServer) {
  // Async trains keep one sync::AsyncBatcher per thread id. A client with
  // tid 64 must fill its own batcher and then die in the server's capacity
  // check, never write past a 64-entry batcher vector (which ASan reports
  // as a heap overflow).
  harness::RunCfg cfg;
  cfg.app_threads = 65;  // tids 1..65 behind the server on tid 0
  cfg.async_batch = 2;
  cfg.warmup = 20'000;
  cfg.window = 20'000;
  cfg.reps = 1;
  EXPECT_DEATH(harness::run_counter(cfg, harness::Approach::kMpServer),
               "hmps fatal: MpServer::apply_async");
  harness::ServiceCfg svc;
  svc.base = cfg;
  svc.sessions = 65;
  svc.offered_mops = 200;
  EXPECT_DEATH(harness::run_service(svc, harness::Approach::kMpServer),
               "hmps fatal: MpServer::apply_async");
}

TEST(FaultInjectDeathTest, UnhandledQueueImplAborts) {
  // The harness server dispatch must fail loudly on an enumerator it does
  // not know instead of silently running the bench without its server.
  harness::RunCfg cfg;
  cfg.machine = arch::MachineParams::tilegx_small(4, 2);
  cfg.app_threads = 2;
  EXPECT_DEATH(harness::run_queue(cfg, static_cast<harness::QueueImpl>(99)),
               "unhandled QueueImpl");
}

}  // namespace
}  // namespace hmps
