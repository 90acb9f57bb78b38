// Focused tests of the internal mechanics of each construction: request
// routing, protocol sequencing, combiner rotation, option variants, and
// the data-structure wrapper classes.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/flat_combining.hpp"
#include "sync/hybcomb.hpp"
#include "sync/shm_server.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

// CS body echoing the argument, for routing checks.
std::uint64_t echo_cs(SimCtx&, void*, std::uint64_t arg) { return arg; }

TEST(MpServerMechanics, ResponsesRouteToTheRightClient) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  ds::SeqCounter obj;
  sync::MpServer<SimCtx> mp(0, &obj);
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  bool ok[8] = {};
  std::uint32_t done = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      bool mine = true;
      for (int k = 0; k < 50; ++k) {
        const std::uint64_t want = (ctx.tid() << 8) | k;
        if (mp.apply(ctx, echo_cs, want) != want) mine = false;
      }
      ok[i] = mine;
      if (++done == 8) mp.request_stop(ctx);
    });
  }
  ex.run_until(sim::kCycleMax);
  for (bool b : ok) EXPECT_TRUE(b);
}

TEST(MpServerMechanics, ServerStatsCountServedOps) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 2);
  ds::SeqCounter obj;
  sync::MpServer<SimCtx> mp(0, &obj);
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) {
    for (int k = 0; k < 33; ++k) mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
    mp.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(mp.stats(0).served, 33u);
}

TEST(ShmServerMechanics, ChannelsAreIsolatedAcrossClients) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 3);
  ds::SeqCounter obj;
  sync::ShmServer<SimCtx> shm(0, &obj);
  ex.add_thread([&](SimCtx& ctx) { shm.serve(ctx); });
  bool ok[6] = {};
  std::uint32_t done = 0;
  for (std::uint32_t i = 0; i < 6; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      bool mine = true;
      for (int k = 0; k < 60; ++k) {
        const std::uint64_t want = (ctx.tid() << 10) | k;
        if (shm.apply(ctx, echo_cs, want) != want) mine = false;
      }
      ok[i] = mine;
      if (++done == 6) shm.request_stop(ctx);
    });
  }
  ex.run_until(sim::kCycleMax);
  for (bool b : ok) EXPECT_TRUE(b);
}

TEST(ShmServerMechanics, SurvivesManySequenceRounds) {
  // The per-channel sequence numbers must work far past small values.
  SimExecutor ex(arch::MachineParams::tilegx36(), 4);
  ds::SeqCounter obj;
  sync::ShmServer<SimCtx> shm(0, &obj);
  ex.add_thread([&](SimCtx& ctx) { shm.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) {
    for (int k = 0; k < 3000; ++k) shm.apply(ctx, ds::counter_inc<SimCtx>, 0);
    shm.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(obj.value.load(), 3000u);
}

TEST(CcSynchMechanics, CombinerRoleRotatesAcrossThreads) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 5);
  ds::SeqCounter obj;
  sync::CcSynch<SimCtx> cc(&obj, 8);
  const std::uint32_t nthreads = 12;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (int k = 0; k < 100; ++k) {
        cc.apply(ctx, ds::counter_inc<SimCtx>, 0);
        ctx.compute(ctx.rand_below(30));
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  std::uint32_t threads_that_combined = 0;
  std::uint64_t max_round = 0, rounds = 0, served = 0;
  for (std::uint32_t t = 0; t < nthreads; ++t) {
    if (cc.stats(t).tenures > 0) ++threads_that_combined;
    rounds += cc.stats(t).tenures;
    served += cc.stats(t).served;
  }
  (void)max_round;
  EXPECT_GT(threads_that_combined, nthreads / 2)
      << "combining must not be monopolized";
  // MAX_OPS bound: no round serves more than max_ops requests on average
  // by a wide margin (individual rounds are bounded by construction).
  EXPECT_LE(static_cast<double>(served) / static_cast<double>(rounds), 8.01);
}

TEST(HybCombMechanics, CombinerRoleRotates) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 6);
  ds::SeqCounter obj;
  sync::HybComb<SimCtx> hyb(&obj, 8);
  const std::uint32_t nthreads = 12;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (int k = 0; k < 100; ++k) {
        hyb.apply(ctx, ds::counter_inc<SimCtx>, 0);
        ctx.compute(ctx.rand_below(30));
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  std::uint32_t combined = 0;
  for (std::uint32_t t = 0; t < nthreads; ++t) {
    if (hyb.stats(t).tenures > 0) ++combined;
  }
  EXPECT_GT(combined, nthreads / 2);
}

TEST(HybCombMechanics, SwapRegistrationVariantIsCorrect) {
  sync::HybComb<SimCtx>::Options opts;
  opts.swap_registration = true;
  SimExecutor ex(arch::MachineParams::tilegx36(), 7);
  ds::SeqCounter obj;
  sync::HybComb<SimCtx> hyb(&obj, 8, false, opts);
  const std::uint32_t nthreads = 16;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (int k = 0; k < 80; ++k) hyb.apply(ctx, ds::counter_inc<SimCtx>, 0);
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(obj.value.load(), nthreads * 80u);
}

TEST(HybCombMechanics, NoEagerDrainVariantIsCorrect) {
  sync::HybComb<SimCtx>::Options opts;
  opts.eager_drain = false;
  SimExecutor ex(arch::MachineParams::tilegx36(), 8);
  ds::SeqCounter obj;
  sync::HybComb<SimCtx> hyb(&obj, 8, false, opts);
  const std::uint32_t nthreads = 16;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (int k = 0; k < 80; ++k) hyb.apply(ctx, ds::counter_inc<SimCtx>, 0);
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(obj.value.load(), nthreads * 80u);
}

TEST(HybCombMechanics, ReturnsOwnResultNotServedOnes) {
  // A combiner serves other requests between executing its own and
  // returning; its return value must be its own CS result.
  SimExecutor ex(arch::MachineParams::tilegx36(), 9);
  ds::SeqCounter obj;
  sync::HybComb<SimCtx> hyb(&obj, 16);
  bool ok = true;
  const std::uint32_t nthreads = 10;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (int k = 0; k < 60; ++k) {
        const std::uint64_t want = (static_cast<std::uint64_t>(i) << 20) | k;
        if (hyb.apply(ctx, echo_cs, want) != want) ok = false;
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_TRUE(ok);
}

TEST(FlatCombiningMechanics, PassBoundRespected) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 10);
  ds::SeqCounter obj;
  sync::FlatCombining<SimCtx> fc(&obj, 64, /*max_passes=*/1);
  const std::uint32_t nthreads = 8;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (int k = 0; k < 60; ++k) fc.apply(ctx, ds::counter_inc<SimCtx>, 0);
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(obj.value.load(), nthreads * 60u);
}

// ---- wrapper classes ----

TEST(Wrappers, UcQueueRoundTrip) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 11);
  ds::SeqQueue q(256);
  sync::CcSynch<SimCtx> cc(&q, 8);
  ds::UcQueue<SimCtx, sync::CcSynch<SimCtx>> queue(q, cc);
  ex.add_thread([&](SimCtx& ctx) {
    EXPECT_EQ(queue.dequeue(ctx), ds::kQEmpty);
    for (std::uint64_t v = 0; v < 30; ++v) queue.enqueue(ctx, v);
    for (std::uint64_t v = 0; v < 30; ++v) EXPECT_EQ(queue.dequeue(ctx), v);
  });
  ex.run_until(sim::kCycleMax);
}

TEST(Wrappers, TwoLockQueueConcurrentEnqDeq) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 12);
  ds::SeqQueue q(4096);
  sync::MpServer<SimCtx> enq_srv(0, &q);
  sync::MpServer<SimCtx> deq_srv(1, &q);
  ds::TwoLockQueue<SimCtx, sync::MpServer<SimCtx>> queue(q, enq_srv, deq_srv);
  std::uint64_t drained = 0;
  ex.add_thread([&](SimCtx& ctx) { enq_srv.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) { deq_srv.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) {  // producer
    for (std::uint64_t v = 0; v < 500; ++v) queue.enqueue(ctx, v);
  });
  ex.add_thread([&](SimCtx& ctx) {  // consumer: strict FIFO expected
    std::uint64_t expect = 0;
    while (expect < 500) {
      const std::uint64_t v = queue.dequeue(ctx);
      if (v == ds::kQEmpty) {
        ctx.compute(20);
        continue;
      }
      EXPECT_EQ(v, expect);
      ++expect;
      ++drained;
    }
    enq_srv.request_stop(ctx);
    deq_srv.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(drained, 500u);
}

TEST(Wrappers, UcStackRoundTrip) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 13);
  ds::SeqStack s(256);
  sync::HybComb<SimCtx> hyb(&s, 8);
  ds::UcStack<SimCtx, sync::HybComb<SimCtx>> stack(s, hyb);
  ex.add_thread([&](SimCtx& ctx) {
    EXPECT_EQ(stack.pop(ctx), ds::kStackEmpty);
    for (std::uint64_t v = 0; v < 30; ++v) stack.push(ctx, v);
    for (std::uint64_t v = 30; v-- > 0;) EXPECT_EQ(stack.pop(ctx), v);
  });
  ex.run_until(sim::kCycleMax);
}

}  // namespace
}  // namespace hmps
