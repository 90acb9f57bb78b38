// Virtual-Link MPMC channel fabric (arch/vlink.hpp) and the delegation
// construction built on it (sync/vlink_server.hpp, docs/MODEL.md §12):
// frame integrity under concurrent producers/consumers, credit
// backpressure, the server-pool drain, async tickets, fault interaction,
// and linearizable histories through the recording harness.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "arch/machine.hpp"
#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "ds/queue.hpp"
#include "harness/history.hpp"
#include "harness/record.hpp"
#include "harness/workload.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/fault.hpp"
#include "sync/vlink_server.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

TEST(VlinkFabric, RoundTripDeliversWordsIntact) {
  SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 3);
  const auto ch = ex.machine().vlink().create_channel(/*home=*/0, 64);
  std::uint64_t got[3] = {0, 0, 0};
  ex.add_thread([&](SimCtx& ctx) { ctx.vlink_pop(ch, got, 3); });
  ex.add_thread([&](SimCtx& ctx) {
    ctx.vlink_push(ch, {0xA5A5u, 42u, ~std::uint64_t{0}});
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(got[0], 0xA5A5u);
  EXPECT_EQ(got[1], 42u);
  EXPECT_EQ(got[2], ~std::uint64_t{0});
  const auto& c = ex.machine().vlink().counters();
  EXPECT_EQ(c.frames, 1u);
  EXPECT_EQ(c.words, 3u);
}

TEST(VlinkFabric, FramesStayAtomicAcrossMpmc) {
  // 4 producers push 3-word frames tagged (producer, seq, producer^seq);
  // 2 consumers drain them concurrently. Every popped frame must be
  // internally consistent — concurrent consumers never interleave words —
  // and every pushed frame must arrive exactly once.
  constexpr std::uint32_t kProducers = 4, kConsumers = 2, kFrames = 25;
  SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 9);
  // Tiny capacity (4 frames) so producers hit backpressure and consumers
  // block mid-stream: both waiter paths run.
  const auto ch = ex.machine().vlink().create_channel(/*home=*/0, 12);
  std::vector<std::array<std::uint64_t, 3>> popped;
  std::uint32_t drained = 0;
  for (std::uint32_t cns = 0; cns < kConsumers; ++cns) {
    ex.add_thread([&](SimCtx& ctx) {
      for (;;) {
        std::uint64_t f[3];
        ctx.vlink_pop(ch, f, 3);
        if (f[0] == ~std::uint64_t{0}) return;  // poison
        popped.push_back({f[0], f[1], f[2]});
        ++drained;
      }
    });
  }
  std::uint32_t done = 0;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    ex.add_thread([&, p](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < kFrames; ++k) {
        ctx.vlink_push(ch, {p, k, static_cast<std::uint64_t>(p ^ k)});
        ctx.compute(ctx.rand_below(20));
      }
      if (++done == kProducers) {
        for (std::uint32_t c = 0; c < kConsumers; ++c) {
          ctx.vlink_push(ch, {~std::uint64_t{0}, 0, 0});
        }
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  ASSERT_EQ(drained, kProducers * kFrames);
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  for (const auto& f : popped) {
    EXPECT_EQ(f[2], f[0] ^ f[1]) << "interleaved frame";
    EXPECT_TRUE(seen.insert({f[0], f[1]}).second) << "duplicated frame";
  }
  const auto& c = ex.machine().vlink().counters();
  EXPECT_GT(c.producer_blocks, 0u);  // the tiny ring exerted backpressure
  EXPECT_GT(c.consumer_waits, 0u);
  EXPECT_LE(c.peak_occupancy, 12u);  // credits never exceed capacity
}

// No credit window admits a frame larger than the whole channel, so its
// producer would block forever: a 3-word push into a 2-word channel must
// abort in every build instead of hanging the run. The horizon bounds the
// run where the push would only block.
using VlinkFabricDeathTest = ::testing::Test;

TEST(VlinkFabricDeathTest, FrameLargerThanTheChannelAborts) {
  EXPECT_DEATH(
      {
        SimExecutor ex(arch::MachineParams::tilegx_small(2, 1), 1);
        const auto ch = ex.machine().vlink().create_channel(/*home=*/0, 2);
        ex.add_thread([&](SimCtx& ctx) { ctx.vlink_push(ch, {1, 2, 3}); });
        ex.run_until(100'000);
      },
      "hmps fatal: VlinkFabric: push: a 3-word frame does not fit its "
      "2-word channel");
}

TEST(VlinkFabric, DeterministicTimeline) {
  auto run = [] {
    SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 21);
    const auto ch = ex.machine().vlink().create_channel(0, 16);
    std::uint64_t sum = 0;
    ex.add_thread([&](SimCtx& ctx) {
      for (int k = 0; k < 60; ++k) {
        std::uint64_t f[2];
        ctx.vlink_pop(ch, f, 2);
        sum += f[1];
      }
    });
    for (std::uint32_t p = 0; p < 3; ++p) {
      ex.add_thread([&, p](SimCtx& ctx) {
        for (std::uint64_t k = 0; k < 20; ++k) {
          ctx.vlink_push(ch, {p, k});
          ctx.compute(ctx.rand_below(15));
        }
      });
    }
    ex.run_until(sim::kCycleMax);
    return std::make_tuple(sum, ex.sched().now(),
                           ex.machine().vlink().counters().frames);
  };
  EXPECT_EQ(run(), run());
}

// ---- the construction ----

TEST(VlinkServer, CounterExactUnderContention) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 5);
  ds::SeqCounter c;
  sync::VlinkServer<SimCtx> vl(ex.machine().vlink(), /*server_core=*/0, &c);
  ex.add_thread([&](SimCtx& ctx) { vl.serve(ctx); });
  std::uint32_t done = 0;
  constexpr std::uint32_t kClients = 6, kOps = 40;
  for (std::uint32_t i = 0; i < kClients; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < kOps; ++k) {
        vl.apply(ctx, ds::counter_inc<SimCtx>, 0);
        ctx.compute(ctx.rand_below(25));
      }
      if (++done == kClients) vl.request_stop(ctx);
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), kClients * kOps);
  sync::SyncStats sum;
  for (std::uint32_t t = 0; t < 16; ++t) sum.add(vl.stats(t));
  EXPECT_EQ(sum.served, kClients * kOps);
}

/// Pool CS body: a pool runs CS bodies concurrently across its serving
/// threads (see VlinkServer::serve), so the increment must be atomic — a
/// plain load/store body would lose updates exactly as under direct access.
std::uint64_t counter_faa_inc(SimCtx& ctx, void* obj, std::uint64_t) {
  return ctx.faa(&static_cast<ds::SeqCounter*>(obj)->value, 1);
}

TEST(VlinkServer, ServerPoolDrainsOneChannel) {
  // The MPMC request channel is the whole point: two serving threads drain
  // it concurrently with no demux/hub machinery, and frame-atomic pops keep
  // every 3-word request whole.
  SimExecutor ex(arch::MachineParams::tilegx36(), 13);
  ds::SeqCounter c;
  sync::VlinkServer<SimCtx> vl(ex.machine().vlink(), /*server_core=*/0, &c);
  ex.add_thread([&](SimCtx& ctx) { vl.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) { vl.serve(ctx); });
  std::uint32_t done = 0;
  constexpr std::uint32_t kClients = 8, kOps = 30;
  std::set<std::uint64_t> returns;
  for (std::uint32_t i = 0; i < kClients; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < kOps; ++k) {
        returns.insert(vl.apply(ctx, counter_faa_inc, 0));
        ctx.compute(ctx.rand_below(12));
      }
      if (++done == kClients) {
        vl.request_stop(ctx);  // one stop frame per serving thread
        vl.request_stop(ctx);
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), kClients * kOps);
  // Every request served exactly once: the pre-increment FAA values form
  // the full 0..239 range with no duplicates, so no frame was lost, split,
  // or double-served on the shared channel.
  EXPECT_EQ(returns.size(), kClients * kOps);
  EXPECT_EQ(*returns.rbegin(), kClients * kOps - 1);
}

TEST(VlinkServer, AsyncTicketsReapOutOfOrder) {
  SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 17);
  ds::SeqCounter c;
  sync::VlinkServer<SimCtx> vl(ex.machine().vlink(), /*server_core=*/0, &c);
  ex.add_thread([&](SimCtx& ctx) { vl.serve(ctx); });
  std::set<std::uint64_t> returns;
  ex.add_thread([&](SimCtx& ctx) {
    sync::Ticket t[8];
    for (int j = 0; j < 8; ++j) {
      t[j] = vl.apply_async(ctx, ds::counter_inc<SimCtx>, 0);
    }
    for (int j = 8; j-- > 0;) {  // reverse reap exercises the staging path
      returns.insert(vl.wait(ctx, t[j]));
    }
    vl.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), 8u);
  // FAA pre-increment values 0..7, each seen exactly once.
  EXPECT_EQ(returns.size(), 8u);
  EXPECT_EQ(*returns.begin(), 0u);
  EXPECT_EQ(*returns.rbegin(), 7u);
}

TEST(VlinkServer, SurvivesFaultInjection) {
  sim::FaultPlan fp;
  fp.seed = 41;
  fp.delay_permille = 150;
  fp.delay_min = 5;
  fp.delay_max = 80;
  SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 29);
  ex.machine().install_faults(fp);
  ds::SeqCounter c;
  sync::VlinkServer<SimCtx> vl(ex.machine().vlink(), /*server_core=*/0, &c);
  ex.add_thread([&](SimCtx& ctx) { vl.serve(ctx); });
  std::uint32_t done = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < 30; ++k) {
        vl.apply(ctx, ds::counter_inc<SimCtx>, 0);
      }
      if (++done == 5) vl.request_stop(ctx);
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), 150u);
  EXPECT_GT(ex.machine().faults().counters().delayed_messages, 0u);
}

// ---- harness integration ----

TEST(VlinkHarness, RecordHistoryCounterLinearizable) {
  for (const std::uint32_t depth : {0u, 4u}) {
    harness::RecordCfg cfg;
    cfg.params = arch::MachineParams::tilegx_small(4, 2);
    cfg.construction = harness::Construction::kVlink;
    cfg.object = harness::Object::kCounter;
    cfg.threads = 5;
    cfg.ops_each = 12;
    cfg.async_depth = depth;
    cfg.seed = 3;
    const auto res = harness::record_history(cfg);
    ASSERT_TRUE(res.completed) << "depth " << depth;
    ASSERT_EQ(res.history.size(), 5u * 12u);
    const auto chk = harness::check_counter_fast(res.history);
    EXPECT_TRUE(chk.ok) << "depth " << depth << ": " << chk.reason;
  }
}

TEST(VlinkHarness, RecordHistoryQueueLinearizableWithCombiningNoc) {
  // The full ISSUE stack at once: vlink transport + combining NoC + faults.
  harness::RecordCfg cfg;
  cfg.params = arch::MachineParams::tilegx_small(4, 2);
  cfg.params.noc_combining = true;
  cfg.construction = harness::Construction::kVlink;
  cfg.object = harness::Object::kQueue;
  cfg.threads = 4;
  cfg.ops_each = 10;
  cfg.seed = 19;
  sim::FaultPlan fp;
  fp.seed = 23;
  fp.delay_permille = 100;
  fp.delay_min = 3;
  fp.delay_max = 40;
  cfg.faults = fp;
  const auto res = harness::record_history(cfg);
  ASSERT_TRUE(res.completed);
  const auto chk = harness::check_queue_fast(res.history);
  EXPECT_TRUE(chk.ok) << chk.reason;
}

TEST(VlinkHarness, RunCounterProducesThroughput) {
  harness::RunCfg cfg;
  cfg.machine = arch::MachineParams::tilegx_small(6, 6);
  cfg.app_threads = 8;
  cfg.warmup = 20'000;
  cfg.window = 50'000;
  cfg.reps = 2;
  const auto r = harness::run_counter(cfg, harness::Approach::kVlinkServer);
  EXPECT_GT(r.mops, 0.0);
  EXPECT_GT(r.total_ops, 0u);
  // The construction moved its requests over vlink frames, not the UDN.
  EXPECT_EQ(r.msgs_per_op, 0.0);
}

TEST(VlinkHarness, QueueAndStackVariantsRun) {
  harness::RunCfg cfg;
  cfg.machine = arch::MachineParams::tilegx_small(4, 2);
  cfg.app_threads = 4;
  cfg.warmup = 10'000;
  cfg.window = 30'000;
  cfg.reps = 2;
  const auto q = harness::run_queue(cfg, harness::QueueImpl::kVl1);
  EXPECT_GT(q.total_ops, 0u);
  const auto s = harness::run_stack(cfg, harness::StackImpl::kVl);
  EXPECT_GT(s.total_ops, 0u);
}

TEST(VlinkHarness, NamesRoundTrip) {
  harness::Construction c;
  ASSERT_TRUE(harness::construction_from_string("vlink", &c));
  EXPECT_EQ(c, harness::Construction::kVlink);
  EXPECT_STREQ(harness::to_string(harness::Construction::kVlink), "vlink");
  EXPECT_TRUE(harness::uses_server(harness::Construction::kVlink));
  EXPECT_TRUE(harness::supports_async(harness::Construction::kVlink));
  EXPECT_EQ(harness::server_threads(harness::Construction::kVlink, 4), 1u);
  EXPECT_STREQ(harness::approach_name(harness::Approach::kVlinkServer),
               "vlink-server");
  EXPECT_TRUE(harness::approach_needs_server(harness::Approach::kVlinkServer));
}

}  // namespace
}  // namespace hmps
