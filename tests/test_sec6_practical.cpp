// Section 6 practical aspects: oversubscription through the 4-way demux
// queues, thread migration between requests, and deadlock-freedom
// properties of the message-queue sizing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

TEST(Oversubscription, FourThreadsPerCoreViaDemuxQueues) {
  // A small 4x2 machine (8 cores) running 1 server + 31 clients: up to 4
  // threads share each core via the 4 hardware demux queues.
  SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 3);
  ds::SeqCounter c;
  sync::MpServer<SimCtx> mp(0, &c);
  const std::uint32_t nclients = 31;
  const std::uint64_t ops_each = 40;
  std::uint32_t done = 0;
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  for (std::uint32_t i = 0; i < nclients; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint64_t k = 0; k < ops_each; ++k) {
        mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
        ctx.compute(ctx.rand_below(40));
      }
      if (++done == nclients) mp.request_stop(ctx);
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), nclients * ops_each);
}

TEST(Oversubscription, HybCombWithSharedCores) {
  SimExecutor ex(arch::MachineParams::tilegx_small(4, 2), 5);
  ds::SeqCounter c;
  sync::HybComb<SimCtx> hyb(&c, 16);
  const std::uint32_t nthreads = 24;  // 3 per core
  const std::uint64_t ops_each = 40;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint64_t k = 0; k < ops_each; ++k) {
        hyb.apply(ctx, ds::counter_inc<SimCtx>, 0);
        ctx.compute(ctx.rand_below(40));
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), nthreads * ops_each);
}

TEST(Migration, ClientMigratesBetweenRequests) {
  // A client moves to a different core between requests; the server's
  // responses must follow it (identity = current core/queue, Section 6).
  SimExecutor ex(arch::MachineParams::tilegx36(), 7);
  ds::SeqCounter c;
  sync::MpServer<SimCtx> mp(0, &c);
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  std::vector<rt::Tid> cores_used;
  ex.add_thread([&](SimCtx& ctx) {
    for (int round = 0; round < 8; ++round) {
      cores_used.push_back(ctx.core());
      for (int k = 0; k < 10; ++k) {
        mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
      }
      // Hop to the next core (stay off the server's core 0).
      const rt::Tid next = 2 + static_cast<rt::Tid>(round * 4) % 33;
      ctx.migrate(next, /*queue=*/1);
    }
    mp.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), 8u * 10u);
  // The client actually moved around.
  std::vector<rt::Tid> uniq = cores_used;
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  EXPECT_GT(uniq.size(), 4u);
}

TEST(Migration, LatencyDependsOnDistanceToServer) {
  // Same client, near vs far core: request latency should grow with mesh
  // distance (the paper's fairness footnote: cores nearer the server
  // complete slightly more operations).
  SimExecutor ex(arch::MachineParams::tilegx36(), 9);
  ds::SeqCounter c;
  sync::MpServer<SimCtx> mp(0, &c);
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  sim::Cycle near_lat = 0, far_lat = 0;
  ex.add_thread([&](SimCtx& ctx) {
    ctx.migrate(1, 0);  // adjacent to the server
    {
      const sim::Cycle t0 = ctx.now();
      for (int k = 0; k < 50; ++k) mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
      near_lat = ctx.now() - t0;
    }
    ctx.migrate(35, 0);  // opposite mesh corner
    {
      const sim::Cycle t0 = ctx.now();
      for (int k = 0; k < 50; ++k) mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
      far_lat = ctx.now() - t0;
    }
    mp.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_GT(far_lat, near_lat);
}

TEST(DeadlockFreedom, TinyBuffersStillComplete) {
  // With buffers so small that every burst backpressures, the send-then-
  // blocking-receive discipline still guarantees progress (Section 6).
  arch::MachineParams p = arch::MachineParams::tilegx36();
  p.udn_buf_words = 6;  // two 3-word requests
  SimExecutor ex(p, 11);
  ds::SeqCounter c;
  sync::MpServer<SimCtx> mp(0, &c);
  const std::uint32_t nclients = 20;
  const std::uint64_t ops_each = 30;
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
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), nclients * ops_each);
  EXPECT_GT(ex.machine().udn().counters().sender_blocks, 0u);
}

TEST(DeadlockFreedom, ResponseQueueNeverOverflows) {
  // A client/non-combiner queue holds at most one message (its response),
  // so the servicing thread can never block on a response send.
  SimExecutor ex(arch::MachineParams::tilegx36(), 13);
  ds::SeqCounter c;
  sync::HybComb<SimCtx> hyb(&c, 64);
  const std::uint32_t nthreads = 30;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (int k = 0; k < 60; ++k) {
        hyb.apply(ctx, ds::counter_inc<SimCtx>, 0);
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), nthreads * 60u);
  // Peak occupancy is bounded by one 3-word request per other thread.
  EXPECT_LE(ex.machine().udn().counters().peak_occupancy,
            3u * (nthreads - 1));
}

TEST(DeadlockHazard, ClientOnServerCoreWithTinyBufferWedges) {
  // The Section 6 hazard the paper leaves to the programmer: if a client
  // shares the SERVER's core (4-way demux) and the shared hardware buffer
  // is sized below one request per client, requests can occupy the entire
  // buffer and the server's response send to its own core blocks forever.
  // This test documents the failure mode: the system makes (almost) no
  // progress within a generous horizon.
  arch::MachineParams p = arch::MachineParams::tilegx_small(2, 1);  // 2 cores
  p.udn_buf_words = 6;  // two 3-word requests fill a core's buffer
  SimExecutor ex(p, 3);
  ds::SeqCounter c;
  sync::MpServer<SimCtx> mp(0, &c);
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });      // core 0
  for (int i = 0; i < 3; ++i) {  // threads 1..3: cores 1, 0(!), 1
    ex.add_thread([&](SimCtx& ctx) {
      for (;;) mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
    });
  }
  ex.run_until(2'000'000);
  // A healthy setup would complete ~100k ops in this horizon.
  EXPECT_LT(c.value.load(), 1000u) << "expected the documented wedge";
}

}  // namespace
}  // namespace hmps
