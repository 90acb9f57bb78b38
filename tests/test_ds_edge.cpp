// Edge-case and failure-injection tests for the data structures: arena
// recycling, ring turnover, sentinel handling, capacity boundaries, and
// long deterministic stress runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "ds/lcrq.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "harness/history.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/ccsynch.hpp"
#include "sync/hybcomb.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

TEST(SeqQueueEdge, ArenaRecyclesManyTimesOver) {
  // Push far more elements through than the arena holds; FIFO order must
  // survive the wraparound as long as few elements are live at once.
  SimExecutor ex(arch::MachineParams::tilegx_small(), 1);
  ds::SeqQueue q(64);  // tiny arena
  sync::CcSynch<SimCtx> cc(&q, 8);
  bool ok = true;
  ex.add_thread([&](SimCtx& ctx) {
    std::uint64_t next_out = 0;
    for (std::uint64_t i = 0; i < 2000; ++i) {
      cc.apply(ctx, ds::q_enqueue<SimCtx>, i);
      if (i % 3 != 0) {  // keep the queue shallow but non-empty
        const std::uint64_t v = cc.apply(ctx, ds::q_dequeue<SimCtx>, 0);
        if (v != next_out++) ok = false;
      }
      if (i % 3 == 2) {  // drain the extra element
        const std::uint64_t v = cc.apply(ctx, ds::q_dequeue<SimCtx>, 0);
        if (v != next_out++) ok = false;
      }
    }
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_TRUE(ok);
}

TEST(SeqQueueEdge, DequeueEmptyReturnsSentinelRepeatedly) {
  SimExecutor ex(arch::MachineParams::tilegx_small(), 1);
  ds::SeqQueue q(64);
  sync::CcSynch<SimCtx> cc(&q, 8);
  ex.add_thread([&](SimCtx& ctx) {
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(cc.apply(ctx, ds::q_dequeue<SimCtx>, 0), ds::kQEmpty);
    }
    cc.apply(ctx, ds::q_enqueue<SimCtx>, 9);
    EXPECT_EQ(cc.apply(ctx, ds::q_dequeue<SimCtx>, 0), 9u);
    EXPECT_EQ(cc.apply(ctx, ds::q_dequeue<SimCtx>, 0), ds::kQEmpty);
  });
  ex.run_until(sim::kCycleMax);
}

TEST(SeqStackEdge, FreeListExhaustionAndReuse) {
  SimExecutor ex(arch::MachineParams::tilegx_small(), 1);
  ds::SeqStack st(128);
  sync::CcSynch<SimCtx> cc(&st, 8);
  ex.add_thread([&](SimCtx& ctx) {
    // Fill to near capacity, drain, refill — nodes must recycle.
    for (int round = 0; round < 5; ++round) {
      for (std::uint64_t v = 0; v < 120; ++v) {
        cc.apply(ctx, ds::s_push<SimCtx>, v);
      }
      for (int v = 119; v >= 0; --v) {
        EXPECT_EQ(cc.apply(ctx, ds::s_pop<SimCtx>, 0),
                  static_cast<std::uint64_t>(v));
      }
      EXPECT_EQ(cc.apply(ctx, ds::s_pop<SimCtx>, 0), ds::kStackEmpty);
    }
  });
  ex.run_until(sim::kCycleMax);
}

TEST(LcrqEdge, RingCloseUnderFill) {
  // Ring of 8 cells, enqueue 100 without dequeuing: rings must close and
  // chain; then everything drains in order.
  SimExecutor ex(arch::MachineParams::tilegx_small(), 1);
  ds::Lcrq<SimCtx> q(3, 256);
  ex.add_thread([&](SimCtx& ctx) {
    for (std::uint32_t v = 0; v < 100; ++v) q.enqueue(ctx, v);
    for (std::uint32_t v = 0; v < 100; ++v) EXPECT_EQ(q.dequeue(ctx), v);
    EXPECT_EQ(q.dequeue(ctx), ds::kLcrqEmpty);
  });
  ex.run_until(sim::kCycleMax);
}

// Closed rings are retired, never reused, so a queue that keeps filling
// rings walks through its pool. Past `max_rings` it must abort loudly in
// every build type instead of reading beyond the pool.
using LcrqDeathTest = ::testing::Test;

TEST(LcrqDeathTest, RingPoolExhaustionAborts) {
  // Two-cell rings, four of them: eight enqueues fill exactly the pool.
  const auto fill = [](std::uint32_t values) {
    SimExecutor ex(arch::MachineParams::tilegx_small(), 1);
    ds::Lcrq<SimCtx> q(1, 4);
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint32_t v = 0; v < values; ++v) q.enqueue(ctx, v);
      for (std::uint32_t v = 0; v < values; ++v) EXPECT_EQ(q.dequeue(ctx), v);
    });
    ex.run_until(sim::kCycleMax);
  };
  fill(8);
  EXPECT_DEATH(fill(9), "hmps fatal: Lcrq: ring pool of 4 rings exhausted");
}

// A simulated run that stops at its horizon leaves fibers inside their ops,
// and the harness then destroys the queue. alloc_ring's FAA bumps the pool
// counter before the fiber waits out the FAA's latency, so a run stopped in
// that wait leaves a claimed slot with no ring behind it, which the
// destructor must not free. Every horizon up to the end of the run is
// tried, so some stop lands in each ring allocation's FAA. The queue's pool
// array has the size and fill of a freed block in front of it, so a pool
// left uninitialised would read those bytes back (ASan poisons it anyway).
TEST(LcrqEdge, RunStoppedInsideRingAllocation) {
  constexpr std::uint32_t kRings = 64;
  const auto run = [](sim::Cycle horizon) {
    {
      const auto junk = std::make_unique<void*[]>(kRings);
      std::memset(junk.get(), 0xbe, kRings * sizeof(void*));
    }
    ds::Lcrq<SimCtx> q(1, kRings);  // two-cell rings: many allocations
    SimExecutor ex(arch::MachineParams::tilegx_small(), 2);
    for (int t = 0; t < 2; ++t) {
      ex.add_thread([&q, t](SimCtx& ctx) {
        for (std::uint32_t v = 0; v < 12; ++v) q.enqueue(ctx, 2 * v + t);
      });
    }
    ex.run_until(horizon);
    return ex.sched().now();
  };
  const sim::Cycle end = run(sim::kCycleMax);
  ASSERT_GT(end, 0u);
  for (sim::Cycle h = 0; h <= end; ++h) run(h);
}

// The sequential queue, the sequential stack and the Treiber stack hold
// their nodes in fixed arenas. One value past each arena's capacity must
// abort loudly in every build type: the queue's ring used to wrap onto the
// live dummy node, the stack dereferenced a null free list and the Treiber
// stack read past its arena.
using ArenaDeathTest = ::testing::Test;

TEST(ArenaDeathTest, SeqQueueRingFullAborts) {
  // A ring of 8 nodes: the dummy plus at most 7 queued values.
  const auto fill = [](std::uint64_t values) {
    SimExecutor ex(arch::MachineParams::tilegx_small(), 1);
    ds::SeqQueue q(8);
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint64_t v = 0; v < values; ++v) {
        ds::q_enqueue<SimCtx>(ctx, &q, v);
      }
      for (std::uint64_t v = 0; v < values; ++v) {
        EXPECT_EQ(ds::q_dequeue<SimCtx>(ctx, &q, 0), v);
      }
    });
    ex.run_until(sim::kCycleMax);
  };
  fill(7);
  EXPECT_DEATH(fill(8),
               "hmps fatal: SeqQueue: all 8 nodes are in use \\(7 values "
               "queued\\)");
}

TEST(ArenaDeathTest, SeqStackFullAborts) {
  const auto fill = [](std::uint64_t values) {
    SimExecutor ex(arch::MachineParams::tilegx_small(), 1);
    ds::SeqStack s(8);
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint64_t v = 0; v < values; ++v) {
        ds::s_push<SimCtx>(ctx, &s, v);
      }
      for (std::uint64_t v = values; v-- > 0;) {
        EXPECT_EQ(ds::s_pop<SimCtx>(ctx, &s, 0), v);
      }
    });
    ex.run_until(sim::kCycleMax);
  };
  fill(8);
  EXPECT_DEATH(fill(9), "hmps fatal: SeqStack: all 8 nodes hold values");
}

TEST(ArenaDeathTest, TreiberThreadOutOfNodesAborts) {
  // Four nodes per thread; thread 0 may hold four values at once, and
  // nodes it popped are reused before the bump cursor moves.
  const auto fill = [](std::uint32_t values) {
    SimExecutor ex(arch::MachineParams::tilegx_small(), 1);
    ds::TreiberStack<SimCtx> st(4);
    ex.add_thread([&](SimCtx& ctx) {
      for (int round = 0; round < 3; ++round) {
        for (std::uint32_t v = 0; v < values; ++v) st.push(ctx, v);
        for (std::uint32_t v = values; v-- > 0;) EXPECT_EQ(st.pop(ctx), v);
      }
    });
    ex.run_until(sim::kCycleMax);
  };
  fill(4);
  EXPECT_DEATH(fill(5),
               "hmps fatal: TreiberStack: thread 0 holds all 4 of its nodes");
}

TEST(LcrqEdge, AlternatingNearEmpty) {
  // The empty-transition path (dequeuers overshooting tail) is the
  // trickiest part of CRQ; hammer it.
  SimExecutor ex(arch::MachineParams::tilegx_small(), 2);
  ds::Lcrq<SimCtx> q(3, 512);
  for (int t = 0; t < 4; ++t) {
    ex.add_thread([&, t](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < 300; ++k) {
        // Deliberate imbalance: twice as many dequeues as enqueues.
        if (k % 3 == 0) q.enqueue(ctx, static_cast<std::uint32_t>(t * 1000 + k));
        else (void)q.dequeue(ctx);
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  // Drain and count: enqueued = 4 * 100; each value distinct.
  std::vector<std::uint32_t> rest;
  SimExecutor ex2(arch::MachineParams::tilegx_small(), 3);
  // (queue object persists; just pop from a fresh context)
  ex2.add_thread([&](SimCtx& ctx) {
    for (;;) {
      const std::uint32_t v = q.dequeue(ctx);
      if (v == ds::kLcrqEmpty) break;
      rest.push_back(v);
    }
  });
  ex2.run_until(sim::kCycleMax);
  SUCCEED();  // invariants are enforced inside Lcrq via asserts
}

TEST(LcrqEdge, EmptyDequeueAcrossRingWraparound) {
  // Tiny ring (order 2 => 4 cells): a few ops per round wrap the ring
  // indices, and the queue transitions empty -> nonempty -> empty every
  // round. FIFO and the empty sentinel must hold across every wrap.
  SimExecutor ex(arch::MachineParams::tilegx_small(), 11);
  ds::Lcrq<SimCtx> q(2, 2048);
  ex.add_thread([&](SimCtx& ctx) {
    std::uint32_t next_in = 0, next_out = 0;
    for (int round = 0; round < 300; ++round) {
      EXPECT_EQ(q.dequeue(ctx), ds::kLcrqEmpty);
      const std::uint32_t burst = 1 + (round % 3);
      for (std::uint32_t b = 0; b < burst; ++b) q.enqueue(ctx, next_in++);
      for (std::uint32_t b = 0; b < burst; ++b) {
        EXPECT_EQ(q.dequeue(ctx), next_out++);
      }
    }
    EXPECT_EQ(q.dequeue(ctx), ds::kLcrqEmpty);
  });
  ex.run_until(sim::kCycleMax);
}

TEST(LcrqEdge, ConcurrentEmptyDequeuesStayFifo) {
  // Dequeuers racing past an almost-always-empty tiny ring must still see a
  // real-time FIFO history: check the full recorded history rather than
  // just conservation counts.
  SimExecutor ex(arch::MachineParams::tilegx_small(), 23);
  ds::Lcrq<SimCtx> q(2, 2048);
  harness::HistoryRecorder rec;
  const std::uint32_t nthreads = 4;
  const std::uint32_t ops = 120;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < ops; ++k) {
        harness::OpRecord r;
        r.thread = i;
        r.invoke = ctx.now();
        if (k % 3 == 0) {  // dequeue-heavy: hammer the empty transition
          r.kind = harness::OpKind::kEnq;
          r.arg = (static_cast<std::uint64_t>(i) << 16) | k;
          q.enqueue(ctx, static_cast<std::uint32_t>(r.arg));
          r.ret = 0;
        } else {
          r.kind = harness::OpKind::kDeq;
          const std::uint64_t v = q.dequeue(ctx);
          r.ret = (v == ds::kLcrqEmpty) ? harness::kNothing : v;
        }
        r.response = ctx.now();
        rec.record(r);
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  const auto res = harness::check_queue_fast(rec.ops());
  EXPECT_TRUE(res.ok) << res.reason;
}

TEST(TwoLockQueueEdge, ConcurrentEnqDeqConservesFifo) {
  // Separate enqueuer and dequeuer thread pools through the two
  // independent locks of the two-lock MS-queue: the recorded history must
  // be loss-free, duplicate-free, and real-time FIFO.
  SimExecutor ex(arch::MachineParams::tilegx36(), 17);
  ds::SeqQueue q(8192);
  sync::CcSynch<SimCtx> enq_uc(&q, 8);
  sync::CcSynch<SimCtx> deq_uc(&q, 8);
  ds::TwoLockQueue<SimCtx, sync::CcSynch<SimCtx>> tlq(q, enq_uc, deq_uc);
  harness::HistoryRecorder rec;
  const std::uint32_t nproducers = 3, nconsumers = 3;
  const std::uint32_t ops = 50;
  const std::uint64_t total = nproducers * ops;
  std::uint64_t popped = 0;  // single-host-thread simulator: plain counter
  for (std::uint32_t i = 0; i < nproducers; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < ops; ++k) {
        harness::OpRecord r;
        r.thread = i;
        r.kind = harness::OpKind::kEnq;
        r.arg = (static_cast<std::uint64_t>(i) << 32) | k;
        r.invoke = ctx.now();
        tlq.enqueue(ctx, r.arg);
        r.response = ctx.now();
        rec.record(r);
        ctx.compute(ctx.rand_below(30));
      }
    });
  }
  for (std::uint32_t i = 0; i < nconsumers; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      while (popped < total) {
        harness::OpRecord r;
        r.thread = nproducers + i;
        r.kind = harness::OpKind::kDeq;
        r.invoke = ctx.now();
        const std::uint64_t v = tlq.dequeue(ctx);
        r.response = ctx.now();
        if (v == ds::kQEmpty) {
          ctx.compute(40);  // back off instead of recording empty spins
          continue;
        }
        ++popped;
        r.ret = v;
        rec.record(r);
        ctx.compute(ctx.rand_below(30));
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(popped, total);
  const auto res = harness::check_queue_fast(rec.ops());
  EXPECT_TRUE(res.ok) << res.reason;
  EXPECT_EQ(rec.ops().size(), 2 * total);
}

TEST(TreiberEdge, PopEmptyThenReuse) {
  SimExecutor ex(arch::MachineParams::tilegx_small(), 1);
  ds::TreiberStack<SimCtx> st(16);
  ex.add_thread([&](SimCtx& ctx) {
    EXPECT_EQ(st.pop(ctx), ds::kStackEmpty);
    for (int round = 0; round < 50; ++round) {
      st.push(ctx, 100 + round);
      st.push(ctx, 200 + round);
      EXPECT_EQ(st.pop(ctx), 200u + round);
      EXPECT_EQ(st.pop(ctx), 100u + round);
      EXPECT_EQ(st.pop(ctx), ds::kStackEmpty);
    }
  });
  ex.run_until(sim::kCycleMax);
}

TEST(HybCombEdge, NodeRecyclingSurvivesManyTenures) {
  // Force extremely frequent combiner changes (MAX_OPS = 1) for a long
  // deterministic run: the departed_combiner node exchange must never lose
  // or duplicate a node.
  SimExecutor ex(arch::MachineParams::tilegx_small(), 4);
  ds::SeqCounter c;
  sync::HybComb<SimCtx> hyb(&c, 1);
  const std::uint32_t nthreads = 6;
  const std::uint64_t ops = 400;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint64_t k = 0; k < ops; ++k) {
        hyb.apply(ctx, ds::counter_inc<SimCtx>, 0);
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), nthreads * ops);
}

TEST(HybCombEdge, UnfortunateInterleavingWindowIsHarmless) {
  // Section 4.2 "additional comments": a FAA landing between a CAS at line
  // 17 and the n_ops reset at line 18 merely costs performance. Under tiny
  // MAX_OPS and many threads this window is hit constantly; correctness
  // must hold.
  SimExecutor ex(arch::MachineParams::tilegx36(), 21);
  ds::SeqCounter c;
  sync::HybComb<SimCtx> hyb(&c, 2);
  const std::uint32_t nthreads = 32;
  const std::uint64_t ops = 60;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint64_t k = 0; k < ops; ++k) {
        hyb.apply(ctx, ds::counter_inc<SimCtx>, 0);
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), nthreads * ops);
}

TEST(StressDeterministic, LongMixedRunCompletes) {
  // A longer mixed workload (queue + stack + counter through different
  // constructions simultaneously) as a smoke/stress test.
  SimExecutor ex(arch::MachineParams::tilegx36(), 1234);
  ds::SeqCounter c;
  ds::SeqQueue q(8192);
  ds::SeqStack s(8192);
  sync::HybComb<SimCtx> uc_c(&c, 50);
  sync::CcSynch<SimCtx> uc_q(&q, 50);
  sync::HybComb<SimCtx> uc_s(&s, 50);
  const std::uint32_t nthreads = 18;
  const std::uint64_t ops = 300;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (std::uint64_t k = 0; k < ops; ++k) {
        switch ((i + k) % 3) {
          case 0: uc_c.apply(ctx, ds::counter_inc<SimCtx>, 0); break;
          case 1:
            uc_q.apply(ctx, ds::q_enqueue<SimCtx>, k);
            uc_q.apply(ctx, ds::q_dequeue<SimCtx>, 0);
            break;
          case 2:
            uc_s.apply(ctx, ds::s_push<SimCtx>, k);
            uc_s.apply(ctx, ds::s_pop<SimCtx>, 0);
            break;
        }
        ctx.compute(ctx.rand_below(30));
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(c.value.load(), nthreads * ops / 3);
}

}  // namespace
}  // namespace hmps
