// Tests for the history recorder and the linearizability checkers — both
// on hand-crafted histories (known-good and known-bad) and on real
// histories produced by the universal constructions on the simulator.
#include <gtest/gtest.h>

#include <vector>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "harness/history.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"
#include "sync/shm_server.hpp"

namespace hmps::harness {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

OpRecord op(std::uint32_t th, OpKind k, std::uint64_t arg, std::uint64_t ret,
            Cycle inv, Cycle resp) {
  return OpRecord{th, k, arg, ret, inv, resp};
}

// ---- hand-crafted histories ----

TEST(QueueFast, AcceptsSequentialFifo) {
  std::vector<OpRecord> h = {
      op(0, OpKind::kEnq, 1, 0, 0, 10),
      op(0, OpKind::kEnq, 2, 0, 20, 30),
      op(0, OpKind::kDeq, 0, 1, 40, 50),
      op(0, OpKind::kDeq, 0, 2, 60, 70),
  };
  EXPECT_TRUE(check_queue_fast(h).ok);
  EXPECT_TRUE(linearizable(h, queue_spec()).ok);
}

TEST(QueueFast, RejectsFifoInversion) {
  std::vector<OpRecord> h = {
      op(0, OpKind::kEnq, 1, 0, 0, 10),
      op(0, OpKind::kEnq, 2, 0, 20, 30),
      op(1, OpKind::kDeq, 0, 2, 40, 50),
      op(1, OpKind::kDeq, 0, 1, 60, 70),
  };
  EXPECT_FALSE(check_queue_fast(h).ok);
  EXPECT_FALSE(linearizable(h, queue_spec()).ok);
}

TEST(QueueFast, AcceptsConcurrentEnqueuesEitherOrder) {
  // Two overlapping enqueues may dequeue in either order.
  std::vector<OpRecord> h = {
      op(0, OpKind::kEnq, 1, 0, 0, 100),
      op(1, OpKind::kEnq, 2, 0, 50, 60),
      op(0, OpKind::kDeq, 0, 2, 200, 210),
      op(0, OpKind::kDeq, 0, 1, 220, 230),
  };
  EXPECT_TRUE(check_queue_fast(h).ok);
  EXPECT_TRUE(linearizable(h, queue_spec()).ok);
}

TEST(QueueFast, RejectsDequeueBeforeEnqueue) {
  std::vector<OpRecord> h = {
      op(0, OpKind::kDeq, 0, 9, 0, 5),
      op(1, OpKind::kEnq, 9, 0, 10, 20),
  };
  EXPECT_FALSE(check_queue_fast(h).ok);
  EXPECT_FALSE(linearizable(h, queue_spec()).ok);
}

TEST(QueueFast, RejectsDuplicateDequeue) {
  std::vector<OpRecord> h = {
      op(0, OpKind::kEnq, 9, 0, 0, 5),
      op(1, OpKind::kDeq, 0, 9, 10, 20),
      op(1, OpKind::kDeq, 0, 9, 30, 40),
  };
  EXPECT_FALSE(check_queue_fast(h).ok);
  EXPECT_FALSE(linearizable(h, queue_spec()).ok);
}

TEST(QueueComplete, EmptyDequeueRequiresEmptyPoint) {
  // deq->empty fully covered by an enqueued-but-undequeued interval is
  // still fine if the deq can linearize before the enq. Here the deq
  // overlaps the enq, so empty is legal.
  std::vector<OpRecord> h = {
      op(0, OpKind::kEnq, 1, 0, 10, 50),
      op(1, OpKind::kDeq, 0, kNothing, 0, 100),
  };
  EXPECT_TRUE(linearizable(h, queue_spec()).ok);
  // But if the enqueue completed before the deq began AND nothing dequeued
  // the value, empty is a violation.
  std::vector<OpRecord> bad = {
      op(0, OpKind::kEnq, 1, 0, 10, 20),
      op(1, OpKind::kDeq, 0, kNothing, 30, 40),
  };
  EXPECT_FALSE(linearizable(bad, queue_spec()).ok);
}

TEST(StackComplete, AcceptsLifoRejectsFifo) {
  std::vector<OpRecord> lifo = {
      op(0, OpKind::kPush, 1, 0, 0, 10),
      op(0, OpKind::kPush, 2, 0, 20, 30),
      op(0, OpKind::kPop, 0, 2, 40, 50),
      op(0, OpKind::kPop, 0, 1, 60, 70),
  };
  EXPECT_TRUE(linearizable(lifo, stack_spec()).ok);
  std::vector<OpRecord> fifo = {
      op(0, OpKind::kPush, 1, 0, 0, 10),
      op(0, OpKind::kPush, 2, 0, 20, 30),
      op(0, OpKind::kPop, 0, 1, 40, 50),
      op(0, OpKind::kPop, 0, 2, 60, 70),
  };
  EXPECT_FALSE(linearizable(fifo, stack_spec()).ok);
}

TEST(CounterFast, AcceptsExactRejectsLostUpdate) {
  std::vector<OpRecord> good = {
      op(0, OpKind::kInc, 0, 0, 0, 10),
      op(1, OpKind::kInc, 0, 1, 5, 15),
      op(0, OpKind::kInc, 0, 2, 20, 30),
  };
  EXPECT_TRUE(check_counter_fast(good).ok);
  EXPECT_TRUE(linearizable(good, counter_spec()).ok);
  std::vector<OpRecord> lost = {
      op(0, OpKind::kInc, 0, 0, 0, 10),
      op(1, OpKind::kInc, 0, 0, 5, 15),  // same pre-value twice
  };
  EXPECT_FALSE(check_counter_fast(lost).ok);
  EXPECT_FALSE(linearizable(lost, counter_spec()).ok);
}

TEST(CounterFast, RejectsNonMonotonicRealTime) {
  std::vector<OpRecord> h = {
      op(0, OpKind::kInc, 0, 1, 0, 10),
      op(1, OpKind::kInc, 0, 0, 20, 30),  // later op returned smaller value
  };
  EXPECT_FALSE(check_counter_fast(h).ok);
}

TEST(Complete, RefusesOversizedHistory) {
  std::vector<OpRecord> h(64, op(0, OpKind::kInc, 0, 0, 0, 1));
  EXPECT_FALSE(linearizable(h, counter_spec()).ok);
}

// ---- histories recorded from the real constructions ----

enum class Kind { kMp, kHyb, kShm, kCc };

template <class ApplyFn>
std::vector<OpRecord> record_queue_history(std::uint32_t nthreads,
                                           std::uint32_t ops_each,
                                           std::uint64_t seed, Kind kind) {
  SimExecutor ex(arch::MachineParams::tilegx36(), seed);
  ds::SeqQueue q(4096);
  sync::MpServer<SimCtx> mp(0, &q);
  sync::HybComb<SimCtx> hyb(&q, 8);
  sync::ShmServer<SimCtx> shm(0, &q);
  sync::CcSynch<SimCtx> cc(&q, 8);
  HistoryRecorder rec;
  std::uint32_t done = 0;
  const bool server = (kind == Kind::kMp || kind == Kind::kShm);

  auto apply = [&](SimCtx& ctx, sync::CsFn<SimCtx> fn,
                   std::uint64_t arg) -> std::uint64_t {
    switch (kind) {
      case Kind::kMp: return mp.apply(ctx, fn, arg);
      case Kind::kHyb: return hyb.apply(ctx, fn, arg);
      case Kind::kShm: return shm.apply(ctx, fn, arg);
      case Kind::kCc: return cc.apply(ctx, fn, arg);
    }
    return 0;
  };

  if (server) {
    ex.add_thread([&](SimCtx& ctx) {
      if (kind == Kind::kMp) {
        mp.serve(ctx);
      } else {
        shm.serve(ctx);
      }
    });
  }
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < ops_each; ++k) {
        OpRecord r;
        r.thread = i;
        r.invoke = ctx.now();
        if (ctx.rand_below(2) == 0) {
          r.kind = OpKind::kEnq;
          r.arg = (static_cast<std::uint64_t>(i) << 32) | k;
          r.ret = apply(ctx, ds::q_enqueue<SimCtx>, r.arg);
        } else {
          r.kind = OpKind::kDeq;
          r.ret = apply(ctx, ds::q_dequeue<SimCtx>, 0);
          if (r.ret == ds::kQEmpty) r.ret = kNothing;
        }
        r.response = ctx.now();
        rec.record(r);
        ctx.compute(ctx.rand_below(40));
      }
      ++done;
      if (done == nthreads && server) {
        if (kind == Kind::kMp) {
          mp.request_stop(ctx);
        } else {
          shm.request_stop(ctx);
        }
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  return rec.ops();
}

class RecordedQueueHistories
    : public ::testing::TestWithParam<std::tuple<Kind, std::uint64_t>> {};

TEST_P(RecordedQueueHistories, FastChecksPass) {
  const auto [kind, seed] = GetParam();
  const auto h = record_queue_history<void>(8, 40, seed, kind);
  const auto r = check_queue_fast(h);
  EXPECT_TRUE(r.ok) << r.reason;
}

TEST_P(RecordedQueueHistories, SmallWindowsFullyLinearizable) {
  const auto [kind, seed] = GetParam();
  // Small concurrent run that the complete checker can handle.
  const auto h = record_queue_history<void>(4, 8, seed, kind);
  ASSERT_LE(h.size(), 63u);
  const auto r = linearizable(h, queue_spec());
  EXPECT_TRUE(r.ok) << r.reason;
}

std::string HistCaseName(
    const ::testing::TestParamInfo<std::tuple<Kind, std::uint64_t>>& info) {
  static const char* names[] = {"Mp", "Hyb", "Shm", "Cc"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) + "_s" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Constructions, RecordedQueueHistories,
    ::testing::Combine(::testing::Values(Kind::kMp, Kind::kHyb, Kind::kShm,
                                         Kind::kCc),
                       ::testing::Values(1u, 33u, 77u)),
    HistCaseName);

// ---- recorded stack histories ----

std::vector<OpRecord> record_stack_history(std::uint32_t nthreads,
                                           std::uint32_t ops_each,
                                           std::uint64_t seed, Kind kind) {
  SimExecutor ex(arch::MachineParams::tilegx36(), seed);
  ds::SeqStack st(4096);
  sync::MpServer<SimCtx> mp(0, &st);
  sync::HybComb<SimCtx> hyb(&st, 8);
  sync::ShmServer<SimCtx> shm(0, &st);
  sync::CcSynch<SimCtx> cc(&st, 8);
  HistoryRecorder rec;
  std::uint32_t done = 0;
  const bool server = (kind == Kind::kMp || kind == Kind::kShm);

  auto apply = [&](SimCtx& ctx, sync::CsFn<SimCtx> fn,
                   std::uint64_t arg) -> std::uint64_t {
    switch (kind) {
      case Kind::kMp: return mp.apply(ctx, fn, arg);
      case Kind::kHyb: return hyb.apply(ctx, fn, arg);
      case Kind::kShm: return shm.apply(ctx, fn, arg);
      case Kind::kCc: return cc.apply(ctx, fn, arg);
    }
    return 0;
  };

  if (server) {
    ex.add_thread([&](SimCtx& ctx) {
      if (kind == Kind::kMp) {
        mp.serve(ctx);
      } else {
        shm.serve(ctx);
      }
    });
  }
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < ops_each; ++k) {
        OpRecord r;
        r.thread = i;
        r.invoke = ctx.now();
        if (ctx.rand_below(2) == 0) {
          r.kind = OpKind::kPush;
          r.arg = (static_cast<std::uint64_t>(i) << 32) | k;
          r.ret = apply(ctx, ds::s_push<SimCtx>, r.arg);
        } else {
          r.kind = OpKind::kPop;
          r.ret = apply(ctx, ds::s_pop<SimCtx>, 0);
          if (r.ret == ds::kStackEmpty) r.ret = kNothing;
        }
        r.response = ctx.now();
        rec.record(r);
        ctx.compute(ctx.rand_below(40));
      }
      ++done;
      if (done == nthreads && server) {
        if (kind == Kind::kMp) {
          mp.request_stop(ctx);
        } else {
          shm.request_stop(ctx);
        }
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  return rec.ops();
}

class RecordedStackHistories
    : public ::testing::TestWithParam<std::tuple<Kind, std::uint64_t>> {};

TEST_P(RecordedStackHistories, SmallWindowsFullyLinearizable) {
  const auto [kind, seed] = GetParam();
  const auto h = record_stack_history(4, 8, seed, kind);
  ASSERT_LE(h.size(), 63u);
  const auto r = linearizable(h, stack_spec());
  EXPECT_TRUE(r.ok) << r.reason;
}

INSTANTIATE_TEST_SUITE_P(
    Constructions, RecordedStackHistories,
    ::testing::Combine(::testing::Values(Kind::kMp, Kind::kHyb, Kind::kShm,
                                         Kind::kCc),
                       ::testing::Values(2u, 44u, 88u)),
    HistCaseName);

}  // namespace
}  // namespace hmps::harness
