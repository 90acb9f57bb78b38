// Tests for the history recorder and the linearizability checkers — both
// on hand-crafted histories (known-good and known-bad) and on real
// histories produced by the universal constructions on the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "harness/history.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/rng.hpp"
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

// ---- the search against a reference copy ----

// The search as it stood before its memo went flat and its recursion lost
// std::function, kept here as an oracle: a straight Wing & Gong DFS that
// copies the spec state per candidate and memoizes failed (mask, state)
// hashes in a node-based set.
std::uint64_t oracle_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

CheckResult oracle_linearizable(const std::vector<OpRecord>& history,
                                const SeqSpec& spec, std::uint64_t max_nodes) {
  const std::size_t n = history.size();
  if (n == 0) return {};
  if (n > 63) {
    return {false, "history too large for the complete checker (max 63 ops)"};
  }
  std::unordered_set<std::uint64_t> failed;
  std::vector<std::uint64_t> state;
  std::uint64_t nodes = 0;
  bool exhausted = false;
  std::function<bool(std::uint64_t)> dfs = [&](std::uint64_t mask) -> bool {
    if (mask == (std::uint64_t{1} << n) - 1) return true;
    if (max_nodes > 0 && ++nodes > max_nodes) {
      exhausted = true;
      return false;
    }
    if (exhausted) return false;
    std::uint64_t key = mask;
    for (std::uint64_t v : state) key = oracle_mix(key, v);
    if (failed.count(key)) return false;
    Cycle min_resp = sim::kCycleMax;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask & (std::uint64_t{1} << i))) {
        min_resp = std::min(min_resp, history[i].response);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (std::uint64_t{1} << i)) continue;
      if (history[i].invoke > min_resp) continue;
      std::vector<std::uint64_t> saved = state;
      const std::uint64_t expect = spec.apply(state, history[i]);
      if (expect == history[i].ret &&
          dfs(mask | (std::uint64_t{1} << i))) {
        return true;
      }
      state = std::move(saved);
    }
    failed.insert(key);
    return false;
  };
  if (dfs(0)) return {};
  if (exhausted) {
    CheckResult r;
    r.reason = "complete search exceeded " + std::to_string(max_nodes) +
               " nodes (inconclusive)";
    r.inconclusive = true;
    return r;
  }
  return {false, "no linearization exists for this history of " +
                     std::to_string(n) + " ops"};
}

// A random history of `n` ops on one object: a sequential run of the spec
// whose ops get overlapping [invoke, response] intervals around their
// linearization points, recorded in shuffled order. With `corrupt`, one
// op's return is changed.
std::vector<OpRecord> random_history(int object, std::size_t n, bool corrupt,
                                     sim::Xoshiro256& rng) {
  static const OpKind kinds[3][2] = {{OpKind::kEnq, OpKind::kDeq},
                                     {OpKind::kPush, OpKind::kPop},
                                     {OpKind::kInc, OpKind::kRead}};
  const SeqSpec spec = object == 0   ? queue_spec()
                       : object == 1 ? stack_spec()
                                     : counter_spec();
  std::vector<std::uint64_t> state;
  std::vector<OpRecord> h;
  Cycle point = 0;
  for (std::size_t i = 0; i < n; ++i) {
    OpRecord o;
    o.thread = static_cast<std::uint32_t>(i % 4);
    o.kind = kinds[object][rng.below(2)];
    o.arg = 100 + i;
    o.ret = spec.apply(state, o);
    point += 1 + rng.below(20);
    o.invoke = point - rng.below(point < 40 ? point : 40);
    o.response = point + rng.below(40);
    h.push_back(o);
  }
  if (corrupt) h[rng.below(n)].ret += 1 + rng.below(2);
  for (std::size_t i = n; i > 1; --i) std::swap(h[i - 1], h[rng.below(i)]);
  return h;
}

// The flat-memo search must agree with the oracle on every verdict,
// including where a budget runs out: explore's 20k and 400k node budgets
// depend on the node count staying exactly the same.
TEST(Complete, SearchMatchesReferenceOnRandomHistories) {
  const std::uint64_t budgets[] = {0, 1, 7, 50, 20000};
  const SeqSpec specs[] = {queue_spec(), stack_spec(), counter_spec()};
  sim::Xoshiro256 rng(2024);
  int histories = 0, rejected = 0, inconclusive = 0;
  for (int round = 0; round < 1000; ++round) {
    const int object = round % 3;
    const std::size_t n = 2 + rng.below(11);
    for (const bool corrupt : {false, true}) {
      const std::vector<OpRecord> h = random_history(object, n, corrupt, rng);
      ++histories;
      for (const std::uint64_t budget : budgets) {
        const CheckResult want = oracle_linearizable(h, specs[object], budget);
        const CheckResult got = linearizable(h, specs[object], budget);
        ASSERT_EQ(got.ok, want.ok) << "round " << round << " budget " << budget;
        ASSERT_EQ(got.inconclusive, want.inconclusive)
            << "round " << round << " budget " << budget;
        ASSERT_EQ(got.reason, want.reason)
            << "round " << round << " budget " << budget;
        rejected += !got.ok;
        inconclusive += got.inconclusive;
      }
      if (!corrupt) {
        EXPECT_TRUE(linearizable(h, specs[object]).ok) << "round " << round;
      }
    }
  }
  EXPECT_EQ(histories, 2000);
  // Every verdict kind occurs, so the comparison is not vacuous.
  EXPECT_GT(rejected, 100);
  EXPECT_GT(inconclusive, 100);
}

// An async-train history of `n` ops on one object: four threads each keep
// a train of 2-4 ops out at once and reap it at one time, so every op of a
// train shares the train's response. Trains of different threads
// interleave, which gives the wide, mutually overlapping windows where the
// complete search runs out of budget in explore. Ops follow a sequential
// run of the spec; with `corrupt`, one op's return is changed.
std::vector<OpRecord> train_history(int object, std::size_t n, bool corrupt,
                                    sim::Xoshiro256& rng) {
  static const OpKind kinds[3][2] = {{OpKind::kEnq, OpKind::kDeq},
                                     {OpKind::kPush, OpKind::kPop},
                                     {OpKind::kInc, OpKind::kRead}};
  const SeqSpec spec = object == 0   ? queue_spec()
                       : object == 1 ? stack_spec()
                                     : counter_spec();
  std::vector<std::uint64_t> state;
  std::vector<OpRecord> h;
  std::vector<std::size_t> train[4];  // open train of each thread
  std::size_t train_len[4] = {};
  Cycle point = 0;
  const auto reap = [&](std::uint32_t t) {
    const Cycle response = point + rng.below(40);
    for (const std::size_t i : train[t]) h[i].response = response;
    train[t].clear();
  };
  while (h.size() < n) {
    const auto t = static_cast<std::uint32_t>(rng.below(4));
    if (train[t].empty()) train_len[t] = 2 + rng.below(3);
    OpRecord o;
    o.thread = t;
    o.kind = kinds[object][rng.below(2)];
    o.arg = 100 + h.size();
    o.ret = spec.apply(state, o);
    point += 1 + rng.below(20);
    o.invoke = point - rng.below(point < 40 ? point : 40);
    train[t].push_back(h.size());
    h.push_back(o);
    if (train[t].size() == train_len[t]) reap(t);
  }
  for (std::uint32_t t = 0; t < 4; ++t) {
    if (!train[t].empty()) reap(t);
  }
  if (corrupt) h[rng.below(n)].ret += 1 + rng.below(2);
  for (std::size_t i = n; i > 1; --i) std::swap(h[i - 1], h[rng.below(i)]);
  return h;
}

// The same comparison on the shapes that exhaust explore's budgets:
// async-train histories of 13-20 ops, under budgets of 50 and 20,000
// nodes.
TEST(Complete, SearchMatchesReferenceOnTrainHistories) {
  const std::uint64_t budgets[] = {50, 20000};
  const SeqSpec specs[] = {queue_spec(), stack_spec(), counter_spec()};
  sim::Xoshiro256 rng(2026);
  int rejected = 0, inconclusive = 0;
  for (int round = 0; round < 120; ++round) {
    const int object = round % 3;
    const std::size_t n = 13 + rng.below(8);
    for (const bool corrupt : {false, true}) {
      const std::vector<OpRecord> h = train_history(object, n, corrupt, rng);
      for (const std::uint64_t budget : budgets) {
        const CheckResult want = oracle_linearizable(h, specs[object], budget);
        const CheckResult got = linearizable(h, specs[object], budget);
        ASSERT_EQ(got.ok, want.ok) << "round " << round << " budget " << budget;
        ASSERT_EQ(got.inconclusive, want.inconclusive)
            << "round " << round << " budget " << budget;
        ASSERT_EQ(got.reason, want.reason)
            << "round " << round << " budget " << budget;
        rejected += !got.ok;
        inconclusive += got.inconclusive && budget == 20000;
      }
    }
  }
  EXPECT_GT(rejected, 10);
  EXPECT_GT(inconclusive, 0);
}

// A queue window recorded by explore: eight overlapping enqueues of small
// values and one dequeue of 0. Every order that starts with another value
// fails, and the reference needs 27,409 nodes to find one that starts with
// 0, so explore's 20k budget runs out. A memo key that mixed the mask and
// the values the same way gave (mask 2, holding 1) the key of (mask 1,
// holding 2), skipped the second subtree and answered within budget.
TEST(Complete, QueueSearchKeepsMasksAndValuesApart) {
  const std::uint64_t t1 = std::uint64_t{1} << 32, t2 = std::uint64_t{2} << 32;
  const std::vector<OpRecord> h = {
      op(0, OpKind::kEnq, 2, 0, 260, 3995),
      op(0, OpKind::kEnq, 1, 0, 157, 4042),
      op(0, OpKind::kEnq, 0, 0, 1, 4095),
      op(1, OpKind::kEnq, t1 | 2, 0, 186, 5644),
      op(1, OpKind::kEnq, t1 | 1, 0, 92, 5695),
      op(1, OpKind::kDeq, 0, 0, 2, 5744),
      op(2, OpKind::kEnq, t2 | 2, 0, 203, 7666),
      op(2, OpKind::kEnq, t2 | 1, 0, 105, 7719),
      op(2, OpKind::kEnq, t2, 0, 3, 7776),
  };
  for (const std::uint64_t budget : {0, 20000, 27408, 27409}) {
    const CheckResult want = oracle_linearizable(h, queue_spec(), budget);
    const CheckResult got = linearizable(h, queue_spec(), budget);
    EXPECT_EQ(got.ok, want.ok) << "budget " << budget;
    EXPECT_EQ(got.inconclusive, want.inconclusive) << "budget " << budget;
  }
  EXPECT_TRUE(linearizable(h, queue_spec(), 20000).inconclusive);
  EXPECT_FALSE(linearizable(h, queue_spec(), 27409).inconclusive);
}

// The search pops in place and undoes the pop by restoring the size. A
// push nested below the pop writes into the popped slot, so the undo must
// also write the popped value back. Here the search first tries pop->7
// (op 1) after push(7) (op 3), then push(9) into the same slot, and that
// branch fails; the linearization that exists (push 7, pop 7 by op 2,
// push 9, push 7, pop 7 by op 1) must still find 7 under op 2.
TEST(Complete, StackPopUndoneAfterNestedPush) {
  const std::vector<OpRecord> h = {
      op(0, OpKind::kPush, 7, 0, 6, 8),  op(1, OpKind::kPop, 0, 7, 2, 8),
      op(2, OpKind::kPop, 0, 7, 0, 4),   op(3, OpKind::kPush, 7, 0, 0, 1),
      op(4, OpKind::kPush, 9, 0, 4, 6),
  };
  EXPECT_TRUE(oracle_linearizable(h, stack_spec(), 0).ok);
  const CheckResult r = linearizable(h, stack_spec());
  EXPECT_TRUE(r.ok) << r.reason;
  // The node count along the way matches the reference's as well.
  for (const std::uint64_t budget : {1, 2, 3, 4, 5, 6, 7, 8}) {
    const CheckResult want = oracle_linearizable(h, stack_spec(), budget);
    const CheckResult got = linearizable(h, stack_spec(), budget);
    EXPECT_EQ(got.ok, want.ok) << "budget " << budget;
    EXPECT_EQ(got.inconclusive, want.inconclusive) << "budget " << budget;
  }
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
