// Data-structure correctness on the simulator: queues (one-lock, two-lock,
// LCRQ) and stacks (coarse-lock, Treiber). Checks completeness (no lost or
// duplicated elements), per-producer FIFO order for queues, and LIFO
// plausibility for stacks, across thread counts and seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "arch/params.hpp"
#include "ds/lcrq.hpp"
#include "ds/queue.hpp"
#include "ds/stack.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/ccsynch.hpp"
#include "sync/delegation_server.hpp"
#include "sync/hybcomb.hpp"
#include "sync/shm_server.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

// Tag scheme: value = producer << 20 | seq (fits LCRQ's 32-bit values too).
constexpr std::uint64_t tag(std::uint32_t who, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(who) << 20) | seq;
}
constexpr std::uint32_t tag_who(std::uint64_t v) {
  return static_cast<std::uint32_t>(v >> 20);
}
constexpr std::uint32_t tag_seq(std::uint64_t v) {
  return static_cast<std::uint32_t>(v & 0xFFFFF);
}

struct Drained {
  std::vector<std::uint64_t> popped;                 // union over consumers
  std::vector<std::vector<std::uint64_t>> by_consumer;  // per-consumer order
  std::uint64_t produced = 0;
};

void check_queue_invariants(const Drained& d, std::uint32_t nproducers,
                            bool fifo_per_producer) {
  // Completeness: nothing lost, nothing duplicated.
  std::vector<std::uint64_t> sorted = d.popped;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted.size(), d.produced);
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end())
      << "duplicate element";
  if (fifo_per_producer) {
    // A linearizable FIFO queue guarantees that any single consumer's
    // dequeue sequence preserves each producer's enqueue order. (The
    // interleaving *across* consumers is unordered by local observation.)
    for (const auto& seq : d.by_consumer) {
      std::vector<std::int64_t> last(nproducers, -1);
      for (std::uint64_t v : seq) {
        const auto who = tag_who(v);
        ASSERT_LT(who, nproducers);
        EXPECT_GT(static_cast<std::int64_t>(tag_seq(v)), last[who])
            << "per-producer FIFO order violated at one consumer";
        last[who] = tag_seq(v);
      }
    }
  }
}

// ---- one-lock queue under each UC ----

enum class QueueKind { kMp1, kHyb1, kShm1, kCc1, kMp2, kLcrq };

Drained run_queue(QueueKind kind, std::uint32_t nthreads,
                  std::uint32_t ops_each, std::uint64_t seed) {
  SimExecutor ex(arch::MachineParams::tilegx36(), seed);
  ds::SeqQueue q(16384);
  ds::Lcrq<SimCtx> lcrq(6, 1024);

  sync::MpServer<SimCtx> mp1(0, &q);
  sync::HybComb<SimCtx> hyb(&q, 16);
  sync::ShmServer<SimCtx> shm(0, &q);
  sync::CcSynch<SimCtx> cc(&q, 16);
  sync::MpServer<SimCtx> mp2_enq(0, &q);
  sync::MpServer<SimCtx> mp2_deq(1, &q);

  Drained out;
  std::vector<std::vector<std::uint64_t>> popped(nthreads);
  std::uint32_t done = 0;

  const std::uint32_t nservers =
      (kind == QueueKind::kMp1 || kind == QueueKind::kShm1) ? 1
      : kind == QueueKind::kMp2                             ? 2
                                                            : 0;

  auto enq = [&](SimCtx& ctx, std::uint64_t v) {
    switch (kind) {
      case QueueKind::kMp1: mp1.apply(ctx, ds::q_enqueue<SimCtx>, v); break;
      case QueueKind::kHyb1: hyb.apply(ctx, ds::q_enqueue<SimCtx>, v); break;
      case QueueKind::kShm1: shm.apply(ctx, ds::q_enqueue<SimCtx>, v); break;
      case QueueKind::kCc1: cc.apply(ctx, ds::q_enqueue<SimCtx>, v); break;
      case QueueKind::kMp2:
        mp2_enq.apply(ctx, ds::q_enqueue_fenced<SimCtx>, v);
        break;
      case QueueKind::kLcrq:
        lcrq.enqueue(ctx, static_cast<std::uint32_t>(v));
        break;
    }
  };
  auto deq = [&](SimCtx& ctx) -> std::uint64_t {
    switch (kind) {
      case QueueKind::kMp1: return mp1.apply(ctx, ds::q_dequeue<SimCtx>, 0);
      case QueueKind::kHyb1: return hyb.apply(ctx, ds::q_dequeue<SimCtx>, 0);
      case QueueKind::kShm1: return shm.apply(ctx, ds::q_dequeue<SimCtx>, 0);
      case QueueKind::kCc1: return cc.apply(ctx, ds::q_dequeue<SimCtx>, 0);
      case QueueKind::kMp2:
        return mp2_deq.apply(ctx, ds::q_dequeue_fenced<SimCtx>, 0);
      case QueueKind::kLcrq: {
        const std::uint32_t v = lcrq.dequeue(ctx);
        return v == ds::kLcrqEmpty ? ds::kQEmpty : v;
      }
    }
    return ds::kQEmpty;
  };

  for (std::uint32_t s = 0; s < nservers; ++s) {
    ex.add_thread([&, s](SimCtx& ctx) {
      if (kind == QueueKind::kShm1) {
        shm.serve(ctx);
      } else if (kind == QueueKind::kMp2) {
        (s == 0 ? mp2_enq : mp2_deq).serve(ctx);
      } else {
        mp1.serve(ctx);
      }
    });
  }
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      // Balanced load: alternate enqueue/dequeue, as in Section 5.4.
      for (std::uint32_t k = 0; k < ops_each; ++k) {
        enq(ctx, tag(i, k));
        ctx.compute(ctx.rand_below(30));
        const std::uint64_t v = deq(ctx);
        if (v != ds::kQEmpty) popped[i].push_back(v);
        ctx.compute(ctx.rand_below(30));
      }
      // Drain phase: one thread empties the leftovers at the end.
      ++done;
      if (done == nthreads) {
        for (;;) {
          const std::uint64_t v = deq(ctx);
          if (v == ds::kQEmpty) break;
          popped[i].push_back(v);
        }
        if (kind == QueueKind::kMp1) mp1.request_stop(ctx);
        if (kind == QueueKind::kShm1) shm.request_stop(ctx);
        if (kind == QueueKind::kMp2) {
          mp2_enq.request_stop(ctx);
          mp2_deq.request_stop(ctx);
        }
      }
    });
  }
  ex.run_until(sim::kCycleMax);

  out.produced = static_cast<std::uint64_t>(nthreads) * ops_each;
  for (auto& v : popped) {
    out.popped.insert(out.popped.end(), v.begin(), v.end());
  }
  out.by_consumer = popped;
  return out;
}

class QueueCorrectness
    : public ::testing::TestWithParam<std::tuple<QueueKind, std::uint32_t,
                                                 std::uint64_t>> {};

TEST_P(QueueCorrectness, NoLossNoDup) {
  const auto [kind, nthreads, seed] = GetParam();
  const Drained d = run_queue(kind, nthreads, 50, seed);
  check_queue_invariants(d, nthreads, /*fifo_per_producer=*/false);
}

std::string QueueCaseName(
    const ::testing::TestParamInfo<std::tuple<QueueKind, std::uint32_t,
                                              std::uint64_t>>& info) {
  static const char* names[] = {"Mp1", "Hyb1", "Shm1", "Cc1", "Mp2", "Lcrq"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) +
         "_t" + std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Queues, QueueCorrectness,
    ::testing::Combine(::testing::Values(QueueKind::kMp1, QueueKind::kHyb1,
                                         QueueKind::kShm1, QueueKind::kCc1,
                                         QueueKind::kMp2, QueueKind::kLcrq),
                       ::testing::Values(2u, 8u, 24u),
                       ::testing::Values(3u, 77u)),
    QueueCaseName);

TEST(QueueFifo, SingleProducerSingleConsumerOrder) {
  // With one producer and one consumer, total FIFO order must hold for
  // every queue kind, including LCRQ.
  for (QueueKind kind : {QueueKind::kMp1, QueueKind::kHyb1, QueueKind::kShm1,
                         QueueKind::kCc1, QueueKind::kMp2, QueueKind::kLcrq}) {
    const Drained d = run_queue(kind, 1, 200, 9);
    check_queue_invariants(d, 1, /*fifo_per_producer=*/true);
  }
}

TEST(QueueFifo, PerProducerOrderUnderConcurrency) {
  for (QueueKind kind : {QueueKind::kHyb1, QueueKind::kLcrq}) {
    const Drained d = run_queue(kind, 12, 60, 5);
    check_queue_invariants(d, 12, /*fifo_per_producer=*/true);
  }
}

// ---- stacks ----

enum class StackKind { kMp, kHyb, kShm, kCc, kTreiber };

Drained run_stack(StackKind kind, std::uint32_t nthreads,
                  std::uint32_t ops_each, std::uint64_t seed) {
  SimExecutor ex(arch::MachineParams::tilegx36(), seed);
  ds::SeqStack st(16384);
  ds::TreiberStack<SimCtx> tr(1024);

  sync::MpServer<SimCtx> mp(0, &st);
  sync::HybComb<SimCtx> hyb(&st, 16);
  sync::ShmServer<SimCtx> shm(0, &st);
  sync::CcSynch<SimCtx> cc(&st, 16);

  Drained out;
  std::vector<std::vector<std::uint64_t>> popped(nthreads);
  std::uint32_t done = 0;

  const bool has_server = (kind == StackKind::kMp || kind == StackKind::kShm);

  auto push = [&](SimCtx& ctx, std::uint64_t v) {
    switch (kind) {
      case StackKind::kMp: mp.apply(ctx, ds::s_push<SimCtx>, v); break;
      case StackKind::kHyb: hyb.apply(ctx, ds::s_push<SimCtx>, v); break;
      case StackKind::kShm: shm.apply(ctx, ds::s_push<SimCtx>, v); break;
      case StackKind::kCc: cc.apply(ctx, ds::s_push<SimCtx>, v); break;
      case StackKind::kTreiber: tr.push(ctx, v); break;
    }
  };
  auto pop = [&](SimCtx& ctx) -> std::uint64_t {
    switch (kind) {
      case StackKind::kMp: return mp.apply(ctx, ds::s_pop<SimCtx>, 0);
      case StackKind::kHyb: return hyb.apply(ctx, ds::s_pop<SimCtx>, 0);
      case StackKind::kShm: return shm.apply(ctx, ds::s_pop<SimCtx>, 0);
      case StackKind::kCc: return cc.apply(ctx, ds::s_pop<SimCtx>, 0);
      case StackKind::kTreiber: {
        const std::uint64_t v = tr.pop(ctx);
        return v == ds::kStackEmpty ? ds::kQEmpty : v;
      }
    }
    return ds::kQEmpty;
  };

  if (has_server) {
    ex.add_thread([&](SimCtx& ctx) {
      if (kind == StackKind::kMp) {
        mp.serve(ctx);
      } else {
        shm.serve(ctx);
      }
    });
  }
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < ops_each; ++k) {
        push(ctx, tag(i, k));
        ctx.compute(ctx.rand_below(30));
        const std::uint64_t v = pop(ctx);
        if (v != ds::kQEmpty) popped[i].push_back(v);
        ctx.compute(ctx.rand_below(30));
      }
      ++done;
      if (done == nthreads) {
        for (;;) {
          const std::uint64_t v = pop(ctx);
          if (v == ds::kQEmpty) break;
          popped[i].push_back(v);
        }
        if (kind == StackKind::kMp) mp.request_stop(ctx);
        if (kind == StackKind::kShm) shm.request_stop(ctx);
      }
    });
  }
  ex.run_until(sim::kCycleMax);

  out.produced = static_cast<std::uint64_t>(nthreads) * ops_each;
  for (auto& v : popped) {
    out.popped.insert(out.popped.end(), v.begin(), v.end());
  }
  return out;
}

class StackCorrectness
    : public ::testing::TestWithParam<std::tuple<StackKind, std::uint32_t,
                                                 std::uint64_t>> {};

TEST_P(StackCorrectness, NoLossNoDup) {
  const auto [kind, nthreads, seed] = GetParam();
  const Drained d = run_stack(kind, nthreads, 50, seed);
  std::vector<std::uint64_t> sorted = d.popped;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted.size(), d.produced);
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

std::string StackCaseName(
    const ::testing::TestParamInfo<std::tuple<StackKind, std::uint32_t,
                                              std::uint64_t>>& info) {
  static const char* names[] = {"Mp", "Hyb", "Shm", "Cc", "Treiber"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) +
         "_t" + std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, StackCorrectness,
    ::testing::Combine(::testing::Values(StackKind::kMp, StackKind::kHyb,
                                         StackKind::kShm, StackKind::kCc,
                                         StackKind::kTreiber),
                       ::testing::Values(2u, 8u, 24u),
                       ::testing::Values(3u, 77u)),
    StackCaseName);

TEST(StackLifo, SequentialLifoOrder) {
  // Single thread: pop must return values in reverse push order.
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  ds::SeqStack st;
  sync::CcSynch<SimCtx> cc(&st, 16);
  std::vector<std::uint64_t> got;
  ex.add_thread([&](SimCtx& ctx) {
    for (std::uint64_t v = 0; v < 20; ++v) cc.apply(ctx, ds::s_push<SimCtx>, v);
    for (int i = 0; i < 20; ++i) got.push_back(cc.apply(ctx, ds::s_pop<SimCtx>, 0));
  });
  ex.run_until(sim::kCycleMax);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i], static_cast<std::uint64_t>(19 - i));
}

TEST(LcrqBasics, SequentialFifoAndEmpty) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  ds::Lcrq<SimCtx> q(4, 64);  // tiny rings: exercise ring turnover
  std::vector<std::uint32_t> got;
  ex.add_thread([&](SimCtx& ctx) {
    EXPECT_EQ(q.dequeue(ctx), ds::kLcrqEmpty);
    for (std::uint32_t v = 0; v < 100; ++v) q.enqueue(ctx, v);
    for (int i = 0; i < 100; ++i) got.push_back(q.dequeue(ctx));
    EXPECT_EQ(q.dequeue(ctx), ds::kLcrqEmpty);
    // Interleaved use after drain.
    q.enqueue(ctx, 555);
    EXPECT_EQ(q.dequeue(ctx), 555u);
  });
  ex.run_until(sim::kCycleMax);
  ASSERT_EQ(got.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(got[i], i);
}

TEST(LcrqStress, TinyRingsManyThreads) {
  // Ring size 8 with 16 threads forces constant ring closing/appending.
  SimExecutor ex(arch::MachineParams::tilegx36(), 11);
  ds::Lcrq<SimCtx> q(3, 4096);
  const std::uint32_t nthreads = 16, ops = 40;
  std::vector<std::vector<std::uint64_t>> popped(nthreads);
  std::uint32_t done = 0;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < ops; ++k) {
        q.enqueue(ctx, static_cast<std::uint32_t>(tag(i, k)));
        const std::uint32_t v = q.dequeue(ctx);
        if (v != ds::kLcrqEmpty) popped[i].push_back(v);
      }
      ++done;
      if (done == nthreads) {
        for (;;) {
          const std::uint32_t v = q.dequeue(ctx);
          if (v == ds::kLcrqEmpty) break;
          popped[i].push_back(v);
        }
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  std::vector<std::uint64_t> all;
  for (auto& v : popped) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(nthreads) * ops);
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
}

TEST(TwoLockQueue, EnqDeqRunOnDistinctServers) {
  // Sanity: with MP-SERVER-2, the enqueue server never executes dequeues
  // and vice versa (they are separate constructions).
  const Drained d = run_queue(QueueKind::kMp2, 6, 60, 21);
  check_queue_invariants(d, 6, /*fifo_per_producer=*/false);
}

}  // namespace
}  // namespace hmps
