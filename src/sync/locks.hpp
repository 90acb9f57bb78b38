// Classic mutual-exclusion locks (paper Section 3 context): test-and-set,
// test-and-test-and-set, ticket, MCS and CLH queue locks. The queue locks
// spin locally and achieve O(1) RMRs per acquisition — yet still move the
// CS data to the acquiring core, which is exactly the locality cost the
// server/combiner approaches avoid. Used by the ablation benches.
#pragma once

#include <cstdint>
#include <memory>

#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

/// Test-and-set spinlock (SWAP-based).
template <class Ctx>
class TasLock {
 public:
  void lock(Ctx& ctx) {
    while (ctx.exchange(&flag_, std::uint64_t{1}) != 0) ctx.cpu_relax();
  }
  void unlock(Ctx& ctx) { ctx.store(&flag_, std::uint64_t{0}); }

 private:
  alignas(rt::kCacheLine) Word flag_{0};
};

/// Test-and-test-and-set: spin on a read (cache-local) before the SWAP.
template <class Ctx>
class TtasLock {
 public:
  void lock(Ctx& ctx) {
    for (;;) {
      ctx.spin_until(&flag_, [](std::uint64_t v) { return v == 0; });
      if (ctx.exchange(&flag_, std::uint64_t{1}) == 0) return;
    }
  }
  void unlock(Ctx& ctx) { ctx.store(&flag_, std::uint64_t{0}); }

 private:
  alignas(rt::kCacheLine) Word flag_{0};
};

/// Ticket lock: FIFO-fair, but all waiters spin on one serving word.
template <class Ctx>
class TicketLock {
 public:
  void lock(Ctx& ctx) {
    check_tid(ctx.tid(), kMaxThreads, "TicketLock::lock");
    const std::uint64_t t = ctx.faa(&next_, 1);
    tickets_[ctx.tid()].v = t;
    ctx.spin_until(&serving_, [t](std::uint64_t v) { return v == t; });
  }
  void unlock(Ctx& ctx) {
    check_tid(ctx.tid(), kMaxThreads, "TicketLock::unlock");
    ctx.store(&serving_, tickets_[ctx.tid()].v + 1);
  }

 private:
  struct alignas(rt::kCacheLine) PerThread {
    std::uint64_t v = 0;
  };
  alignas(rt::kCacheLine) Word next_{0};
  alignas(rt::kCacheLine) Word serving_{0};
  PerThread tickets_[kMaxThreads];
};

/// MCS queue lock: local spinning on a per-thread queue node.
template <class Ctx>
class McsLock {
 public:
  void lock(Ctx& ctx) {
    check_tid(ctx.tid(), kMaxThreads, "McsLock::lock");
    QNode* my = &nodes_[ctx.tid()];
    ctx.store(&my->next, std::uint64_t{0});
    QNode* pred = rt::from_word<QNode>(ctx.exchange(&tail_, rt::to_word(my)));
    if (pred != nullptr) {
      ctx.store(&my->locked, std::uint64_t{1});
      ctx.store(&pred->next, rt::to_word(my));
      ctx.spin_until(&my->locked, [](std::uint64_t v) { return v == 0; });
    }
  }

  void unlock(Ctx& ctx) {
    check_tid(ctx.tid(), kMaxThreads, "McsLock::unlock");
    QNode* my = &nodes_[ctx.tid()];
    if (ctx.load(&my->next) == 0) {
      if (ctx.cas(&tail_, rt::to_word(my), std::uint64_t{0})) return;
      ctx.spin_until(&my->next, [](std::uint64_t v) { return v != 0; });
    }
    QNode* next = rt::from_word<QNode>(ctx.load(&my->next));
    ctx.store(&next->locked, std::uint64_t{0});
  }

 private:
  struct alignas(rt::kCacheLine) QNode {
    Word next{0};
    Word locked{0};
  };
  alignas(rt::kCacheLine) Word tail_{0};
  QNode nodes_[kMaxThreads];
};

/// CLH queue lock: local spinning on the predecessor's node.
template <class Ctx>
class ClhLock {
 public:
  ClhLock() {
    // One spare node; each thread starts owning its own node.
    for (std::uint32_t t = 0; t <= kMaxThreads; ++t) {
      pool_[t].locked.store(0, std::memory_order_relaxed);
    }
    tail_.store(rt::to_word(&pool_[kMaxThreads]),
                std::memory_order_relaxed);
    for (std::uint32_t t = 0; t < kMaxThreads; ++t) {
      mine_[t].node = &pool_[t];
    }
  }

  void lock(Ctx& ctx) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "ClhLock::lock");
    QNode* my = mine_[tid].node;
    ctx.store(&my->locked, std::uint64_t{1});
    QNode* pred = rt::from_word<QNode>(ctx.exchange(&tail_, rt::to_word(my)));
    mine_[tid].pred = pred;
    ctx.spin_until(&pred->locked, [](std::uint64_t v) { return v == 0; });
  }

  void unlock(Ctx& ctx) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "ClhLock::unlock");
    ctx.store(&mine_[tid].node->locked, std::uint64_t{0});
    mine_[tid].node = mine_[tid].pred;  // recycle the predecessor's node
  }

 private:
  struct alignas(rt::kCacheLine) QNode {
    Word locked{0};
  };
  struct alignas(rt::kCacheLine) PerThread {
    QNode* node = nullptr;
    QNode* pred = nullptr;
  };
  alignas(rt::kCacheLine) Word tail_{0};
  QNode pool_[kMaxThreads + 1];
  PerThread mine_[kMaxThreads];
};

}  // namespace hmps::sync
