// CC-SYNCH (Fatourou & Kallimanis, PPoPP'12): the most efficient known
// pure-shared-memory combining construction, the paper's main baseline
// (Section 3).
//
// Threads append their request node to a logical list with a SWAP on the
// tail and spin locally on their predecessor node's `wait` flag. The thread
// at the head becomes the combiner: it walks the list executing up to
// MAX_OPS requests, then hands the combiner role to the next waiting thread
// by clearing its `wait` flag without setting `completed`.
//
// While combining, each served node costs the combiner one RMR to read the
// request (dirty in the requester's cache) and one to publish the response
// — the same two coherence stalls as SHM-SERVER (Fig. 1), which is why both
// plateau together in Fig. 3a.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/span.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

template <class Ctx>
class CcSynch {
 public:
  using Fn = CsFn<Ctx>;

  static constexpr std::uint32_t kMaxThreads = 64;

  CcSynch(void* obj, std::uint32_t max_ops = 200, bool fixed_combiner = false)
      : obj_(obj), max_ops_(max_ops), fixed_(fixed_combiner),
        pool_(new Node[kMaxThreads + 1]) {
    // Initial dummy tail: not waiting, not completed — the first thread to
    // enqueue behind it becomes the combiner immediately.
    Node* dummy = &pool_[kMaxThreads];
    dummy->wait.store(0, std::memory_order_relaxed);
    dummy->completed.store(0, std::memory_order_relaxed);
    dummy->next.store(0, std::memory_order_relaxed);
    tail_.store(rt::to_word(dummy), std::memory_order_relaxed);
    for (std::uint32_t t = 0; t < kMaxThreads; ++t) my_[t].node = &pool_[t];
  }

  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "CcSynch::apply");
    SyncStats& st = stats_[tid].s;
    obs::Span<Ctx> acquire(ctx, "cc.acquire");
    Node* next_node = my_[tid].node;
    ctx.store(&next_node->next, std::uint64_t{0});
    ctx.store(&next_node->wait, std::uint64_t{1});
    ctx.store(&next_node->completed, std::uint64_t{0});

    explore_point(ctx, "cc.enqueue");
    Node* cur = rt::from_word<Node>(ctx.exchange(&tail_, rt::to_word(next_node)));
    ctx.store(&cur->fn, rt::to_word(fn));
    ctx.store(&cur->arg, arg);
    ctx.store(&cur->next, rt::to_word(next_node));
    my_[tid].node = cur;  // node recycling: take over the predecessor node

    ctx.spin_until(&cur->wait, [](std::uint64_t v) { return v == 0; });
    acquire.finish();
    ++st.ops;
    if (ctx.load(&cur->completed)) {
      return ctx.load(&cur->ret);  // a combiner executed it for us
    }

    // We are the combiner. Serve the list starting from our own request.
    obs::Span<Ctx> combine(ctx, "cc.combine");
    ++st.tenures;
    Node* tmp = cur;
    std::uint32_t counter = 0;
    for (;;) {
      Node* next = rt::from_word<Node>(ctx.load(&tmp->next));
      if (next == nullptr) {
        if (!fixed_) break;
        ctx.cpu_relax();  // fixed-combiner mode (Fig. 4a): wait for work
        continue;
      }
      if (!fixed_ && counter >= max_ops_) break;
      ++counter;
      ctx.prefetch(next);  // overlap the next node fetch with this CS
      obs::Span<Ctx> cs(ctx, "cc.cs");
      Fn f = rt::from_word<std::remove_pointer_t<Fn>>(ctx.load(&tmp->fn));
      const std::uint64_t a = ctx.load(&tmp->arg);
      ctx.store(&tmp->ret, f(ctx, obj_, a));
      ctx.store(&tmp->completed, std::uint64_t{1});
      ctx.store(&tmp->wait, std::uint64_t{0});
      tmp = next;
      ++st.served;
    }
    // Hand the combiner role to the next waiting thread (completed stays 0).
    explore_point(ctx, "cc.handoff");
    ctx.store(&tmp->wait, std::uint64_t{0});
    return ctx.load(&cur->ret);
  }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, "CcSynch::stats");
    return stats_[t].s;
  }

 private:
  struct alignas(rt::kCacheLine) Node {
    Word fn{0};
    Word arg{0};
    Word ret{0};
    Word wait{0};
    Word completed{0};
    Word next{0};
  };
  static_assert(sizeof(Node) == rt::kCacheLine);

  struct alignas(rt::kCacheLine) PerThread {
    Node* node = nullptr;
  };

  void* obj_;
  std::uint32_t max_ops_;
  bool fixed_;
  std::unique_ptr<Node[]> pool_;
  alignas(rt::kCacheLine) Word tail_{0};
  PerThread my_[kMaxThreads];
  PaddedStats stats_[kMaxThreads];
};

}  // namespace hmps::sync
