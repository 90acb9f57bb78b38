// H-SYNCH (Fatourou & Kallimanis, PPoPP'12): hierarchical combining for
// clustered machines. Threads combine within their cluster exactly as in
// CC-SYNCH; a cluster's combiner then acquires a global lock before
// executing its cluster's request list, so request/response traffic stays
// cluster-local and only combiners cross clusters.
//
// On the simulated mesh a "cluster" is a mesh row (configurable), standing
// in for a NUMA node. Included as an extension baseline completing the
// combining-construction family.
#pragma once

#include <cstdint>
#include <memory>

#include "runtime/context.hpp"
#include "sync/cs.hpp"
#include "sync/locks.hpp"

namespace hmps::sync {

template <class Ctx>
class HSynch {
 public:
  using Fn = CsFn<Ctx>;

  static constexpr std::uint32_t kMaxThreads = 64;

  /// `cluster_size`: threads per cluster (by thread id); defaults to a
  /// TILE-Gx mesh row.
  HSynch(void* obj, std::uint32_t max_ops = 200,
         std::uint32_t cluster_size = 6)
      : obj_(obj), max_ops_(max_ops), csize_(cluster_size ? cluster_size : 1),
        nclusters_((kMaxThreads + csize_ - 1) / csize_),
        pool_(new Node[kMaxThreads + nclusters_]),
        tails_(new PaddedWord[nclusters_]) {
    for (std::uint32_t cl = 0; cl < nclusters_; ++cl) {
      Node* dummy = &pool_[kMaxThreads + cl];
      dummy->wait.store(0, std::memory_order_relaxed);
      dummy->completed.store(0, std::memory_order_relaxed);
      dummy->next.store(0, std::memory_order_relaxed);
      tails_[cl].w.store(rt::to_word(dummy), std::memory_order_relaxed);
    }
    for (std::uint32_t t = 0; t < kMaxThreads; ++t) my_[t].node = &pool_[t];
  }

  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "HSynch::apply");
    const std::uint32_t cl = tid / csize_;
    SyncStats& st = stats_[tid].s;
    Word* tail = &tails_[cl].w;

    Node* next_node = my_[tid].node;
    ctx.store(&next_node->next, std::uint64_t{0});
    ctx.store(&next_node->wait, std::uint64_t{1});
    ctx.store(&next_node->completed, std::uint64_t{0});

    explore_point(ctx, "hs.enqueue");
    Node* cur = rt::from_word<Node>(ctx.exchange(tail, rt::to_word(next_node)));
    ctx.store(&cur->fn, rt::to_word(fn));
    ctx.store(&cur->arg, arg);
    ctx.store(&cur->next, rt::to_word(next_node));
    my_[tid].node = cur;

    ctx.spin_until(&cur->wait, [](std::uint64_t v) { return v == 0; });
    ++st.ops;
    if (ctx.load(&cur->completed)) return ctx.load(&cur->ret);

    // Cluster combiner: serialize with the other clusters' combiners.
    ++st.tenures;
    explore_point(ctx, "hs.global_lock");
    global_.lock(ctx);
    Node* tmp = cur;
    std::uint32_t counter = 0;
    for (;;) {
      Node* next = rt::from_word<Node>(ctx.load(&tmp->next));
      if (next == nullptr || counter >= max_ops_) break;
      ++counter;
      ctx.prefetch(next);
      Fn f = rt::from_word<std::remove_pointer_t<Fn>>(ctx.load(&tmp->fn));
      ctx.store(&tmp->ret, f(ctx, obj_, ctx.load(&tmp->arg)));
      ctx.store(&tmp->completed, std::uint64_t{1});
      ctx.store(&tmp->wait, std::uint64_t{0});
      tmp = next;
      ++st.served;
    }
    global_.unlock(ctx);
    ctx.store(&tmp->wait, std::uint64_t{0});  // hand off within the cluster
    return ctx.load(&cur->ret);
  }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, "HSynch::stats");
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
  struct alignas(rt::kCacheLine) PaddedWord {
    Word w{0};
  };
  struct alignas(rt::kCacheLine) PerThread {
    Node* node = nullptr;
  };

  void* obj_;
  std::uint32_t max_ops_;
  std::uint32_t csize_;
  std::uint32_t nclusters_;
  std::unique_ptr<Node[]> pool_;
  std::unique_ptr<PaddedWord[]> tails_;
  McsLock<Ctx> global_;
  PerThread my_[kMaxThreads];
  PaddedStats stats_[kMaxThreads];
};

}  // namespace hmps::sync
