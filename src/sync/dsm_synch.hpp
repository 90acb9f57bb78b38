// DSM-SYNCH (Fatourou & Kallimanis, PPoPP'12 — the paper's reference [11],
// Algorithm 2): the sibling of CC-SYNCH for machines without efficient
// remote spinning. Each thread spins on its OWN node (DSM-style local
// spinning), at the cost of one CAS on the tail during combiner
// termination and a two-node toggle per thread.
//
// Included as an extension baseline: on the simulated cache-coherent mesh
// it behaves like CC-SYNCH with slightly higher combiner costs, matching
// the original paper's findings on CC machines.
#pragma once

#include <cstdint>
#include <memory>

#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

template <class Ctx>
class DsmSynch {
 public:
  using Fn = CsFn<Ctx>;

  static constexpr std::uint32_t kMaxThreads = 64;

  explicit DsmSynch(void* obj, std::uint32_t max_ops = 200)
      : obj_(obj), max_ops_(max_ops),
        pool_(new Node[2 * kMaxThreads]) {}

  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "DsmSynch::apply");
    SyncStats& st = stats_[tid].s;
    PerThread& me = my_[tid];
    Node* node = &pool_[2 * tid + me.toggle];
    me.toggle ^= 1;

    ctx.store(&node->next, std::uint64_t{0});
    ctx.store(&node->wait, std::uint64_t{1});
    ctx.store(&node->completed, std::uint64_t{0});
    ctx.store(&node->fn, rt::to_word(fn));
    ctx.store(&node->arg, arg);

    explore_point(ctx, "dsm.enqueue");
    Node* pred = rt::from_word<Node>(ctx.exchange(&tail_, rt::to_word(node)));
    if (pred != nullptr) {
      ctx.store(&pred->next, rt::to_word(node));
      // Spin on OWN node.
      ctx.spin_until(&node->wait, [](std::uint64_t v) { return v == 0; });
      ++st.ops;
      if (ctx.load(&node->completed)) return ctx.load(&node->ret);
    } else {
      ++st.ops;
    }

    // Combiner.
    ++st.tenures;
    std::uint32_t counter = 0;
    Node* tmp = node;
    for (;;) {
      ++counter;
      Fn f = rt::from_word<std::remove_pointer_t<Fn>>(ctx.load(&tmp->fn));
      ctx.store(&tmp->ret, f(ctx, obj_, ctx.load(&tmp->arg)));
      ctx.store(&tmp->completed, std::uint64_t{1});
      ctx.store(&tmp->wait, std::uint64_t{0});
      ++st.served;
      Node* next = rt::from_word<Node>(ctx.load(&tmp->next));
      if (next == nullptr || counter >= max_ops_) break;
      // Stop early if the next node is the last and still being linked, to
      // keep the termination CAS window small (original Algorithm 2).
      ctx.prefetch(next);
      tmp = next;
    }

    // Termination: detach or hand the combiner role over.
    explore_point(ctx, "dsm.terminate");
    if (ctx.load(&tmp->next) == 0) {
      ++st.cas_attempts;
      if (ctx.cas(&tail_, rt::to_word(tmp), std::uint64_t{0})) {
        return ctx.load(&node->ret);
      }
      ++st.cas_failures;
      // A successor is linking itself in; wait for the pointer.
      ctx.spin_until(&tmp->next, [](std::uint64_t v) { return v != 0; });
    }
    Node* next = rt::from_word<Node>(ctx.load(&tmp->next));
    ctx.store(&next->wait, std::uint64_t{0});  // hand off (completed == 0)
    return ctx.load(&node->ret);
  }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, "DsmSynch::stats");
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
  struct alignas(rt::kCacheLine) PerThread {
    std::uint32_t toggle = 0;
  };

  void* obj_;
  std::uint32_t max_ops_;
  std::unique_ptr<Node[]> pool_;
  alignas(rt::kCacheLine) Word tail_{0};
  PerThread my_[kMaxThreads];
  PaddedStats stats_[kMaxThreads];
};

}  // namespace hmps::sync
