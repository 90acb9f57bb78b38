// Stacks for the paper's Section 5.4 / Fig. 5b experiments:
//
//  * SeqStack + CS bodies: a sequential linked-list stack made concurrent
//    by any universal construction (coarse lock);
//  * TreiberStack: the classic nonblocking stack, CAS on the top pointer
//    with an ABA tag. Under contention most CASes fail and retry, which is
//    why it trails every blocking implementation in Fig. 5b.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "runtime/aligned.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::ds {

using rt::Word;

inline constexpr std::uint64_t kStackEmpty = ~std::uint64_t{0};

class SeqStack {
 public:
  struct Node {
    Word val{0};
    Word next{0};  // Node*
  };

  explicit SeqStack(std::size_t capacity = 8192)
      : cap_(capacity), arena_(capacity) {
    // All nodes start on the free list, threaded via next.
    for (std::size_t i = 0; i + 1 < capacity; ++i) {
      arena_[i].next.store(rt::to_word(&arena_[i + 1]),
                           std::memory_order_relaxed);
    }
    free_.store(rt::to_word(&arena_[0]), std::memory_order_relaxed);
  }

  std::size_t capacity() const { return cap_; }

  alignas(rt::kCacheLine) Word top_{0};
  alignas(rt::kCacheLine) Word free_{0};

 private:
  std::size_t cap_;
  rt::AlignedArray<Node> arena_;  // line packing independent of the heap
};

// Both the free list and the stack live under the same CS, so plain
// loads/stores suffice.
template <class Ctx>
std::uint64_t s_push(Ctx& ctx, void* obj, std::uint64_t v) {
  auto* s = static_cast<SeqStack*>(obj);
  auto* n = rt::from_word<SeqStack::Node>(ctx.load(&s->free_));
  if (n == nullptr) [[unlikely]] {
    std::fprintf(stderr,
                 "hmps fatal: SeqStack: all %zu nodes hold values; raise "
                 "capacity\n",
                 s->capacity());
    std::abort();
  }
  ctx.store(&s->free_, ctx.load(&n->next));
  ctx.store(&n->val, v);
  ctx.store(&n->next, ctx.load(&s->top_));
  ctx.store(&s->top_, rt::to_word(n));
  return 0;
}

template <class Ctx>
std::uint64_t s_pop(Ctx& ctx, void* obj, std::uint64_t /*unused*/) {
  auto* s = static_cast<SeqStack*>(obj);
  auto* n = rt::from_word<SeqStack::Node>(ctx.load(&s->top_));
  if (n == nullptr) return kStackEmpty;
  const std::uint64_t v = ctx.load(&n->val);
  ctx.store(&s->top_, ctx.load(&n->next));
  ctx.store(&n->next, ctx.load(&s->free_));
  ctx.store(&s->free_, rt::to_word(n));
  return v;
}

/// Coarse-lock stack over any universal construction.
template <class Ctx, class UC>
class UcStack {
 public:
  UcStack(SeqStack& s, UC& uc) : s_(&s), uc_(&uc) {}

  void push(Ctx& ctx, std::uint64_t v) {
    assert(v < kStackEmpty);
    uc_->apply(ctx, &s_push<Ctx>, v);
  }
  std::uint64_t pop(Ctx& ctx) { return uc_->apply(ctx, &s_pop<Ctx>, 0); }

 private:
  SeqStack* s_;
  UC* uc_;
};

/// Treiber's nonblocking stack (Treiber 1986). The top-of-stack word packs
/// {tag:32 | node index:32} so CAS retries cannot suffer ABA. Each thread
/// owns a block of the shared arena: it reuses the nodes it released (a
/// LIFO free list) and otherwise takes its block's next never-used node.
/// The free lists and the bump cursors are host-only bookkeeping, so
/// allocation costs no simulated access.
template <class Ctx>
class TreiberStack {
 public:
  static constexpr std::uint32_t kNullIdx = 0xFFFFFFFFu;

  /// Every thread may hold up to `per_thread_nodes` nodes at once. A node
  /// is built when its thread first needs it, so a run pays for the nodes
  /// it touches, not for kMaxThreads times the capacity.
  explicit TreiberStack(std::uint32_t per_thread_nodes = 256)
      : per_thread_(per_thread_nodes),
        arena_(static_cast<std::size_t>(sync::kMaxThreads) * per_thread_nodes,
               rt::kUnbuilt) {
    top_.store(pack(0, kNullIdx), std::memory_order_relaxed);
  }

  void push(Ctx& ctx, std::uint64_t v) {
    while (!push_once(ctx, v)) ctx.cpu_relax();
  }

  std::uint64_t pop(Ctx& ctx) {
    std::uint64_t v;
    while (!pop_once(ctx, &v)) ctx.cpu_relax();
    return v;
  }

  struct Stats {
    std::uint64_t cas_failures = 0;
  };
  Stats& stats(std::uint32_t t) { return stats_[t]; }

 protected:
  /// One CAS attempt; true on success (used by the elimination back-off
  /// stack to divert on contention).
  bool push_once(Ctx& ctx, std::uint64_t v) {
    const std::uint32_t ni = alloc(ctx);
    Node& n = arena_[ni];
    ctx.store(&n.val, v);
    const std::uint64_t old = ctx.load(&top_);
    ctx.store(&n.next, static_cast<std::uint64_t>(idx(old)));
    if (ctx.cas(&top_, old, pack(tag(old) + 1, ni))) return true;
    ++stats_[ctx.tid()].cas_failures;
    release(ctx, ni);
    return false;
  }

  /// One attempt. Returns true when the operation completed — with *out
  /// the popped value, or kStackEmpty if the stack was observed empty.
  /// Returns false when the CAS lost a race.
  bool pop_once(Ctx& ctx, std::uint64_t* out) {
    const std::uint64_t old = ctx.load(&top_);
    if (idx(old) == kNullIdx) {
      *out = kStackEmpty;
      return true;
    }
    Node& n = arena_[idx(old)];
    const std::uint64_t next = ctx.load(&n.next);
    if (ctx.cas(&top_, old,
                pack(tag(old) + 1, static_cast<std::uint32_t>(next)))) {
      *out = ctx.load(&n.val);
      release(ctx, idx(old));
      return true;
    }
    ++stats_[ctx.tid()].cas_failures;
    return false;
  }

 private:
  struct alignas(rt::kCacheLine) Node {
    Word val{0};
    Word next{0};  // node index (kNullIdx terminates)
  };
  struct alignas(rt::kCacheLine) FreeList {
    std::uint32_t head = kNullIdx;  ///< released nodes, thread-private
    std::uint32_t used = 0;         ///< nodes of the block built so far
  };
  struct alignas(rt::kCacheLine) PaddedStats : Stats {};

  static constexpr std::uint64_t pack(std::uint64_t tg, std::uint32_t i) {
    return (tg << 32) | i;
  }
  static constexpr std::uint32_t idx(std::uint64_t w) {
    return static_cast<std::uint32_t>(w);
  }
  static constexpr std::uint64_t tag(std::uint64_t w) { return w >> 32; }

  std::uint32_t alloc(Ctx& ctx) {
    const std::uint32_t t = ctx.tid();
    sync::check_tid(t, sync::kMaxThreads, "TreiberStack", "push");
    FreeList& f = free_[t];
    if (f.head != kNullIdx) {
      const std::uint32_t ni = f.head;
      f.head = static_cast<std::uint32_t>(
          arena_[ni].next.load(std::memory_order_relaxed));
      return ni;
    }
    if (f.used == per_thread_) [[unlikely]] {
      std::fprintf(stderr,
                   "hmps fatal: TreiberStack: thread %u holds all %u of its "
                   "nodes\n",
                   static_cast<unsigned>(t), per_thread_);
      std::abort();
    }
    const std::uint32_t ni = t * per_thread_ + f.used++;
    arena_.build(ni);
    return ni;
  }

  void release(Ctx& ctx, std::uint32_t ni) {
    FreeList& f = free_[ctx.tid()];
    arena_[ni].next.store(f.head, std::memory_order_relaxed);
    f.head = ni;
  }

  std::uint32_t per_thread_;
  rt::AlignedArray<Node> arena_;  // line packing independent of the heap
  alignas(rt::kCacheLine) Word top_{0};
  FreeList free_[sync::kMaxThreads];
  PaddedStats stats_[sync::kMaxThreads];
};

}  // namespace hmps::ds
