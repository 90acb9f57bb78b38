// Sequential FIFO queue + critical-section bodies for the paper's queue
// experiments (Section 5.4, Fig. 5a):
//
//  * one-lock MS-Queue: every enqueue/dequeue is a CS under one universal
//    construction instance — the variant that wins on the TILE-Gx;
//  * two-lock MS-Queue (Michael & Scott): enqueues touch only the tail,
//    dequeues only the head (with a dummy node), so the two CSes run under
//    two independent construction instances (two servers for MP-SERVER-2).
//    On a weakly ordered machine the bodies need memory fences to publish
//    node contents before linking — the cost the paper identifies as
//    outweighing the extra parallelism.
//
// Nodes come from a fixed ring arena recycled in FIFO order (a dequeue
// retires the old dummy exactly one arena step behind the enqueue cursor),
// so the hot path performs no dynamic allocation. A queue of capacity c
// holds at most c - 1 values (the dummy takes one node); one more enqueue
// aborts instead of overwriting the dummy.
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

/// Returned by dequeue when the queue is empty. Values must be < kQEmpty.
inline constexpr std::uint64_t kQEmpty = ~std::uint64_t{0};

class SeqQueue {
 public:
  struct Node {
    Word val{0};
    Word next{0};  // Node*
  };

  explicit SeqQueue(std::size_t capacity = 8192)
      : cap_(capacity), arena_(capacity) {
    if (capacity < 2) {
      std::fprintf(stderr,
                   "hmps fatal: SeqQueue: capacity %zu leaves no node for a "
                   "value\n",
                   capacity);
      std::abort();
    }
    // Dummy node: arena slot 0.
    head_.store(rt::to_word(&arena_[0]), std::memory_order_relaxed);
    tail_.store(rt::to_word(&arena_[0]), std::memory_order_relaxed);
    alloc_.store(1, std::memory_order_relaxed);
  }

  /// Next arena node for an enqueue. Only the enqueue CS calls this, so a
  /// plain bump-and-wrap through ctx suffices (it is lock-protected state).
  /// The full-ring check reads the head on the host, so it costs no
  /// simulated access.
  template <class Ctx>
  Node* alloc(Ctx& ctx) {
    const std::uint64_t i = ctx.load(&alloc_);
    if (rt::to_word(&arena_[i]) == head_.load(std::memory_order_relaxed))
        [[unlikely]] {
      std::fprintf(stderr,
                   "hmps fatal: SeqQueue: all %zu nodes are in use (%zu "
                   "values queued); raise capacity\n",
                   cap_, cap_ - 1);
      std::abort();
    }
    ctx.store(&alloc_, (i + 1) % cap_);
    return &arena_[i];
  }

  std::size_t capacity() const { return cap_; }

  alignas(rt::kCacheLine) Word head_{0};
  alignas(rt::kCacheLine) Word tail_{0};
  alignas(rt::kCacheLine) Word alloc_{0};

 private:
  std::size_t cap_;
  rt::AlignedArray<Node> arena_;  // line packing independent of the heap
};

// ---- CS bodies: one-lock variant (no fences needed: one servicing
// thread/combiner executes every CS, so program order suffices) ----

template <class Ctx>
std::uint64_t q_enqueue(Ctx& ctx, void* obj, std::uint64_t v) {
  auto* q = static_cast<SeqQueue*>(obj);
  SeqQueue::Node* n = q->alloc(ctx);
  ctx.store(&n->val, v);
  ctx.store(&n->next, std::uint64_t{0});
  auto* tail = rt::from_word<SeqQueue::Node>(ctx.load(&q->tail_));
  ctx.store(&tail->next, rt::to_word(n));
  ctx.store(&q->tail_, rt::to_word(n));
  return 0;
}

template <class Ctx>
std::uint64_t q_dequeue(Ctx& ctx, void* obj, std::uint64_t /*unused*/) {
  auto* q = static_cast<SeqQueue*>(obj);
  auto* head = rt::from_word<SeqQueue::Node>(ctx.load(&q->head_));
  auto* next = rt::from_word<SeqQueue::Node>(ctx.load(&head->next));
  if (next == nullptr) return kQEmpty;
  const std::uint64_t v = ctx.load(&next->val);
  ctx.store(&q->head_, rt::to_word(next));  // old head retires to the arena
  return v;
}

// ---- CS bodies: two-lock (MS) variant. The enqueue and dequeue CSes run
// under *different* constructions concurrently, so node publication and
// consumption need fences on a weakly ordered machine (TILE-Gx). ----

template <class Ctx>
std::uint64_t q_enqueue_fenced(Ctx& ctx, void* obj, std::uint64_t v) {
  auto* q = static_cast<SeqQueue*>(obj);
  SeqQueue::Node* n = q->alloc(ctx);
  ctx.store(&n->val, v);
  ctx.store(&n->next, std::uint64_t{0});
  // Publish the node contents before it becomes reachable via tail->next.
  ctx.fence();
  auto* tail = rt::from_word<SeqQueue::Node>(ctx.load(&q->tail_));
  ctx.store(&tail->next, rt::to_word(n));
  // Make the link visible before the (enqueue-private) tail moves on.
  ctx.fence();
  ctx.store(&q->tail_, rt::to_word(n));
  return 0;
}

template <class Ctx>
std::uint64_t q_dequeue_fenced(Ctx& ctx, void* obj, std::uint64_t /*u*/) {
  auto* q = static_cast<SeqQueue*>(obj);
  auto* head = rt::from_word<SeqQueue::Node>(ctx.load(&q->head_));
  auto* next = rt::from_word<SeqQueue::Node>(ctx.load(&head->next));
  if (next == nullptr) return kQEmpty;
  // Order the link read before the value read (data is written by the
  // other CS's servicing thread).
  ctx.fence();
  const std::uint64_t v = ctx.load(&next->val);
  ctx.store(&q->head_, rt::to_word(next));
  return v;
}

/// Convenience wrapper: a FIFO queue whose operations go through one
/// universal construction (the "-1" single-lock variants of Fig. 5a).
template <class Ctx, class UC>
class UcQueue {
 public:
  UcQueue(SeqQueue& q, UC& uc) : q_(&q), uc_(&uc) {}

  void enqueue(Ctx& ctx, std::uint64_t v) {
    assert(v < kQEmpty);
    uc_->apply(ctx, &q_enqueue<Ctx>, v);
  }
  std::uint64_t dequeue(Ctx& ctx) { return uc_->apply(ctx, &q_dequeue<Ctx>, 0); }

 private:
  SeqQueue* q_;
  UC* uc_;
};

/// Two-lock MS-Queue: enqueues through `enq_uc`, dequeues through `deq_uc`.
template <class Ctx, class UC>
class TwoLockQueue {
 public:
  TwoLockQueue(SeqQueue& q, UC& enq_uc, UC& deq_uc)
      : q_(&q), enq_(&enq_uc), deq_(&deq_uc) {}

  void enqueue(Ctx& ctx, std::uint64_t v) {
    assert(v < kQEmpty);
    enq_->apply(ctx, &q_enqueue_fenced<Ctx>, v);
  }
  std::uint64_t dequeue(Ctx& ctx) {
    return deq_->apply(ctx, &q_dequeue_fenced<Ctx>, 0);
  }

 private:
  SeqQueue* q_;
  UC* enq_;
  UC* deq_;
};

}  // namespace hmps::ds
