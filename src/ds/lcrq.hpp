// LCRQ — the nonblocking linked concurrent ring queue of Morrison & Afek
// (PPoPP'13), in the form the paper ported to the TILE-Gx (Section 5.4,
// footnote 5):
//
//  * no 128-bit CAS2 on this machine, so values are 32 bits and each ring
//    cell packs {safe:1 | idx:31 | val:32} into one 64-bit word;
//  * the missing bitwise test-and-set on the tail's CLOSED bit is replaced
//    by a plain CAS loop.
//
// Each CRQ is a ring of R cells indexed by FAA'd head/tail counters; when a
// ring fills (or an enqueuer starves), it is closed and a new CRQ is linked
// behind it. Every operation performs several atomic instructions, which on
// the TILE-Gx all execute at the two memory controllers — the false
// serialization that caps LCRQ's throughput in Fig. 5a.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "runtime/aligned.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::ds {

using rt::Word;

inline constexpr std::uint32_t kLcrqEmpty = 0xFFFFFFFFu;

template <class Ctx>
class Lcrq {
 public:
  /// `ring_order`: lg2 of cells per CRQ. `max_rings`: allocation pool size
  /// (closed rings are retired, not freed, in lieu of hazard pointers —
  /// bounded-lifetime use only, as in the paper's benchmark). Rings are
  /// built on demand, so a queue pays only for the rings it uses. Running
  /// past `max_rings` aborts.
  explicit Lcrq(std::uint32_t ring_order = 7, std::uint32_t max_rings = 4096)
      : ring_size_(1u << ring_order), pool_cap_(max_rings),
        pool_(std::make_unique<Crq*[]>(pool_cap_)) {
    Crq* first = build_ring(0);
    pool_next_.store(1, std::memory_order_relaxed);
    init_empty(first);
    head_ptr_.store(rt::to_word(first), std::memory_order_relaxed);
    tail_ptr_.store(rt::to_word(first), std::memory_order_relaxed);
  }

  Lcrq(const Lcrq&) = delete;
  Lcrq& operator=(const Lcrq&) = delete;

  ~Lcrq() {
    // Only the slots alloc_ring handed out can hold a ring. A slot whose
    // FAA returned but whose ring was never built (a simulated run stopped
    // inside the FAA's latency) is still null.
    const std::uint64_t used = pool_next_.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < used && i < pool_cap_; ++i) delete pool_[i];
  }

  /// Enqueues a 32-bit value (the paper's port stores 32-bit values).
  void enqueue(Ctx& ctx, std::uint32_t v) {
    assert(v != kLcrqEmpty);
    int close_tries = 0;
    for (;;) {
      Crq* crq = rt::from_word<Crq>(ctx.load(&tail_ptr_));
      {  // help a lagging tail pointer forward
        Crq* next = rt::from_word<Crq>(ctx.load(&crq->next));
        if (next != nullptr) {
          ctx.cas(&tail_ptr_, rt::to_word(crq), rt::to_word(next));
          continue;
        }
      }
      const std::uint64_t traw = ctx.faa(&crq->tail, 1);
      if (closed(traw)) {
        if (append_new(ctx, crq, v)) return;
        continue;
      }
      const std::uint64_t t = traw;
      Word* cell = &crq->ring[t & (ring_size_ - 1)];
      const std::uint64_t c = ctx.load(cell);
      if (cell_val(c) == kLcrqEmpty && cell_idx(c) <= t &&
          (cell_safe(c) || ctx.load(&crq->head) <= t)) {
        if (ctx.cas(cell, c, make_cell(true, t, v))) return;
      }
      // Failed to install: check fullness / starvation and maybe close.
      const std::uint64_t h = ctx.load(&crq->head);
      if (t >= h + ring_size_ || ++close_tries >= kCloseThreshold) {
        close(ctx, crq);
        if (append_new(ctx, crq, v)) return;
        close_tries = 0;
      }
    }
  }

  /// Dequeues a value, or kLcrqEmpty if the queue is (momentarily) empty.
  std::uint32_t dequeue(Ctx& ctx) {
    for (;;) {
      Crq* crq = rt::from_word<Crq>(ctx.load(&head_ptr_));
      const std::uint32_t v = crq_dequeue(ctx, crq);
      if (v != kLcrqEmpty) return v;
      if (rt::from_word<Crq>(ctx.load(&crq->next)) == nullptr) {
        return kLcrqEmpty;
      }
      // The CRQ has a successor: drain once more (an in-flight enqueue may
      // have landed), then advance the head CRQ pointer.
      const std::uint32_t v2 = crq_dequeue(ctx, crq);
      if (v2 != kLcrqEmpty) return v2;
      ctx.cas(&head_ptr_, rt::to_word(crq),
              ctx.load(&crq->next));
    }
  }

 private:
  static constexpr int kCloseThreshold = 10;
  static constexpr std::uint64_t kClosedBit = std::uint64_t{1} << 63;

  struct Crq {
    explicit Crq(std::uint32_t n) : ring(n) {}
    alignas(rt::kCacheLine) Word head{0};
    alignas(rt::kCacheLine) Word tail{0};
    alignas(rt::kCacheLine) Word next{0};  // Crq*
    rt::AlignedArray<Word> ring;  // line packing independent of the heap
  };

  // Cell word: {safe:1 | idx:31 | val:32}.
  static constexpr std::uint64_t make_cell(bool safe, std::uint64_t idx,
                                           std::uint32_t val) {
    return (static_cast<std::uint64_t>(safe) << 63) |
           ((idx & 0x7FFFFFFFull) << 32) | val;
  }
  static constexpr bool cell_safe(std::uint64_t c) { return c >> 63; }
  static constexpr std::uint64_t cell_idx(std::uint64_t c) {
    return (c >> 32) & 0x7FFFFFFFull;
  }
  static constexpr std::uint32_t cell_val(std::uint64_t c) {
    return static_cast<std::uint32_t>(c);
  }
  static constexpr bool closed(std::uint64_t t) { return t & kClosedBit; }
  static constexpr std::uint64_t tail_index(std::uint64_t t) {
    return t & ~kClosedBit;
  }

  void init_empty(Crq* crq) {
    crq->head.store(0, std::memory_order_relaxed);
    crq->tail.store(0, std::memory_order_relaxed);
    crq->next.store(0, std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < ring_size_; ++i) {
      // Cell i starts safe/empty with idx == i.
      crq->ring[i].store(make_cell(true, i, kLcrqEmpty),
                         std::memory_order_relaxed);
    }
  }

  /// The paper's BTAS substitution: close the ring with a CAS loop on the
  /// tail's CLOSED bit.
  void close(Ctx& ctx, Crq* crq) {
    for (;;) {
      const std::uint64_t t = ctx.load(&crq->tail);
      if (closed(t)) return;
      if (ctx.cas(&crq->tail, t, t | kClosedBit)) return;
    }
  }

  /// Allocates a CRQ pre-loaded with `v` and links it behind `crq`.
  /// Returns true if our ring (and thus `v`) was installed.
  bool append_new(Ctx& ctx, Crq* crq, std::uint32_t v) {
    if (rt::from_word<Crq>(ctx.load(&crq->next)) != nullptr) {
      ctx.cas(&tail_ptr_, rt::to_word(crq), ctx.load(&crq->next));
      return false;
    }
    Crq* nq = alloc_ring(ctx);
    init_empty(nq);
    nq->ring[0].store(make_cell(true, 0, v), std::memory_order_relaxed);
    nq->tail.store(1, std::memory_order_relaxed);
    if (ctx.cas(&crq->next, std::uint64_t{0}, rt::to_word(nq))) {
      ctx.cas(&tail_ptr_, rt::to_word(crq), rt::to_word(nq));
      return true;
    }
    recycle_ring(ctx, nq);  // lost the race; only we ever saw nq
    ctx.cas(&tail_ptr_, rt::to_word(crq), ctx.load(&crq->next));
    return false;
  }

  std::uint32_t crq_dequeue(Ctx& ctx, Crq* crq) {
    for (;;) {
      const std::uint64_t h = ctx.faa(&crq->head, 1);
      Word* cell = &crq->ring[h & (ring_size_ - 1)];
      for (;;) {
        const std::uint64_t c = ctx.load(cell);
        if (cell_idx(c) > h) {
          // A later round already claimed this cell (we are a slow
          // dequeuer); treat our round as empty. Without this guard we
          // could lower a poisoned index and strand a slow enqueue.
          break;
        }
        if (cell_val(c) != kLcrqEmpty) {
          if (cell_idx(c) == h) {
            // Dequeue transition: consume and re-arm the cell for round
            // h + ring_size.
            if (ctx.cas(cell, c,
                        make_cell(cell_safe(c), h + ring_size_, kLcrqEmpty))) {
              return cell_val(c);
            }
          } else {
            // A value from a different round: mark unsafe so its enqueuer
            // cannot be dequeued out of order.
            if (ctx.cas(cell, c,
                        make_cell(false, cell_idx(c), cell_val(c)))) {
              break;
            }
          }
        } else {
          // Empty transition: poison index h so a slow enqueuer skips it.
          if (ctx.cas(cell, c,
                      make_cell(cell_safe(c), h + ring_size_, kLcrqEmpty))) {
            break;
          }
        }
      }
      // Is this CRQ drained?
      const std::uint64_t t = tail_index(ctx.load(&crq->tail));
      if (t <= h + 1) {
        fix_state(ctx, crq);
        return kLcrqEmpty;
      }
    }
  }

  /// After overshooting dequeues, pull the tail up to the head so future
  /// enqueues land on live indices.
  void fix_state(Ctx& ctx, Crq* crq) {
    for (;;) {
      const std::uint64_t t = ctx.load(&crq->tail);
      const std::uint64_t h = ctx.load(&crq->head);
      if (ctx.load(&crq->tail) != t) continue;
      if (h <= tail_index(t)) return;
      if (ctx.cas(&crq->tail, t, h | (t & kClosedBit))) return;
    }
  }

  Crq* alloc_ring(Ctx& ctx) {
    const std::uint64_t i = ctx.faa(&pool_next_, 1);
    if (i >= pool_cap_) {
      std::fprintf(stderr,
                   "hmps fatal: Lcrq: ring pool of %u rings exhausted\n",
                   pool_cap_);
      std::abort();
    }
    return build_ring(static_cast<std::size_t>(i));
  }

  /// Builds the ring of pool slot `i`. The FAA in alloc_ring hands each
  /// slot to exactly one caller, and the CAS that links the ring publishes
  /// it to the others; slots past pool_next_ are never read.
  Crq* build_ring(std::size_t i) {
    pool_[i] = new Crq(ring_size_);
    return pool_[i];
  }

  void recycle_ring(Ctx& ctx, Crq* nq) {
    // Only the loser of an append race calls this, and nobody else has a
    // reference; push it on a simple freelist via the next field.
    for (;;) {
      const std::uint64_t f = ctx.load(&free_rings_);
      ctx.store(&nq->next, f);
      if (ctx.cas(&free_rings_, f, rt::to_word(nq))) return;
    }
  }

  std::uint32_t ring_size_;
  std::uint32_t pool_cap_;
  std::unique_ptr<Crq*[]> pool_;  ///< zeroed; [0, pool_next_) claimed
  alignas(rt::kCacheLine) Word pool_next_{0};
  alignas(rt::kCacheLine) Word free_rings_{0};
  alignas(rt::kCacheLine) Word head_ptr_{0};
  alignas(rt::kCacheLine) Word tail_ptr_{0};
};

}  // namespace hmps::ds
