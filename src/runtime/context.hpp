// The ExecutionContext concept: the single surface through which every
// synchronization algorithm and data structure in this library touches the
// machine. Algorithms are written once as templates over a Ctx and run
// unmodified on:
//
//   * SimCtx    — the deterministic TILE-Gx-like machine simulator, which
//                 charges modeled latencies (coherence RMRs, controller
//                 atomics, UDN messaging) and drives Fig. 3-5 reproduction;
//   * NativeCtx — real std::atomic operations plus a software MPSC channel
//                 ("message passing emulated over shared memory"), used for
//                 correctness testing under genuine hardware concurrency and
//                 for the Section 5.5 native x86 comparison.
//
// System-model mapping (paper Section 2):
//   load/store               read(a) / write(a,v) on 64-bit locations
//   faa/exchange/cas         FAA / SWAP / CAS
//   send/receive/queue_empty message-passing operations, FIFO per-thread
//                            queues of 64-bit values; send is asynchronous,
//                            receive(k) blocks for k words
//   fence                    full memory fence (TILE-Gx relaxed model)
//   compute(c)               c cycles of local work (the empty-loop think
//                            time of Section 5.2, CS bodies, etc.)
//   prefetch(p)              non-binding prefetch of the line holding p
//   cpu_relax()              one backoff/poll iteration of a spin loop
//   spin_until(p, done)      the local-spin wait: load p until done(value)
//                            holds, cpu_relax() between loads; returns the
//                            value (SimCtx runs its cache-hit polls without
//                            fiber switches, docs/ENGINE.md "Parked spins")
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace hmps::rt {

using sim::Cycle;
using sim::Tid;

template <class C>
concept ExecutionContext = requires(C c, std::atomic<std::uint64_t>* a,
                                    const std::atomic<std::uint64_t>* ca,
                                    std::uint64_t v, Tid t,
                                    const std::uint64_t* words,
                                    std::uint64_t* out, std::size_t n,
                                    bool (*done)(std::uint64_t)) {
  { c.tid() } -> std::convertible_to<Tid>;
  { c.nthreads() } -> std::convertible_to<std::uint32_t>;
  { c.load(ca) } -> std::convertible_to<std::uint64_t>;
  { c.store(a, v) };
  { c.faa(a, v) } -> std::convertible_to<std::uint64_t>;
  { c.exchange(a, v) } -> std::convertible_to<std::uint64_t>;
  { c.cas(a, v, v) } -> std::convertible_to<bool>;
  { c.fence() };
  { c.send(t, words, n) };
  { c.receive(out, n) };
  { c.queue_empty() } -> std::convertible_to<bool>;
  { c.compute(Cycle{1}) };
  { c.cpu_relax() };
  { c.spin_until(ca, done) } -> std::convertible_to<std::uint64_t>;
  { c.prefetch(static_cast<const void*>(a)) };
  { c.now() } -> std::convertible_to<Cycle>;
  { c.rand_below(v) } -> std::convertible_to<std::uint64_t>;
};

/// Atomic word type used for all shared variables in the algorithms. Plain
/// 64-bit everywhere, per the paper's system model.
using Word = std::atomic<std::uint64_t>;

/// Helpers to round-trip pointers through 64-bit message/atomic words.
template <class T>
inline std::uint64_t to_word(T* p) {
  return reinterpret_cast<std::uint64_t>(p);
}
template <class T>
inline T* from_word(std::uint64_t w) {
  return reinterpret_cast<T*>(w);
}

inline constexpr std::size_t kCacheLine = 64;

/// Async replies a thread popped while waiting for a different tag; each
/// waits here until its ticket is reaped (tagged-receive demux,
/// docs/MODEL.md §9). Both contexts keep one (`ctx.replies()`).
class ReplyStash {
 public:
  void stage(std::uint64_t tag, std::uint64_t val) {
    items_.emplace_back(tag, val);
  }

  /// Takes the reply staged under `tag`, if any.
  bool take(std::uint64_t tag, std::uint64_t* val) {
    for (auto& it : items_) {
      if (it.first == tag) {
        *val = it.second;
        it = items_.back();
        items_.pop_back();
        return true;
      }
    }
    return false;
  }

  /// Takes the most recently staged reply, if any.
  bool take_any(std::uint64_t* tag, std::uint64_t* val) {
    if (items_.empty()) return false;
    *tag = items_.back().first;
    *val = items_.back().second;
    items_.pop_back();
    return true;
  }

 private:
  std::vector<std::pair<std::uint64_t, std::uint64_t>> items_;
};

}  // namespace hmps::rt
