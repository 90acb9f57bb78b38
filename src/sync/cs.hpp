// Common critical-section plumbing shared by all universal constructions.
//
// Every construction serves one concurrent object (the paper's footnote 2:
// the object a CS executes on is implicit). A critical section is a plain
// function taking the execution context, the object, and one 64-bit
// argument, returning one 64-bit result — which is exactly what fits the
// paper's 3-word request / 1-word response message format:
//     request  = { sender_id, fn, arg }
//     response = { retval }
//
// The fn word doubles as the paper's Section 5.2 "opcode" optimization:
// since it is a direct function pointer, the servicing thread's dispatch is
// a single indirect call (the inlining effect the paper exploits).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "runtime/context.hpp"

namespace hmps::sync {

using rt::Cycle;
using rt::Tid;
using rt::Word;

/// Critical-section body type for a given execution context.
template <class Ctx>
using CsFn = std::uint64_t (*)(Ctx&, void* obj, std::uint64_t arg);

/// fn == kStopWord in a request shuts a server loop down (never a valid
/// function pointer).
inline constexpr std::uint64_t kStopWord = 0;

// ---- asynchronous delegation (docs/MODEL.md §9) ----
//
// An async request reuses the 3-word request format but packs a per-thread
// tag into the high half of the sender word:
//     request  = { tid | (tag << 32), fn, arg }        tag in [1, 2^31)
//     response = { kAsyncReplyMark | tag, retval }     (+ a pad word where
//                                                       frames must stay
//                                                       3 words, HybComb)
// tag == 0 marks a synchronous request and keeps the classic 1-word
// response, so the wire format is backward compatible. Bit 63 of a frame's
// first word distinguishes reply frames from request frames (a request's
// first word has a 31-bit tag at most, so bit 63 is always clear), which is
// what lets a HybComb combiner demux stray replies to its own outstanding
// tickets out of its request stream.

/// Reply-frame mark (bit 63 of the first reply word).
inline constexpr std::uint64_t kAsyncReplyMark = std::uint64_t{1} << 63;
/// Tags are 31-bit, nonzero, per-thread monotonic (wrapping).
inline constexpr std::uint64_t kAsyncTagMask = 0x7FFFFFFF;

inline constexpr std::uint64_t pack_request_id(Tid tid, std::uint64_t tag) {
  return static_cast<std::uint64_t>(tid) | (tag << 32);
}
inline constexpr Tid request_tid(std::uint64_t w0) {
  return static_cast<Tid>(w0 & 0xFFFFFFFFu);
}
inline constexpr std::uint64_t request_tag(std::uint64_t w0) {
  return (w0 >> 32) & kAsyncTagMask;
}
inline constexpr bool is_reply_frame(std::uint64_t w0) {
  return (w0 & kAsyncReplyMark) != 0;
}
inline constexpr std::uint64_t reply_tag(std::uint64_t w0) {
  return w0 & kAsyncTagMask;
}

/// Answers request `id` (its first word) over hardware message passing:
/// the 1-word {ret} for a sync request, the 2-word tagged pair for an async
/// one.
template <class Ctx>
inline void reply_to(Ctx& ctx, std::uint64_t id, std::uint64_t ret) {
  const std::uint64_t tag = request_tag(id);
  if (tag != 0) {
    ctx.send(request_tid(id), {kAsyncReplyMark | tag, ret});
  } else {
    ctx.send(request_tid(id), {ret});
  }
}

/// Future for one asynchronous critical-section application. tag == 0 means
/// the operation already completed inline (e.g. the HybComb caller became
/// the combiner) and `value` holds the result; otherwise the ticket must be
/// reaped with the issuing construction's wait()/wait_all() by the issuing
/// thread. A pending ticket holds its Section 6 in-flight credit until the
/// reply reaches the client (docs/MODEL.md §9).
struct Ticket {
  std::uint64_t tag = 0;
  std::uint64_t value = 0;  ///< result, valid iff tag == 0
  std::uint32_t aux = 0;    ///< construction-private (e.g. ShmServer slot)
  // Latency accounting (docs/SERVICE.md): stamped by the issuing
  // construction. `issued` is the cycle apply_async() accepted the op;
  // `completed` is the cycle the result became available to the client
  // (inline completion stamps both at issue; wait()/wait_all() stamp
  // `completed` when the reply is reaped). Sojourn time for an open-loop
  // arrival is completed - arrival, of which completed - issued is the
  // in-construction share.
  Cycle issued = 0;
  Cycle completed = 0;
};

/// Per-construction counters, exposed uniformly so the harness can report
/// the paper's Fig. 4b / Section 5.3 metrics.
struct SyncStats {
  std::uint64_t ops = 0;             ///< apply() calls completed
  std::uint64_t served = 0;          ///< CSes executed while servicing
  std::uint64_t tenures = 0;         ///< combining rounds (combiners only)
  std::uint64_t cas_attempts = 0;    ///< CAS executions (HybComb Fig. 5.3)
  std::uint64_t cas_failures = 0;
  // Section 6 robustness paths (docs/ROBUSTNESS.md):
  std::uint64_t throttle_waits = 0;  ///< waits for an in-flight credit
  std::uint64_t stall_timeouts = 0;  ///< combiner-stall timeouts observed
  // Asynchronous delegation (docs/MODEL.md §9):
  std::uint64_t async_issued = 0;    ///< apply_async() tickets issued
  std::uint64_t async_batched = 0;   ///< async ops sent in trains of >= 2
  // Open-loop admission control (docs/SERVICE.md):
  std::uint64_t shed_ops = 0;        ///< arrivals dropped by admission control

  void reset() { *this = SyncStats{}; }

  /// Field-wise accumulation (the harness sums per-thread slots).
  void add(const SyncStats& o) {
    ops += o.ops;
    served += o.served;
    tenures += o.tenures;
    cas_attempts += o.cas_attempts;
    cas_failures += o.cas_failures;
    throttle_waits += o.throttle_waits;
    stall_timeouts += o.stall_timeouts;
    async_issued += o.async_issued;
    async_batched += o.async_batched;
    shed_ops += o.shed_ops;
  }

  /// Field-wise `*this - prev`: the counts accrued since snapshot `prev`.
  SyncStats since(const SyncStats& prev) const {
    SyncStats d;
    d.ops = ops - prev.ops;
    d.served = served - prev.served;
    d.tenures = tenures - prev.tenures;
    d.cas_attempts = cas_attempts - prev.cas_attempts;
    d.cas_failures = cas_failures - prev.cas_failures;
    d.throttle_waits = throttle_waits - prev.throttle_waits;
    d.stall_timeouts = stall_timeouts - prev.stall_timeouts;
    d.async_issued = async_issued - prev.async_issued;
    d.async_batched = async_batched - prev.async_batched;
    d.shed_ops = shed_ops - prev.shed_ops;
    return d;
  }

  /// Average requests executed per combining round (Fig. 4b).
  double combining_rate() const {
    return tenures ? static_cast<double>(served) / static_cast<double>(tenures)
                   : 0.0;
  }
};

/// One thread's SyncStats on its own cache line, so per-thread counters
/// never false-share.
struct alignas(rt::kCacheLine) PaddedStats {
  SyncStats s;
};

/// One thread's async-ticket state in a tagged-reply construction, on its
/// own cache line.
struct alignas(rt::kCacheLine) AsyncTags {
  std::uint64_t next_tag = 1;
  std::uint32_t outstanding = 0;  ///< issued minus reaped

  /// Advances the wrapping, never-zero 31-bit tag sequence.
  void advance() { next_tag = next_tag == kAsyncTagMask ? 1 : next_tag + 1; }
};

/// Exploration yield point at a named sync-layer boundary (`where` must
/// have static storage duration). Compiles to nothing for contexts without
/// schedule exploration (NativeCtx); for SimCtx it is one predicted branch
/// unless a sim::Perturber is installed, which may stall the thread here as
/// if it were descheduled — the targeted-preemption lever of the
/// src/check schedule-exploration harness (docs/TESTING.md).
template <class Ctx>
inline void explore_point(Ctx& ctx, const char* where) {
  if constexpr (requires { ctx.explore_point(where); }) {
    ctx.explore_point(where);
  }
}

/// Thread-id capacity of the fixed per-thread pools (nodes, channels,
/// stats) every construction, lock and data structure keeps.
inline constexpr std::uint32_t kMaxThreads = 64;

/// Hard capacity check for those pools. A run configured with more threads
/// than kMaxThreads used to index silently past them; now it dies with a
/// diagnosis instead of corrupting memory.
inline void check_tid(Tid tid, std::uint32_t capacity, const char* cls,
                      const char* method = "") {
  if (tid >= capacity) [[unlikely]] {
    std::fprintf(stderr,
                 "hmps fatal: %s%s%s: thread id %u exceeds the construction's "
                 "fixed capacity of %u threads (kMaxThreads)\n",
                 cls, *method ? "::" : "", method, static_cast<unsigned>(tid),
                 static_cast<unsigned>(capacity));
    std::abort();
  }
}

/// Section 6 overflow guard (docs/ROBUSTNESS.md): `credits` counts the
/// requests in flight against one hardware buffer. Spins through shared
/// memory (no message-buffer pressure) until it is below `max`, then claims
/// one with CAS. Each failed round counts a throttle wait and runs `idle`:
/// cpu_relax() by default; async issue drains its own arrived replies there
/// so unreaped tickets never hold every credit against their issuer
/// (docs/MODEL.md §9).
template <class Ctx, class Idle>
inline void acquire_credit(Ctx& ctx, Word& credits, std::uint64_t max,
                           SyncStats& st, Idle&& idle) {
  for (;;) {
    const std::uint64_t cur = ctx.load(&credits);
    if (cur < max && ctx.cas(&credits, cur, cur + 1)) return;
    ++st.throttle_waits;
    idle();
  }
}
template <class Ctx>
inline void acquire_credit(Ctx& ctx, Word& credits, std::uint64_t max,
                           SyncStats& st) {
  acquire_credit(ctx, credits, max, st, [&ctx] { ctx.cpu_relax(); });
}

/// Returns one credit to the pool.
template <class Ctx>
inline void release_credit(Ctx& ctx, Word& credits) {
  ctx.faa(&credits, ~std::uint64_t{0});  // +(-1)
}

/// Claims pending ticket `t`'s result (docs/MODEL.md §9): from the context
/// stash if its reply already arrived, else by popping replies with `pop`
/// (returns a reply's tag, its value in *val) and staging the others for
/// their own wait(). Stamps t.completed.
template <class Ctx, class Pop>
inline std::uint64_t reap_ticket(Ctx& ctx, Ticket& t, Pop&& pop) {
  std::uint64_t val;
  if (!ctx.replies().take(t.tag, &val)) {
    for (std::uint64_t got; (got = pop(&val)) != t.tag;) {
      ctx.replies().stage(got, val);
    }
  }
  t.completed = ctx.now();
  return val;
}

}  // namespace hmps::sync
