// HYBCOMB (paper Section 4.2, Algorithm 1): the hybrid combining
// construction and the paper's central contribution.
//
// Hardware message passing carries requests/responses between clients and
// the current combiner (as in MP-SERVER), while coherent shared memory
// manages combiner identity: a CAS on `last_registered_combiner` builds a
// logical queue of would-be combiners (CSqueue), each spinning on its
// predecessor's `combining_done` flag.
//
// Line numbers in comments refer to Algorithm 1 in the paper. The
// implementation keeps the algorithm's subtle points faithfully:
//  * registration is a FAA on the last registered combiner's n_ops; a
//    result >= MAX_OPS means the combiner is closed (or not yet open) and
//    the caller competes to become the next combiner (lines 9-21);
//  * a combiner first drains its message queue opportunistically (lines
//    25-28, optional for correctness, good for combining potential), then
//    closes registration with a SWAP of n_ops to MAX_OPS and serves exactly
//    the remaining registered requests (lines 30-37);
//  * a departing combiner exchanges its node with the single spare node
//    (departed_combiner), so n_ops of the node it leaves behind stays at
//    MAX_OPS until the node is reused and re-opened at line 18 (lines
//    38-42 and the "additional comments" paragraph).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>

#include "obs/span.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

template <class Ctx>
class HybComb {
 public:
  using Fn = CsFn<Ctx>;

  static constexpr std::uint32_t kMaxThreads = sync::kMaxThreads;
  static constexpr std::uint64_t kNoThread = ~std::uint64_t{0};

  /// Design-space options discussed in Section 4.2 ("additional comments");
  /// the defaults are the paper's Algorithm 1.
  struct Options {
    /// Register as combiner with SWAP instead of CAS: registration always
    /// succeeds, building a CLH-style chain of combiners, but some of them
    /// end up combining only their own request (the paper's argument for
    /// CAS).
    bool swap_registration = false;
    /// Run the opportunistic drain loop (lines 25-28) before closing
    /// registration; not needed for correctness, good for combining
    /// potential.
    bool eager_drain = true;
    /// Combiner-stall detection (Section 6 robustness): a would-be combiner
    /// spinning on its predecessor's combining_done for more than this many
    /// cycles records a stall_timeout and backs off coarsely. Detection
    /// only — takeover is impossible because the stalled combiner's pending
    /// requests sit in its private hardware queue. 0 disables.
    Cycle stall_timeout = 0;
    /// Section 6 overflow guard: bound the requests in flight *per
    /// combiner* (credit before send, released when the combiner SERVES
    /// the request), keeping a combiner's hardware buffer from overflowing
    /// under pressure. The credit counter lives in the combiner's node:
    /// registrants of a not-yet-active successor combiner draw from a
    /// different pool, so they can never starve the active combiner's
    /// registrants into a cross-generation deadlock. Unlike the server
    /// constructions (which release at reply arrival, docs/MODEL.md §9),
    /// release happens on the combiner side: a combiner blocks waiting for
    /// specific registrants' frames, so liveness must never depend on some
    /// third client draining its replies — a credit holder parked in
    /// spin_combining_done() cannot drain (its queue may already hold its
    /// successor-tenure request frames). 0 disables (the paper's unbounded
    /// behavior).
    std::uint64_t max_inflight = 0;
    /// TEST-ONLY seeded defect for the src/check schedule-exploration
    /// harness (docs/TESTING.md): the combiner drops the CS execution of
    /// every Nth message-served request — it consumes the request but
    /// replies with the previous retval without running fn, a lost update
    /// that only manifests under combining. 0 (the default) disables it;
    /// never set outside exploration selftests.
    std::uint64_t bug_drop_every = 0;
  };

  /// `max_ops` is MAX_OPS of Algorithm 1. `fixed_combiner` reproduces the
  /// Fig. 4a measurement variant (MAX_OPS = infinity, one combiner for the
  /// whole run: the first thread to combine never departs).
  HybComb(void* obj, std::uint64_t max_ops = 200, bool fixed_combiner = false,
          Options opts = Options{})
      : obj_(obj),
        // Fixed-combiner mode IS "MAX_OPS = infinity" (paper footnote 4):
        // registration must never close, or clients wedge behind a combiner
        // that never departs.
        max_ops_(fixed_combiner ? (std::uint64_t{1} << 62) : max_ops),
        fixed_(fixed_combiner), opts_(opts),
        pool_(new Node[kMaxThreads + 1]) {
    // Line 3: departed_combiner <- {bottom, MAX_OPS, true}
    Node* dep = &pool_[kMaxThreads];
    dep->thread_id.store(kNoThread, std::memory_order_relaxed);
    dep->n_ops.store(max_ops_, std::memory_order_relaxed);
    dep->combining_done.store(1, std::memory_order_relaxed);
    departed_.store(rt::to_word(dep), std::memory_order_relaxed);
    // Line 4: last_registered_combiner <- departed_combiner
    lrc_.store(rt::to_word(dep), std::memory_order_relaxed);
    // Line 5: my_node <- {id, MAX_OPS, false}
    for (std::uint32_t t = 0; t < kMaxThreads; ++t) {
      pool_[t].thread_id.store(t, std::memory_order_relaxed);
      pool_[t].n_ops.store(max_ops_, std::memory_order_relaxed);
      pool_[t].combining_done.store(0, std::memory_order_relaxed);
      my_[t].node = &pool_[t];
    }
  }

  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "HybComb::apply");
    // With async tickets outstanding the synchronous 1-word response would
    // misframe behind the pending 3-word tagged replies; route through the
    // async path instead (docs/MODEL.md §9).
    if (async_[tid].outstanding > 0) {
      Ticket t = apply_async(ctx, fn, arg);
      return wait(ctx, t);
    }
    SyncStats& st = stats_[tid].s;
    Node* reg = nullptr;
    if (try_register_send(ctx, fn, arg, /*tag=*/0, st, &reg)) {
      // Lines 12-14 tail: await the response (the combiner released our
      // credit when it served the request).
      return ctx.receive1();
    }
    return combine_section(ctx, fn, arg, st);
  }

  /// Issues `fn(obj, arg)` without blocking on the response. When the
  /// request registers with an active combiner the ticket is pending (reap
  /// with wait()/wait_all() on this thread); when registration is closed
  /// everywhere the caller becomes the combiner exactly as in apply() and
  /// the ticket completes inline — the combiner transition cannot be
  /// deferred, its pending requests sit in this thread's hardware queue.
  Ticket apply_async(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "HybComb::apply_async");
    SyncStats& st = stats_[tid].s;
    AsyncTags& a = async_[tid];
    explore_point(ctx, "hyb.async_issue");
    const std::uint64_t tag = a.next_tag;
    const Cycle issued = ctx.now();
    Node* reg = nullptr;
    if (try_register_send(ctx, fn, arg, tag, st, &reg)) {
      a.advance();
      ++st.async_issued;
      ++a.outstanding;
      return Ticket{tag, 0, 0, issued};
    }
    ++st.async_issued;
    // Braced initializers run in order: completed is stamped after the CS.
    return Ticket{0, combine_section(ctx, fn, arg, st), 0, issued, ctx.now()};
  }

  /// Reaps one ticket, returning its CS result. Must run on the issuing
  /// thread. Replies for other outstanding tickets arriving first are
  /// staged in the context (credits were already released combiner-side at
  /// serve time).
  std::uint64_t wait(Ctx& ctx, Ticket& t) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "HybComb::wait");
    AsyncTags& a = async_[tid];
    if (t.tag == 0) return t.value;  // completed inline (combiner path)
    explore_point(ctx, "hyb.reap");
    --a.outstanding;
    return reap_ticket(ctx, t,
                       [&](std::uint64_t* val) { return pop_reply(ctx, val); });
  }

  /// Reaps every outstanding ticket of the calling thread, discarding the
  /// results.
  void wait_all(Ctx& ctx) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, "HybComb::wait_all");
    AsyncTags& a = async_[tid];
    explore_point(ctx, "hyb.reap");
    std::uint64_t tag, val;
    for (; a.outstanding > 0; --a.outstanding) {
      if (!ctx.replies().take_any(&tag, &val)) pop_reply(ctx, &val);
    }
  }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, "HybComb::stats");
    return stats_[t].s;
  }

  /// Credits held against the last registered combiner's node — a proxy for
  /// the active combiner's queue length (0 when the overflow guard is off).
  /// Telemetry gauge: plain snapshot reads, never synchronizing.
  std::uint64_t combiner_inflight() const {
    const Node* n = rt::from_word<Node>(lrc_.load(std::memory_order_relaxed));
    return n ? n->inflight.load(std::memory_order_relaxed) : 0;
  }

 private:
  // Line 2: Node{thread_id, n_ops, combining_done}. One cache line each;
  // n_ops is the FAA hot word.
  struct alignas(rt::kCacheLine) Node {
    Word thread_id{0};
    Word n_ops{0};
    Word combining_done{0};
    Word inflight{0};  ///< Section 6 per-combiner credits (max_inflight)
  };
  static_assert(sizeof(Node) == rt::kCacheLine);

  struct alignas(rt::kCacheLine) PerThread {
    Node* node = nullptr;
  };

  /// Lines 19-20: wait for the predecessor combiner to depart, optionally
  /// detecting a stalled one (Options::stall_timeout).
  void spin_combining_done(Ctx& ctx, Node* pred, SyncStats& st) {
    if (opts_.stall_timeout == 0) {
      ctx.spin_until(&pred->combining_done,
                     [](std::uint64_t v) { return v != 0; });
      return;
    }
    Cycle t0 = ctx.now();
    while (!ctx.load(&pred->combining_done)) {
      if (ctx.now() - t0 >= opts_.stall_timeout) {
        ++st.stall_timeouts;
        // Coarse backoff: the predecessor is preempted/stalled, so burning
        // cycles polling its flag only adds contention on the line.
        ctx.compute(opts_.stall_timeout / 4 + 1);
        t0 = ctx.now();
      } else {
        ctx.cpu_relax();
      }
    }
  }

  /// Registration phase (Algorithm 1 lines 8-21). Returns true when the
  /// request registered with a combiner and was sent (`*out_reg` is the
  /// node whose credit pool it drew from); false when the caller became the
  /// next combiner (run combine_section()). `tag` == 0 marks a synchronous
  /// request.
  bool try_register_send(Ctx& ctx, Fn fn, std::uint64_t arg,
                         std::uint64_t tag, SyncStats& st, Node** out_reg) {
    const Tid tid = ctx.tid();
    for (;;) {  // line 8
      explore_point(ctx, "hyb.register");
      Node* last_reg = rt::from_word<Node>(ctx.load(&lrc_));  // line 9
      // Line 11: try to register with the last registered combiner.
      if (ctx.faa(&last_reg->n_ops, 1) < max_ops_) {
        // Lines 12-13: success; send the request.
        obs::Span<Ctx> req(ctx, "hyb.request");
        const Tid comb =
            static_cast<Tid>(ctx.load(&last_reg->thread_id));
        // Credits live in the combiner's node. Liveness: the active
        // combiner's registrants release credits as they are served, so the
        // combiner is never starved of requests.
        if (opts_.max_inflight) {
          if (tag == 0) {
            acquire_credit(ctx, last_reg->inflight, opts_.max_inflight, st);
          } else {
            acquire_credit_draining(ctx, last_reg, st, async_[tid]);
          }
        }
        explore_point(ctx, "hyb.pre_send");
        ctx.send(comb, {pack_request_id(tid, tag), rt::to_word(fn), arg});
        ++st.ops;
        *out_reg = last_reg;
        return true;
      }
      // Lines 16-21: failure; try to register as the next combiner.
      Node* my_node = my_[tid].node;
      if (opts_.swap_registration) {
        // Ablation: SWAP always succeeds; combiners form a CLH-style chain
        // (every candidate becomes a combiner, possibly for its own request
        // only).
        last_reg = rt::from_word<Node>(
            ctx.exchange(&lrc_, rt::to_word(my_node)));
        ctx.store(&my_node->n_ops, std::uint64_t{0});
        spin_combining_done(ctx, last_reg, st);
        return false;
      }
      ++st.cas_attempts;
      if (ctx.cas(&lrc_, rt::to_word(last_reg), rt::to_word(my_node))) {
        ctx.store(&my_node->n_ops, std::uint64_t{0});  // line 18
        spin_combining_done(ctx, last_reg, st);        // lines 19-20
        return false;  // line 21
      }
      ++st.cas_failures;
    }
  }

  /// Combiner section (Algorithm 1 lines 23-43, in mutual exclusion): run
  /// the own op, drain/serve registered requests, depart.
  std::uint64_t combine_section(Ctx& ctx, Fn fn, std::uint64_t arg,
                                SyncStats& st) {
    const Tid tid = ctx.tid();
    Node* my_node = my_[tid].node;
    std::uint64_t ops_completed = 0;  // line 7
    obs::Span<Ctx> combine(ctx, "hyb.combine");
    ++st.tenures;
    const std::uint64_t retval = fn(ctx, obj_, arg);  // line 23
    ++st.ops;
    ++st.served;

    // Lines 25-28: drain the message queue while it is non-empty. Stray
    // reply frames (serve_frame() returning false) do not count toward
    // ops_completed — only registered requests do.
    if (opts_.eager_drain) {
      while (!ctx.queue_empty()) {
        if (serve_frame(ctx, st)) ++ops_completed;
      }
    }
    if (fixed_) {
      // Fig. 4a variant: equivalent to MAX_OPS = infinity; never depart.
      for (;;) {
        serve_frame(ctx, st);
      }
    }

    // Line 30: close combining for new requests.
    explore_point(ctx, "hyb.close");
    std::uint64_t total_ops = ctx.exchange(&my_node->n_ops, max_ops_);
    if (total_ops > max_ops_) total_ops = max_ops_;  // lines 31-32

    // Lines 34-37: serve the remaining registered requests.
    while (ops_completed < total_ops) {
      if (serve_frame(ctx, st)) ++ops_completed;
    }

    // Lines 39-42: exchange our node with the spare, inform the next
    // combiner, and return. These run in mutual exclusion (footnote 3), so
    // plain read+write stands in for the paper's SWAP.
    explore_point(ctx, "hyb.depart");
    Node* spare = rt::from_word<Node>(ctx.load(&departed_));
    ctx.store(&departed_, rt::to_word(my_node));
    Node* old_node = my_node;
    my_node = spare;
    my_[tid].node = my_node;
    ctx.store(&my_node->combining_done, std::uint64_t{0});   // line 40
    ctx.store(&my_node->thread_id, std::uint64_t{tid});      // line 41
    ctx.store(&old_node->combining_done, std::uint64_t{1});  // line 42
    return retval;  // line 43
  }

  /// Pops exactly one 3-word frame from the combiner's queue. Request
  /// frames run their CS and are answered (returns true); stray reply
  /// frames — responses to the combiner's own still-outstanding async
  /// tickets, possible because a thread with pending tickets can become a
  /// combiner — are staged for their wait() and return false. The demux is
  /// safe because async replies are padded to the same 3-word framing as
  /// requests and marked with bit 63.
  bool serve_frame(Ctx& ctx, SyncStats& st) {
    std::uint64_t m[3];  // {sender_id|tag, fptr, fargs} — lines 26/35
    ctx.receive(m, 3);
    if (is_reply_frame(m[0])) {
      ctx.replies().stage(reply_tag(m[0]), m[1]);
      return false;
    }
    // The request no longer occupies this combiner's hardware queue:
    // release its credit. Every request frame served in a tenure drew from
    // the serving thread's current node (registration with it closes before
    // the node is recycled, and its registered ops are all served before
    // depart), so the release node is simply my_[tid].node.
    if (opts_.max_inflight) release_credit(ctx, my_[ctx.tid()].node->inflight);
    obs::Span<Ctx> cs(ctx, "hyb.cs");
    const Tid dst = static_cast<Tid>(request_tid(m[0]));
    const std::uint64_t tag = request_tag(m[0]);
    if (opts_.bug_drop_every != 0) [[unlikely]] {
      if (++bug_serves_ % opts_.bug_drop_every == 0) {
        // Seeded bug (Options::bug_drop_every): skip the CS, reply stale.
        reply(ctx, dst, tag, bug_last_ret_);
        ++st.served;
        return true;
      }
    }
    Fn f = rt::from_word<std::remove_pointer_t<Fn>>(m[1]);
    const std::uint64_t ret = f(ctx, obj_, m[2]);
    bug_last_ret_ = ret;
    reply(ctx, dst, tag, ret);  // lines 27/36
    ++st.served;
    return true;
  }

  /// Pops one padded 3-word reply frame addressed to this thread; returns
  /// its tag, the CS result in `*val`. Only replies can land here: requests
  /// go to registered combiners, and a thread reaping or waiting for a
  /// credit is never one.
  std::uint64_t pop_reply(Ctx& ctx, std::uint64_t* val) {
    std::uint64_t m[3];
    ctx.receive_async(m, 3);
    assert(is_reply_frame(m[0]));
    *val = m[1];
    return reply_tag(m[0]);
  }

  /// Async replies are padded to 3 words so a combiner's queue keeps
  /// uniform framing (see serve_frame()).
  void reply(Ctx& ctx, Tid dst, std::uint64_t tag, std::uint64_t ret) {
    if (tag != 0) {
      ctx.send(dst, {kAsyncReplyMark | tag, ret, 0});
    } else {
      ctx.send(dst, {ret});
    }
  }

  /// Async-issue credit acquire. Liveness needs no drain here — credits
  /// release through the combiner's own serving progress — but replies that
  /// already arrived for this thread's outstanding tickets are moved to the
  /// stash anyway, so an issuer parked on a credit never lets its hardware
  /// queue fill up with undrained replies (which would eventually block the
  /// combiner's reply sends on small buffers).
  void acquire_credit_draining(Ctx& ctx, Node* node, SyncStats& st,
                               AsyncTags& a) {
    acquire_credit(ctx, node->inflight, opts_.max_inflight, st, [&] {
      if (a.outstanding > 0 && !ctx.queue_empty()) {
        std::uint64_t val;
        const std::uint64_t got = pop_reply(ctx, &val);
        ctx.replies().stage(got, val);
      } else {
        ctx.cpu_relax();
      }
    });
  }

  void* obj_;
  std::uint64_t max_ops_;
  bool fixed_;
  Options opts_;
  std::unique_ptr<Node[]> pool_;
  alignas(rt::kCacheLine) Word lrc_{0};        ///< last_registered_combiner
  alignas(rt::kCacheLine) Word departed_{0};   ///< departed_combiner
  PerThread my_[kMaxThreads];
  PaddedStats stats_[kMaxThreads];
  AsyncTags async_[kMaxThreads];
  // Seeded-bug state (Options::bug_drop_every); only touched inside the
  // combiner section, i.e. in mutual exclusion.
  std::uint64_t bug_serves_ = 0;
  std::uint64_t bug_last_ret_ = 0;
};

}  // namespace hmps::sync
