// SHM-SERVER (paper Sections 3 and 5.2): the pure-shared-memory server
// approach — a simplified Remote Core Locking (RCL) with the same core
// mechanism and performance: one dedicated cache line per client used as a
// bidirectional request/response channel.
//
// Protocol on each 64-byte channel line:
//   client: writes arg, fn, then bumps req_seq; spins on resp_seq.
//   server: round-robin scans channels; a req_seq ahead of resp_seq is a
//           pending request; executes it, writes ret, bumps resp_seq.
// The server's read of a freshly written channel is one RMR (the line is
// dirty in the client's cache) and its response write is a second RMR
// (invalidating the spinning client) — the two stalls of Fig. 1.
//
// The server prefetches the next channel while working (the software
// pipelining a compiler performs at -O3 on an in-order core), which is what
// lets those RMRs overlap with long CS bodies (Fig. 4c).
#pragma once

#include <cstdint>
#include <memory>

#include "obs/span.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

template <class Ctx>
class ShmServer {
 public:
  using Fn = CsFn<Ctx>;

  /// `max_clients` fixes the channel array size; client thread ids must be
  /// < max_clients (and <= kMaxThreads: the per-thread seq/stats slots are
  /// fixed arrays). `async_depth` > 0 adds that many private async channel
  /// lines per client (docs/MODEL.md §9): slot 0 stays the synchronous
  /// channel with exactly the classic layout and scan order, slots
  /// 1..async_depth carry apply_async() requests reaped out of order. The
  /// server scans max_clients * (1 + async_depth) lines.
  ShmServer(Tid server_tid, void* obj, std::uint32_t max_clients = kMaxThreads,
            std::uint32_t async_depth = 0)
      : server_(server_tid), obj_(obj), nclients_(max_clients),
        depth_(async_depth > kMaxAsyncDepth ? kMaxAsyncDepth : async_depth),
        nchan_(max_clients * (1 + depth_)),
        chans_(new Channel[nchan_]) {
    check_tid(max_clients ? max_clients - 1 : 0, kMaxThreads,
              "ShmServer (max_clients)");
  }

  Tid server_tid() const { return server_; }
  std::uint32_t async_depth() const { return depth_; }

  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t arg) {
    check_tid(ctx.tid(), nclients_, "ShmServer::apply");
    obs::Span<Ctx> span(ctx, "shm.request");
    Channel& ch = chans_[chan_index(ctx.tid(), 0)];
    const std::uint64_t seq = ++my_seq_[ctx.tid()].v;
    ctx.store(&ch.arg, arg);
    ctx.store(&ch.fn, rt::to_word(fn));
    explore_point(ctx, "shm.publish");
    ctx.store(&ch.req_seq, seq);
    ctx.spin_until(&ch.resp_seq, [seq](std::uint64_t v) { return v == seq; });
    return ctx.load(&ch.ret);
  }

  /// Publishes the request on a free private async slot and returns without
  /// waiting for the server. When every slot is busy (or the server was
  /// built with async_depth 0) the request completes synchronously and the
  /// ticket returns inline — callers never block on slot availability.
  Ticket apply_async(Ctx& ctx, Fn fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, nclients_, "ShmServer::apply_async");
    SyncStats& st = stats_[tid].s;
    AsyncSt& a = async_[tid];
    explore_point(ctx, "shm.async_issue");
    std::uint32_t slot = 0;
    for (std::uint32_t s = 1; s <= depth_; ++s) {
      if ((a.busy_mask & (1u << s)) == 0) {
        slot = s;
        break;
      }
    }
    if (slot == 0) {
      // No free slot: degrade to the synchronous channel (slot 0, which
      // async never occupies) and complete the ticket inline.
      ++st.async_issued;
      const Cycle issued = ctx.now();
      return Ticket{0, apply(ctx, fn, arg), 0, issued, ctx.now()};
    }
    obs::Span<Ctx> span(ctx, "shm.request");
    Channel& ch = chans_[chan_index(tid, slot)];
    const std::uint64_t seq = ctx.load(&ch.req_seq) + 1;
    ctx.store(&ch.arg, arg);
    ctx.store(&ch.fn, rt::to_word(fn));
    explore_point(ctx, "shm.publish");
    ctx.store(&ch.req_seq, seq);
    a.busy_mask |= 1u << slot;
    ++st.async_issued;
    return Ticket{seq, 0, slot, ctx.now()};
  }

  /// Reaps one ticket: spins on its slot's resp_seq, then frees the slot.
  /// Must run on the issuing thread; tickets may be reaped in any order
  /// (each has its own cache line, so there is nothing to demux).
  std::uint64_t wait(Ctx& ctx, Ticket& t) {
    const Tid tid = ctx.tid();
    check_tid(tid, nclients_, "ShmServer::wait");
    if (t.tag == 0) return t.value;  // completed inline
    explore_point(ctx, "shm.reap");
    Channel& ch = chans_[chan_index(tid, t.aux)];
    ctx.spin_until(&ch.resp_seq,
                   [tag = t.tag](std::uint64_t v) { return v == tag; });
    async_[tid].busy_mask &= ~(1u << t.aux);
    t.completed = ctx.now();
    return ctx.load(&ch.ret);
  }

  /// Reaps every outstanding ticket of the calling thread, discarding the
  /// results.
  void wait_all(Ctx& ctx) {
    const Tid tid = ctx.tid();
    check_tid(tid, nclients_, "ShmServer::wait_all");
    AsyncSt& a = async_[tid];
    explore_point(ctx, "shm.reap");
    for (std::uint32_t s = 1; s <= depth_; ++s) {
      if ((a.busy_mask & (1u << s)) == 0) continue;
      Channel& ch = chans_[chan_index(tid, s)];
      const std::uint64_t seq = ctx.load(&ch.req_seq);
      ctx.spin_until(&ch.resp_seq,
                     [seq](std::uint64_t v) { return v == seq; });
      a.busy_mask &= ~(1u << s);
    }
  }

  /// Serves until a stop request is observed.
  void serve(Ctx& ctx) {
    check_tid(ctx.tid(), kMaxThreads, "ShmServer::serve");
    SyncStats& st = stats_[ctx.tid()].s;
    std::uint32_t i = 0;
    bool found_any = false;
    for (;;) {
      Channel& ch = chans_[i];
      const std::uint32_t next = i + 1 == nchan_ ? 0 : i + 1;
      // Software-pipelined scan: start fetching the next channel line while
      // this one is inspected/served.
      ctx.prefetch(&chans_[next]);
      const std::uint64_t req = ctx.load(&ch.req_seq);
      if (req != ctx.load(&ch.resp_seq)) {
        const std::uint64_t fnw = ctx.load(&ch.fn);
        if (fnw == kStopWord) {
          ctx.store(&ch.resp_seq, req);  // ack so the stopper can proceed
          return;
        }
        // CS + response phase: the two server-side RMRs of Fig. 1 land here.
        obs::Span<Ctx> cs(ctx, "shm.cs");
        Fn fn = rt::from_word<std::remove_pointer_t<Fn>>(fnw);
        const std::uint64_t arg = ctx.load(&ch.arg);
        const std::uint64_t ret = fn(ctx, obj_, arg);
        ctx.store(&ch.ret, ret);
        ctx.store(&ch.resp_seq, req);
        ++st.served;
        found_any = true;
      }
      i = next;
      if (i == 0) {
        explore_point(ctx, "shm.scan");
        // Completed a full scan. Back off briefly when it was empty: free
        // in the simulator, and natively it lets oversubscribed clients run
        // (the NativeCtx relax escalates to an OS yield).
        if (!found_any) {
          for (int b = 0; b < 8; ++b) ctx.cpu_relax();
        }
        found_any = false;
      }
    }
  }

  /// Stops the server through the caller's own channel (blocking until the
  /// server acknowledges).
  void request_stop(Ctx& ctx) {
    check_tid(ctx.tid(), nclients_, "ShmServer::request_stop");
    Channel& ch = chans_[chan_index(ctx.tid(), 0)];
    const std::uint64_t seq = ++my_seq_[ctx.tid()].v;
    ctx.store(&ch.fn, kStopWord);
    ctx.store(&ch.req_seq, seq);
    ctx.spin_until(&ch.resp_seq, [seq](std::uint64_t v) { return v == seq; });
  }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, "ShmServer::stats");
    return stats_[t].s;
  }

 private:
  // One cache line per client, as in RCL.
  struct alignas(rt::kCacheLine) Channel {
    Word fn{0};
    Word arg{0};
    Word ret{0};
    Word req_seq{0};
    Word resp_seq{0};
  };
  static_assert(sizeof(Channel) == rt::kCacheLine);

  struct alignas(rt::kCacheLine) PaddedSeq {
    std::uint64_t v = 0;
  };
  struct alignas(rt::kCacheLine) AsyncSt {
    std::uint32_t busy_mask = 0;  ///< bit s set: slot s issued, not reaped
  };

  /// busy_mask is a 32-bit set with slot 0 reserved for the sync channel.
  static constexpr std::uint32_t kMaxAsyncDepth = 31;

  std::uint32_t chan_index(Tid client, std::uint32_t slot) const {
    return client * (1 + depth_) + slot;
  }

  Tid server_;
  void* obj_;
  std::uint32_t nclients_;
  std::uint32_t depth_;
  std::uint32_t nchan_;  ///< nclients_ * (1 + depth_) channel lines
  std::unique_ptr<Channel[]> chans_;
  PaddedSeq my_seq_[kMaxThreads];
  PaddedStats stats_[kMaxThreads];
  AsyncSt async_[kMaxThreads];
};

}  // namespace hmps::sync
