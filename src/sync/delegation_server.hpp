// The delegation server of paper Section 4.1 (MP-SERVER): a dedicated
// server thread executes every critical section of its objects. Clients send
// a 3-word request {sender_id, fn, arg} and block on the reply; the server's
// receive reads its local buffer and its send is asynchronous, so no
// coherence stall remains on its critical path (Fig. 2 of the paper).
//
// DelegationServer<Ctx, Wire, Dispatch> holds the only copy of that
// protocol: sync apply, async tickets and their reap loop (docs/MODEL.md
// §9), the Section 6 credit guard and the serve loop. Two policies vary:
//   Wire      moves the words. UdnWire: hardware message passing, 1-word
//             sync replies, 2-word {kAsyncReplyMark | tag, ret} async
//             replies. VlinkWire (sync/vlink_server.hpp, sim-only): every
//             reply is 2 words, tag 0 = sync. (HybComb, not a delegation
//             server, pads its async UDN replies to 3 words.)
//   Dispatch  decodes the fn word: FnDispatch calls a CsFn pointer (the
//             paper's Section 5.2 opcode optimization), OpcodeDispatch
//             indexes a table of registered (fn, obj) pairs.
// MpServer = UdnWire + FnDispatch ("mp.*"), MpServerHub = UdnWire +
// OpcodeDispatch ("hub.*") and VlinkServer = VlinkWire + FnDispatch
// ("vlink.*") are thin subclasses that keep their constructors. Dispatch is
// static throughout: nothing virtual sits on the per-message path.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

/// Thread-id capacity of every delegation server's per-thread state.
inline constexpr std::uint32_t kDelegationMaxThreads = 64;

/// Names one public server stamps on its spans, exploration points and
/// capacity diagnostics (static storage duration, like every span name).
struct ServerLabels {
  const char* cls;          ///< diagnostic prefix, e.g. "MpServer"
  const char* request;      ///< client span
  const char* pre_send;     ///< sync-issue exploration point
  const char* async_issue;  ///< async-issue exploration point
  const char* reap;         ///< wait()/wait_all() exploration point
  const char* serve;        ///< serve-loop exploration point
  const char* cs;           ///< server-side CS span
};

/// Hardware message passing: requests land in the server thread's receive
/// buffer, replies in the client's. Sync replies are 1 word, async replies
/// the 2-word {kAsyncReplyMark | tag, ret} pair (cs.hpp).
template <class Ctx>
class UdnWire {
 public:
  explicit UdnWire(Tid server) : server_(server) {}
  Tid server() const { return server_; }

  void attach(Ctx&, Tid) {}
  void send(Ctx& ctx, std::uint64_t id, std::uint64_t fn, std::uint64_t arg) {
    ctx.send(server_, {id, fn, arg});
  }
  std::uint64_t receive_sync(Ctx& ctx, Tid) { return ctx.receive1(); }
  void receive_tagged(Ctx& ctx, Tid, std::uint64_t m[2]) {
    ctx.receive_async(m, 2);
  }
  bool reply_ready(Ctx& ctx, Tid) { return !ctx.queue_empty(); }

  void receive_request(Ctx& ctx, std::uint64_t m[3]) { ctx.receive(m, 3); }
  void reply(Ctx& ctx, std::uint64_t id, std::uint64_t ret) {
    reply_to(ctx, id, ret);
  }

 private:
  Tid server_;
};

/// The fn word is a CsFn pointer applied to the server's one object.
template <class Ctx>
class FnDispatch {
 public:
  using Op = CsFn<Ctx>;
  explicit FnDispatch(void* obj) : obj_(obj) {}
  void* object() const { return obj_; }

  std::uint64_t encode(Op fn, const char*, const char*) const {
    return rt::to_word(fn);
  }
  std::uint64_t run(Ctx& ctx, std::uint64_t w, std::uint64_t arg) const {
    return rt::from_word<std::remove_pointer_t<Op>>(w)(ctx, obj_, arg);
  }

 private:
  void* obj_;
};

/// The fn word is an opcode from add_op(): 1-based, since 0 is kStopWord.
template <class Ctx>
class OpcodeDispatch {
 public:
  using Op = std::uint64_t;

  std::uint64_t add(CsFn<Ctx> fn, void* obj) {
    ops_.push_back(Entry{fn, obj});
    return ops_.size();
  }
  std::size_t size() const { return ops_.size(); }

  /// Hard check, not an assert: an unregistered opcode would index past the
  /// table in serve(), and opcode 0 would silently stop the server.
  std::uint64_t encode(Op opcode, const char* cls, const char* method) const {
    if (opcode == 0 || opcode > ops_.size()) [[unlikely]] {
      std::fprintf(stderr,
                   "hmps fatal: %s::%s: opcode %llu is not registered "
                   "(add_op issued 1..%zu; 0 is the stop word)\n",
                   cls, method, static_cast<unsigned long long>(opcode),
                   ops_.size());
      std::abort();
    }
    return opcode;
  }
  std::uint64_t run(Ctx& ctx, std::uint64_t w, std::uint64_t arg) const {
    const Entry& e = ops_[w - 1];
    return e.fn(ctx, e.obj, arg);
  }

 private:
  struct Entry {
    CsFn<Ctx> fn;
    void* obj;
  };
  std::vector<Entry> ops_;
};

template <class Ctx, class Wire, class Dispatch>
class DelegationServer {
 public:
  using Fn = CsFn<Ctx>;
  using Op = typename Dispatch::Op;

  static constexpr std::uint32_t kMaxThreads = kDelegationMaxThreads;

  /// `max_inflight` > 0 enables the Section 6 overflow guard: at most that
  /// many requests in flight across all clients (credit taken before the
  /// send, returned when the reply reaches the client), so the server's
  /// buffer never holds more than 4 * max_inflight words. 0 = no guard.
  DelegationServer(const ServerLabels& labels, Wire wire, Dispatch dispatch,
                   std::uint64_t max_inflight)
      : labels_(labels),
        wire_(std::move(wire)),
        dispatch_(std::move(dispatch)),
        max_inflight_(max_inflight) {}

  /// Client side: executes `op` in mutual exclusion on the server and
  /// returns its result (never from a serving thread). With tickets
  /// outstanding it takes the async path, since a sync reply would misframe
  /// behind the pending tagged replies (docs/MODEL.md §9).
  std::uint64_t apply(Ctx& ctx, Op op, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, labels_.cls, "apply");
    const std::uint64_t fn = dispatch_.encode(op, labels_.cls, "apply");
    if (async_[tid].outstanding > 0) {
      Ticket t = apply_async(ctx, op, arg);
      return wait(ctx, t);
    }
    wire_.attach(ctx, tid);
    obs::Span<Ctx> span(ctx, labels_.request);
    explore_point(ctx, labels_.pre_send);
    if (max_inflight_ != 0) {
      acquire_credit(ctx, inflight_, max_inflight_, stats_[tid].s);
    }
    wire_.send(ctx, tid, fn, arg);
    const std::uint64_t ret = wire_.receive_sync(ctx, tid);
    if (max_inflight_ != 0) release_credit(ctx, inflight_);
    return ret;
  }

  /// Issues `op` without blocking on the reply: the request is tagged and
  /// the matching reply is claimed later by wait() / wait_all() on this
  /// thread. A pending ticket holds its credit until the reply reaches this
  /// client (docs/MODEL.md §9).
  Ticket apply_async(Ctx& ctx, Op op, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, labels_.cls, "apply_async");
    const std::uint64_t fn = dispatch_.encode(op, labels_.cls, "apply_async");
    wire_.attach(ctx, tid);
    SyncStats& st = stats_[tid].s;
    AsyncTags& a = async_[tid];
    obs::Span<Ctx> span(ctx, labels_.request);
    explore_point(ctx, labels_.async_issue);
    if (max_inflight_ != 0) {
      // Drain replies that already arrived for this thread's own tickets
      // while spinning: each one releases a credit.
      acquire_credit(ctx, inflight_, max_inflight_, st, [&] {
        if (a.outstanding > 0 && wire_.reply_ready(ctx, tid)) {
          std::uint64_t val;
          const std::uint64_t got = pop_reply(ctx, tid, &val);
          ctx.stage_reply(got, val);
        } else {
          ctx.cpu_relax();
        }
      });
    }
    const std::uint64_t tag = a.next_tag;
    a.advance();
    wire_.send(ctx, pack_request_id(tid, tag), fn, arg);
    ++st.async_issued;
    ++a.outstanding;
    return Ticket{tag, 0, 0, ctx.now()};
  }

  /// Reaps one ticket, returning its CS result (issuing thread only).
  /// Replies for other tickets arriving first are staged in the context for
  /// their own wait() (a vlink server pool may also complete out of order).
  std::uint64_t wait(Ctx& ctx, Ticket& t) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, labels_.cls, "wait");
    if (t.tag == 0) return t.value;  // completed inline
    explore_point(ctx, labels_.reap);
    --async_[tid].outstanding;
    return reap_ticket(ctx, t, [&](std::uint64_t* val) {
      return pop_reply(ctx, tid, val);
    });
  }

  /// Reaps every outstanding ticket of the calling thread, discarding the
  /// results (use wait() per ticket when the values matter).
  void wait_all(Ctx& ctx) {
    const Tid tid = ctx.tid();
    check_tid(tid, kMaxThreads, labels_.cls, "wait_all");
    AsyncTags& a = async_[tid];
    explore_point(ctx, labels_.reap);
    std::uint64_t tag, val;
    for (; a.outstanding > 0; --a.outstanding) {
      if (!ctx.take_any_staged_reply(&tag, &val)) pop_reply(ctx, tid, &val);
    }
  }

  /// Server side: serves requests until a stop request arrives (see
  /// request_stop). Runs forever under open-ended simulation windows.
  void serve(Ctx& ctx) {
    check_tid(ctx.tid(), kMaxThreads, labels_.cls, "serve");
    SyncStats& st = stats_[ctx.tid()].s;
    for (;;) {
      explore_point(ctx, labels_.serve);
      std::uint64_t m[3];
      wire_.receive_request(ctx, m);
      if (m[1] == kStopWord) return;
      // CS + reply phase on the server's critical path.
      obs::Span<Ctx> cs(ctx, labels_.cs);
      wire_.reply(ctx, m[0], dispatch_.run(ctx, m[1], m[2]));
      ++st.served;
    }
  }

  /// Asks one serving thread to exit. Requests queued ahead of the stop
  /// message are served first (FIFO).
  void request_stop(Ctx& ctx) { wire_.send(ctx, 0, kStopWord, 0); }

  SyncStats& stats(Tid t) {
    check_tid(t, kMaxThreads, labels_.cls, "stats");
    return stats_[t].s;
  }

  /// Requests currently holding an overflow-guard credit (0 when the guard
  /// is off). Telemetry gauge — a plain snapshot read, never synchronizing.
  std::uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 protected:
  const Wire& wire() const { return wire_; }
  Dispatch& dispatch() { return dispatch_; }
  const Dispatch& dispatch() const { return dispatch_; }

 private:
  /// Pops one tagged reply for `tid` and returns its credit; returns the
  /// tag, the CS result in `*val`.
  std::uint64_t pop_reply(Ctx& ctx, Tid tid, std::uint64_t* val) {
    std::uint64_t m[2];
    wire_.receive_tagged(ctx, tid, m);
    if (max_inflight_ != 0) release_credit(ctx, inflight_);
    *val = m[1];
    return reply_tag(m[0]);
  }

  ServerLabels labels_;
  Wire wire_;
  Dispatch dispatch_;
  std::uint64_t max_inflight_;
  alignas(rt::kCacheLine) Word inflight_{0};
  PaddedStats stats_[kMaxThreads];
  AsyncTags async_[kMaxThreads];
};

/// MP-SERVER: one object behind one server thread over the UDN.
template <class Ctx>
class MpServer : public DelegationServer<Ctx, UdnWire<Ctx>, FnDispatch<Ctx>> {
 public:
  /// `server_tid`: the thread that will run serve(); `obj`: the concurrent
  /// object whose CSes this instance executes.
  MpServer(Tid server_tid, void* obj, std::uint64_t max_inflight = 0)
      : MpServer::DelegationServer(
            ServerLabels{"MpServer", "mp.request", "mp.pre_send",
                         "mp.async_issue", "mp.reap", "mp.serve", "mp.cs"},
            UdnWire<Ctx>(server_tid), FnDispatch<Ctx>(obj), max_inflight) {}

  Tid server_tid() const { return this->wire().server(); }
  void* object() const { return this->dispatch().object(); }
};

/// MP-SERVER-HUB: one server core serving MANY objects through the paper's
/// Section 5.2 opcode interface, for the intro's case of "a large number of
/// potentially contended concurrent objects": k objects share one core,
/// trading per-object throughput for core economy
/// (bench/abl_server_consolidation). One buffer, so one credit pool.
template <class Ctx>
class MpServerHub
    : public DelegationServer<Ctx, UdnWire<Ctx>, OpcodeDispatch<Ctx>> {
 public:
  explicit MpServerHub(Tid server_tid, std::uint64_t max_inflight = 0)
      : MpServerHub::DelegationServer(
            ServerLabels{"MpServerHub", "hub.request", "hub.pre_send",
                         "hub.async_issue", "hub.reap", "hub.serve",
                         "hub.cs"},
            UdnWire<Ctx>(server_tid), OpcodeDispatch<Ctx>(), max_inflight) {}

  /// Registers a CS body bound to an object; returns its opcode. All
  /// registrations must happen before serve() starts.
  std::uint64_t add_op(CsFn<Ctx> fn, void* obj) {
    return this->dispatch().add(fn, obj);
  }

  Tid server_tid() const { return this->wire().server(); }
  std::size_t op_count() const { return this->dispatch().size(); }
};

}  // namespace hmps::sync
