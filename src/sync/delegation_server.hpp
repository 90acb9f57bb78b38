// The delegation server of paper Section 4.1 (MP-SERVER): a dedicated
// server thread executes every critical section of its objects. Clients send
// a 3-word request {sender_id, fn, arg} and block on the reply; the server's
// receive reads its local buffer and its send is asynchronous, so no
// coherence stall remains on its critical path (Fig. 2 of the paper).
//
// DelegationServer<Ctx, Wire, Dispatch> holds the only copy of that
// protocol's client, for one server or a fleet of them: sync apply, async
// tickets and their reap loop (docs/MODEL.md §9), the Section 6 credit
// guard (one credit pool per server), reply demux by the server index in
// the tag, and the single-server serve loop. Two policies vary:
//   Wire      moves and routes the words. UdnWire: hardware message
//             passing, 1-word sync replies, 2-word {kAsyncReplyMark | tag,
//             ret} async replies. VlinkWire (sync/vlink_server.hpp,
//             sim-only): every reply is 2 words, tag 0 = sync. Both route
//             every request to their one server (OneServer). ShardWire
//             (sync/sharded.hpp): UdnWire to a fleet, routed by the object
//             id in the argument. (HybComb, not a delegation server, pads
//             its async UDN replies to 3 words.)
//   Dispatch  decodes the fn word: FnDispatch calls a CsFn pointer (the
//             paper's Section 5.2 opcode optimization), OpcodeDispatch
//             indexes a table of registered (fn, obj) pairs.
// Four servers are thin subclasses that keep their constructors:
// MpServer = UdnWire + FnDispatch ("mp.*"), MpServerHub = UdnWire +
// OpcodeDispatch ("hub.*"), VlinkServer = VlinkWire + FnDispatch
// ("vlink.*") and ShardedServer = ShardWire + FnDispatch ("shard.*", with
// its own serve loop for cross-shard transfers). Dispatch is static
// throughout: nothing virtual sits on the per-message path.
#pragma once

#include <bit>
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

/// Routing of a wire with one server (one buffer or one shared request
/// channel): every request goes to server 0, whose tid is one of the
/// kMaxThreads client tids, and routing costs nothing.
template <class Ctx>
struct OneServer {
  static constexpr std::uint32_t kMaxServers = 1;
  static constexpr Tid kServerTids = 0;  ///< tids reserved ahead of clients

  std::uint32_t servers() const { return 1; }
  Tid first_client() const { return 0; }
  std::uint32_t home(Ctx&, std::uint64_t) const { return 0; }
  std::uint32_t route(Ctx&, std::uint64_t) const { return 0; }
  /// Single servers count no client ops yet (ROADMAP).
  void count_op(SyncStats&) const {}
};

/// Hardware message passing: requests land in server s's receive buffer
/// (thread `server + s`), replies in the client's. Sync replies are 1 word,
/// async replies the 2-word {kAsyncReplyMark | tag, ret} pair (cs.hpp).
template <class Ctx>
class UdnWire : public OneServer<Ctx> {
 public:
  explicit UdnWire(Tid server) : server_(server) {}
  Tid server() const { return server_; }

  void attach(Ctx&, Tid) {}
  void send(Ctx& ctx, std::uint32_t s, std::uint64_t id, std::uint64_t fn,
            std::uint64_t arg) {
    ctx.send(server_ + s, {id, fn, arg});
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

  /// Client slots (tid - first_client()) per server or fleet.
  static constexpr std::uint32_t kMaxThreads = sync::kMaxThreads;

  // Tag layout: the server index above kSeqBits, below it a per-(client,
  // server) sequence number in [1, 2^kSeqBits) (nonzero, wrapping). One
  // server keeps the whole 31-bit kAsyncTagMask; a 32-server fleet keeps
  // 26 bits.
  static constexpr std::uint64_t kSeqBits =
      31 - std::bit_width(Wire::kMaxServers - 1);
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

  /// `max_inflight` > 0 enables the Section 6 overflow guard: at most that
  /// many requests in flight per server across all clients (credit taken
  /// before the send, returned when the reply reaches the client), so a
  /// server's buffer never holds more than 4 * max_inflight words. 0 = no
  /// guard. `labels` must have static storage duration.
  DelegationServer(const ServerLabels& labels, Wire wire, Dispatch dispatch,
                   std::uint64_t max_inflight)
      : labels_(labels),
        wire_(std::move(wire)),
        dispatch_(std::move(dispatch)),
        max_inflight_(max_inflight) {}

  /// Client side: executes `op` in mutual exclusion on the server of `arg`
  /// and returns its result (never from a serving thread).
  std::uint64_t apply(Ctx& ctx, Op op, std::uint64_t arg) {
    const Tid slot = client_slot(ctx, "apply");
    return call(ctx, slot, dispatch_.encode(op, labels_.cls, "apply"), arg);
  }

  /// Issues `op` without blocking on the reply: the request is tagged and
  /// the matching reply is claimed later by wait() / wait_all() on this
  /// thread. A pending ticket holds its credit until the reply reaches this
  /// client (docs/MODEL.md §9).
  Ticket apply_async(Ctx& ctx, Op op, std::uint64_t arg) {
    const Tid slot = client_slot(ctx, "apply_async");
    return issue(ctx, slot, dispatch_.encode(op, labels_.cls, "apply_async"),
                 arg);
  }

  /// Reaps one ticket, returning its CS result (issuing thread only).
  /// Replies for other tickets arriving first (from any server, in any
  /// order) are staged in the context for their own wait().
  std::uint64_t wait(Ctx& ctx, Ticket& t) {
    const Tid slot = client_slot(ctx, "wait");
    if (t.tag == 0) return t.value;  // completed inline
    explore_point(ctx, labels_.reap);
    complete(clients_[slot], t.tag);
    return reap_ticket(ctx, t, [&](std::uint64_t* val) {
      return pop_reply(ctx, ctx.tid(), val);
    });
  }

  /// Reaps every outstanding ticket of the calling thread, discarding the
  /// results (use wait() per ticket when the values matter).
  void wait_all(Ctx& ctx) {
    Client& c = clients_[client_slot(ctx, "wait_all")];
    explore_point(ctx, labels_.reap);
    std::uint64_t tag, val;
    while (c.outstanding > 0) {
      if (!ctx.replies().take_any(&tag, &val)) {
        tag = pop_reply(ctx, ctx.tid(), &val);
      }
      complete(c, tag);
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
      run_request(ctx, st, m);
    }
  }

  /// Asks one serving thread of every server to exit. Requests queued ahead
  /// of the stop message are served first (FIFO).
  void request_stop(Ctx& ctx) {
    for (std::uint32_t s = 0; s < wire_.servers(); ++s) {
      wire_.send(ctx, s, 0, kStopWord, 0);
    }
  }

  /// Per-thread stats slot, by tid: server tids below first_client() (a
  /// fleet's shards) hold server-side counters.
  SyncStats& stats(Tid t) {
    check_tid(t, stat_slots(), labels_.cls, "stats");
    return stats_[t].s;
  }
  std::uint32_t stat_slots() const {
    return wire_.first_client() + kMaxThreads;
  }

  /// Requests currently holding an overflow-guard credit, summed over the
  /// servers (0 when the guard is off). Telemetry gauge — a plain snapshot
  /// read, never synchronizing.
  std::uint64_t inflight() const {
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < wire_.servers(); ++s) {
      sum += inflight_[s].v.load(std::memory_order_relaxed);
    }
    return sum;
  }

  /// Test hook: jumps a client slot's next tag sequence for server `s` so
  /// the wraparound boundary is reachable without 2^kSeqBits operations.
  void debug_set_seq(Tid slot, std::uint32_t s, std::uint64_t seq) {
    clients_[slot].seq[s] = seq;
  }

 protected:
  const Wire& wire() const { return wire_; }
  Dispatch& dispatch() { return dispatch_; }
  const Dispatch& dispatch() const { return dispatch_; }

  /// The calling client's slot; dies past kMaxThreads.
  Tid client_slot(Ctx& ctx, const char* method) const {
    const Tid slot = ctx.tid() - wire_.first_client();
    check_tid(slot, kMaxThreads, labels_.cls, method);
    return slot;
  }

  /// Synchronous request carrying an encoded fn word. With tickets
  /// outstanding it takes the async path, since a sync reply would misframe
  /// behind the pending tagged replies (docs/MODEL.md §9).
  std::uint64_t call(Ctx& ctx, Tid slot, std::uint64_t fn, std::uint64_t arg) {
    if (clients_[slot].outstanding > 0) {
      Ticket t = issue(ctx, slot, fn, arg);
      return wait(ctx, t);
    }
    const Tid tid = ctx.tid();
    wire_.attach(ctx, tid);
    obs::Span<Ctx> span(ctx, labels_.request);
    explore_point(ctx, labels_.pre_send);
    const std::uint32_t s = wire_.home(ctx, arg);
    SyncStats& st = stats_[tid].s;
    if (max_inflight_ != 0) {
      acquire_credit(ctx, inflight_[s].v, max_inflight_, st);
    }
    wire_.send(ctx, s, tid, fn, arg);
    const std::uint64_t ret = wire_.receive_sync(ctx, tid);
    if (max_inflight_ != 0) release_credit(ctx, inflight_[s].v);
    wire_.count_op(st);
    return ret;
  }

  /// Tagged request carrying an encoded fn word: the ticket's tag names its
  /// server, so pop_reply() releases the right credit in any arrival order.
  Ticket issue(Ctx& ctx, Tid slot, std::uint64_t fn, std::uint64_t arg) {
    const Tid tid = ctx.tid();
    const std::uint32_t s = wire_.route(ctx, arg);
    wire_.attach(ctx, tid);
    SyncStats& st = stats_[tid].s;
    Client& c = clients_[slot];
    obs::Span<Ctx> span(ctx, labels_.request);
    explore_point(ctx, labels_.async_issue);
    if (max_inflight_ != 0) {
      // Drain replies that already arrived for this thread's own tickets
      // while spinning: each one releases a credit.
      acquire_credit(ctx, inflight_[s].v, max_inflight_, st, [&] {
        if (c.outstanding > 0 && wire_.reply_ready(ctx, tid)) {
          std::uint64_t val;
          const std::uint64_t got = pop_reply(ctx, tid, &val);
          ctx.replies().stage(got, val);
        } else {
          ctx.cpu_relax();
        }
      });
    }
    const std::uint64_t tag = next_tag(c, s);
    wire_.send(ctx, s, pack_request_id(tid, tag), fn, arg);
    ++st.async_issued;
    wire_.count_op(st);
    ++c.out[s];
    ++c.outstanding;
    return Ticket{tag, 0, 0, ctx.now()};
  }

  /// Runs one request's CS and replies: the server's critical path.
  void run_request(Ctx& ctx, SyncStats& st, const std::uint64_t m[3]) {
    obs::Span<Ctx> cs(ctx, labels_.cs);
    wire_.reply(ctx, m[0], dispatch_.run(ctx, m[1], m[2]));
    ++st.served;
  }

 private:
  struct alignas(rt::kCacheLine) PaddedWord {
    Word v{0};
  };
  struct alignas(rt::kCacheLine) Client {
    std::uint64_t seq[Wire::kMaxServers] = {};  ///< next tag seq (0: fresh)
    std::uint32_t out[Wire::kMaxServers] = {};  ///< outstanding, per server
    std::uint32_t outstanding = 0;              ///< issued minus reaped
  };

  /// The next tag for server `s`. Recycling tags while tickets from the
  /// previous epoch are still outstanding on that server would alias a live
  /// tag (wait() would complete the wrong ticket and release the wrong
  /// credit), so a wrap with tickets out dies with a diagnosis instead.
  std::uint64_t next_tag(Client& c, std::uint32_t s) {
    std::uint64_t seq = c.seq[s];
    if (seq == 0 || seq > kSeqMask) [[unlikely]] {
      if (seq != 0 && c.out[s] != 0) {
        std::fprintf(stderr,
                     "hmps fatal: %s: tag sequence for server %u wrapped "
                     "past 2^%u with %u tickets outstanding — recycled tags "
                     "would collide\n",
                     labels_.cls, static_cast<unsigned>(s),
                     static_cast<unsigned>(kSeqBits),
                     static_cast<unsigned>(c.out[s]));
        std::abort();
      }
      seq = 1;
    }
    c.seq[s] = seq + 1;
    return (static_cast<std::uint64_t>(s) << kSeqBits) | seq;
  }

  static void complete(Client& c, std::uint64_t tag) {
    --c.out[tag >> kSeqBits];
    --c.outstanding;
  }

  /// Pops one tagged reply for `tid` and returns its server's credit;
  /// returns the tag, the CS result in `*val`.
  std::uint64_t pop_reply(Ctx& ctx, Tid tid, std::uint64_t* val) {
    std::uint64_t m[2];
    wire_.receive_tagged(ctx, tid, m);
    const std::uint64_t tag = reply_tag(m[0]);
    if (max_inflight_ != 0) release_credit(ctx, inflight_[tag >> kSeqBits].v);
    *val = m[1];
    return tag;
  }

  const ServerLabels& labels_;
  Wire wire_;
  Dispatch dispatch_;
  std::uint64_t max_inflight_;
  PaddedWord inflight_[Wire::kMaxServers];
  PaddedStats stats_[Wire::kServerTids + kMaxThreads];
  Client clients_[kMaxThreads];
};

/// MP-SERVER: one object behind one server thread over the UDN.
template <class Ctx>
class MpServer : public DelegationServer<Ctx, UdnWire<Ctx>, FnDispatch<Ctx>> {
 public:
  /// `server_tid`: the thread that will run serve(); `obj`: the concurrent
  /// object whose CSes this instance executes.
  MpServer(Tid server_tid, void* obj, std::uint64_t max_inflight = 0)
      : MpServer::DelegationServer(kLabels, UdnWire<Ctx>(server_tid),
                                   FnDispatch<Ctx>(obj), max_inflight) {}

  Tid server_tid() const { return this->wire().server(); }
  void* object() const { return this->dispatch().object(); }

 private:
  static constexpr ServerLabels kLabels{
      "MpServer", "mp.request", "mp.pre_send", "mp.async_issue",
      "mp.reap",  "mp.serve",   "mp.cs"};
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
      : MpServerHub::DelegationServer(kLabels, UdnWire<Ctx>(server_tid),
                                      OpcodeDispatch<Ctx>(), max_inflight) {}

  /// Registers a CS body bound to an object; returns its opcode. All
  /// registrations must happen before serve() starts.
  std::uint64_t add_op(CsFn<Ctx> fn, void* obj) {
    return this->dispatch().add(fn, obj);
  }

  Tid server_tid() const { return this->wire().server(); }
  std::size_t op_count() const { return this->dispatch().size(); }

 private:
  static constexpr ServerLabels kLabels{
      "MpServerHub", "hub.request", "hub.pre_send", "hub.async_issue",
      "hub.reap",    "hub.serve",   "hub.cs"};
};

}  // namespace hmps::sync
