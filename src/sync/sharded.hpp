// Sharded delegation (docs/SHARDING.md): a fleet of MP-SERVER instances,
// each owning a disjoint partition of a dense object-id space, behind one
// client-side routing layer.
//
// The paper stops at a single server on a 36-core mesh; this construction
// is the scale-out step. Shard s runs on thread s (tids [0, shards) by
// convention, one serve() fiber each); every object id is homed on exactly
// one shard by rendezvous hashing (shard_of below), and clients resolve
// object -> shard locally before sending the usual 3-word request. The
// async ticket API (docs/MODEL.md §9) is extended so one client can keep
// operations in flight against several shards at once: the 31-bit reply tag
// carries the shard id in its top bits, which lets the reply demux release
// the right shard's in-flight credit no matter the arrival order.
//
// Cross-shard operations use two-phase delegation. queue_transfer(src, dst)
// between queues homed on different shards: shard A dequeues locally,
// forwards the element as a delegated enqueue to shard B over a
// server-to-server frame (bit 63 of the first word marks it — client
// request words never set it), and replies to the client only after B's
// ack. The client-observed linearization bracket is documented in
// docs/MODEL.md §10.
//
// Capacity scoping: every per-thread array here is indexed by *client slot*
// (tid - shards), and stats / in-flight credits are kept per shard — so a
// fleet of 2 shards serving 64 clients (66 threads) stays inside the fixed
// kMaxClients capacity instead of tripping the check_tid abort that a
// single global tid-indexed construction would hit.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "obs/span.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"

namespace hmps::sync {

/// Rendezvous (highest-random-weight) shard of a dense object id. Pure
/// function of (obj, shards); adding a shard relocates ~1/shards of the
/// objects.
std::uint32_t shard_of(std::uint64_t obj, std::uint32_t shards);

/// Precomputed shard_of for ids [0, n_objects).
std::vector<std::uint32_t> shard_route_table(std::uint64_t n_objects,
                                             std::uint32_t shards);

/// Objects homed per shard over ids [0, n_objects).
std::vector<std::uint64_t> shard_load_counts(std::uint64_t n_objects,
                                             std::uint32_t shards);

/// max(load) / mean(load) over ids [0, n_objects) — the balance figure the
/// tests bound (<= 1.25 at 1k objects).
double shard_load_max_over_mean(std::uint64_t n_objects,
                                std::uint32_t shards);

/// Returned by queue_transfer when the source queue was empty.
inline constexpr std::uint64_t kTransferEmpty = ~std::uint64_t{0};

/// Distinguished fn word of a transfer request (odd: never a valid
/// function pointer; kStopWord is 0).
inline constexpr std::uint64_t kTransferWord = 3;

template <class Ctx>
class ShardedServer {
 public:
  using Fn = CsFn<Ctx>;

  static constexpr std::uint32_t kMaxShards = 32;
  static constexpr std::uint32_t kMaxClients = 64;

  // Tag layout: [30:26] shard, [25:0] per-(client, shard) sequence number
  // in [1, 2^26) (nonzero, wrapping). Still fits kAsyncTagMask.
  static constexpr std::uint64_t kSeqBits = 26;
  static constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kSeqBits) - 1;

  /// Queue hooks for cross-shard transfers: both are farm CS bodies taking
  /// the packed (obj << 32 | arg) argument convention (pack_obj_arg).
  /// `deq` returns the dequeued value or ds::kQEmpty; transferred values
  /// must fit in 32 bits (they travel in the low half of a forward frame).
  struct TransferHooks {
    Fn deq = nullptr;
    Fn enq = nullptr;
  };

  /// `shards` serve() fibers run on tids [0, shards); clients are the tids
  /// after them (slot = tid - shards, at most kMaxClients). `farm` is the
  /// shared object farm every CS body receives; partitioning is purely by
  /// the object id packed into the argument, so a farm whose per-object
  /// state lives on distinct cache lines is only ever touched by its home
  /// shard. `max_inflight` > 0 bounds outstanding requests *per shard*
  /// (the Section 6 overflow guard, scoped to each shard's buffer).
  ShardedServer(std::uint32_t shards, void* farm, std::uint64_t n_objects,
                std::uint64_t max_inflight = 0, TransferHooks hooks = {})
      : shards_(shards == 0 ? 1 : shards),
        obj_(farm),
        max_inflight_(max_inflight),
        hooks_(hooks),
        route_(shard_route_table(n_objects, shards_)) {
    // Hard bound, not an assert: shard ids are packed into tag bits
    // [30:26], so a 33rd shard would spill into the async reply mark and
    // silently collide credits in release builds. Same failure contract as
    // check_tid (docs/SHARDING.md).
    if (shards_ > kMaxShards) [[unlikely]] {
      std::fprintf(stderr,
                   "hmps fatal: ShardedServer: %u shards exceed the %u-shard "
                   "tag field (shard << 26 packing)\n",
                   static_cast<unsigned>(shards_),
                   static_cast<unsigned>(kMaxShards));
      std::abort();
    }
    for (auto& p : pending_) p.reserve(8);
  }

  std::uint32_t shards() const { return shards_; }
  void* object() const { return obj_; }
  Tid server_tid(std::uint32_t shard) const { return shard; }

  /// Home shard of an object id (precomputed for ids < n_objects).
  std::uint32_t shard_home(std::uint64_t obj) const {
    return obj < route_.size() ? route_[obj]
                               : shard_of(obj, shards_);
  }

  /// The wire argument convention of every farm CS body: object id in the
  /// high half, the operation's own 32-bit argument in the low half.
  static constexpr std::uint64_t pack_obj_arg(std::uint64_t obj,
                                              std::uint64_t arg) {
    return (obj << 32) | (arg & 0xFFFFFFFFu);
  }

  /// Executes `fn(farm, pack_obj_arg(obj, arg))` on the object's home
  /// shard and returns the result.
  std::uint64_t apply(Ctx& ctx, Fn fn, std::uint64_t obj, std::uint64_t arg) {
    return call(ctx, "ShardedServer::apply", obj, rt::to_word(fn),
                pack_obj_arg(obj, arg));
  }

  /// Issues `fn` on the object's home shard without blocking; the ticket's
  /// tag embeds the shard so wait() can release the right credit. One
  /// client may hold tickets against several shards simultaneously.
  Ticket apply_async(Ctx& ctx, Fn fn, std::uint64_t obj, std::uint64_t arg) {
    const std::uint32_t slot = client_slot(ctx, "ShardedServer::apply_async");
    const std::uint32_t s = route_resolve(ctx, obj);
    return issue_async(ctx, slot, s, rt::to_word(fn), pack_obj_arg(obj, arg));
  }

  /// Moves the head element of queue object `src` to the tail of queue
  /// object `dst` (TransferHooks required). Returns the moved value, or
  /// kTransferEmpty if `src` was empty. Linearization bracket:
  /// docs/MODEL.md §10.
  std::uint64_t queue_transfer(Ctx& ctx, std::uint64_t src, std::uint64_t dst) {
    return call(ctx, "ShardedServer::queue_transfer", src, kTransferWord,
                pack_obj_arg(src, dst));
  }

  /// Async queue_transfer; reap with wait().
  Ticket transfer_async(Ctx& ctx, std::uint64_t src, std::uint64_t dst) {
    const std::uint32_t slot =
        client_slot(ctx, "ShardedServer::transfer_async");
    const std::uint32_t s = route_resolve(ctx, src);
    return issue_async(ctx, slot, s, kTransferWord, pack_obj_arg(src, dst));
  }

  /// Reaps one ticket (issuing thread only). Replies for other outstanding
  /// tickets — possibly from other shards — are staged for their own
  /// wait().
  std::uint64_t wait(Ctx& ctx, Ticket& t) {
    const std::uint32_t slot = client_slot(ctx, "ShardedServer::wait");
    ClientSt& c = clients_[slot];
    if (t.tag == 0) return t.value;  // completed inline
    explore_point(ctx, "shard.reap");
    complete(c, t.tag);
    return reap_ticket(ctx, t,
                       [&](std::uint64_t* val) { return pop_reply(ctx, val); });
  }

  /// Reaps every outstanding ticket of the calling thread across all
  /// shards, discarding results.
  void wait_all(Ctx& ctx) {
    const std::uint32_t slot = client_slot(ctx, "ShardedServer::wait_all");
    ClientSt& c = clients_[slot];
    explore_point(ctx, "shard.reap");
    std::uint64_t tag, val;
    while (c.total_outstanding > 0) {
      if (!ctx.take_any_staged_reply(&tag, &val)) tag = pop_reply(ctx, &val);
      complete(c, tag);
    }
  }

  /// Shard server loop; run on thread `shard` (== its tid). Demuxes three
  /// frame kinds by the first word: server-to-server forwards/acks (bit 63
  /// set), the stop word, and client requests. Exits on stop.
  void serve(Ctx& ctx, std::uint32_t shard) {
    assert(shard < shards_ && ctx.tid() == server_tid(shard));
    SyncStats& st = server_stats_[shard].s;
    for (;;) {
      explore_point(ctx, "shard.serve");
      std::uint64_t m[3];
      ctx.receive(m, 3);
      if ((m[0] & kSrvMark) != 0) {
        serve_peer_frame(ctx, shard, st, m);
        continue;
      }
      if (m[1] == kStopWord) {
        assert(live_pending_[shard] == 0 &&
               "stop with cross-shard transfers still pending");
        return;
      }
      if (m[1] == kTransferWord) {
        serve_transfer(ctx, shard, st, m);
        continue;
      }
      obs::Span<Ctx> cs(ctx, "shard.cs");
      Fn fn = rt::from_word<std::remove_pointer_t<Fn>>(m[1]);
      const std::uint64_t ret = fn(ctx, obj_, m[2]);
      reply_to(ctx, m[0], ret);
      ++st.served;
    }
  }

  /// Stops every shard's serve loop. Call only after all client operations
  /// have completed (FIFO per channel keeps earlier requests ahead of the
  /// stop; cross-shard pendings must have drained, which completion of all
  /// client transfers guarantees).
  void request_stop(Ctx& ctx) {
    for (std::uint32_t s = 0; s < shards_; ++s) {
      ctx.send(server_tid(s), {0, kStopWord, 0});
    }
  }

  /// Per-thread stats slot: server tids map to their shard's server-side
  /// counters, later tids to the owning client slot.
  SyncStats& stats(Tid t) {
    if (t < shards_) return server_stats_[t].s;
    const Tid slot = t - shards_;
    check_tid(slot, kMaxClients, "ShardedServer::stats");
    return client_stats_[slot].s;
  }

  /// Requests currently holding shard `s`'s overflow-guard credit.
  std::uint64_t inflight(std::uint32_t s) const {
    return inflight_[s].v.load(std::memory_order_relaxed);
  }

  /// Sum over shards (telemetry gauge).
  std::uint64_t inflight_total() const {
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < shards_; ++s) sum += inflight(s);
    return sum;
  }

  /// Test hook: jumps a client's next tag sequence for shard `s` so the
  /// 26-bit wraparound boundary is reachable without 2^26 real operations
  /// (tests/test_sharded.cpp). Not for production use.
  void debug_set_seq(std::uint32_t client_slot, std::uint32_t s,
                     std::uint64_t seq) {
    clients_[client_slot].seq[s] = seq;
  }

 private:
  // Server-to-server frame layout (first word):
  //   bit 63          kSrvMark (client request words never set it)
  //   bit 62          kSrvAck: ack of a forwarded enqueue
  //   bits [16, 22)   source shard (forwards only)
  //   bits [0, 16)    pending-table slot on the source shard
  static constexpr std::uint64_t kSrvMark = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kSrvAck = std::uint64_t{1} << 62;

  struct alignas(rt::kCacheLine) PaddedWord {
    Word v{0};
  };
  struct alignas(rt::kCacheLine) ClientSt {
    std::uint64_t seq[kMaxShards] = {};     ///< next tag sequence, per shard
    std::uint32_t out[kMaxShards] = {};     ///< outstanding, per shard
    std::uint32_t total_outstanding = 0;
  };
  /// A transfer parked at its source shard, waiting for the destination
  /// shard's ack.
  struct Pending {
    std::uint64_t client_id = 0;  ///< first request word (tid | tag<<32)
    std::uint64_t value = 0;      ///< the element in flight
    bool live = false;
  };

  static constexpr std::uint32_t tag_shard(std::uint64_t tag) {
    return static_cast<std::uint32_t>(tag >> kSeqBits);
  }

  std::uint32_t client_slot(Ctx& ctx, const char* who) const {
    const Tid tid = ctx.tid();
    assert(tid >= shards_ && "client call from a server tid");
    const Tid slot = tid - shards_;
    check_tid(slot, kMaxClients, who);
    return slot;
  }

  /// Object -> shard on the client's critical path: one table lookup.
  std::uint32_t route_resolve(Ctx& ctx, std::uint64_t obj) {
    explore_point(ctx, "shard.route");
    ctx.compute(1);
    return shard_home(obj);
  }

  /// Synchronous request to the home shard of object `home`. Routed
  /// through the async path when this client has tickets outstanding (a
  /// bare 1-word reply would misframe behind pending tagged pairs,
  /// docs/MODEL.md §9).
  std::uint64_t call(Ctx& ctx, const char* who, std::uint64_t home,
                     std::uint64_t fn_word, std::uint64_t arg) {
    const std::uint32_t slot = client_slot(ctx, who);
    if (clients_[slot].total_outstanding > 0) {
      Ticket t = issue_async(ctx, slot, route_resolve(ctx, home), fn_word, arg);
      return wait(ctx, t);
    }
    obs::Span<Ctx> span(ctx, "shard.request");
    const std::uint32_t s = route_resolve(ctx, home);
    SyncStats& st = client_stats_[slot].s;
    if (max_inflight_ != 0) {
      acquire_credit(ctx, inflight_[s].v, max_inflight_, st);
    }
    ctx.send(server_tid(s), {ctx.tid(), fn_word, arg});
    const std::uint64_t ret = ctx.receive1();
    if (max_inflight_ != 0) release_credit(ctx, inflight_[s].v);
    ++st.ops;
    return ret;
  }

  Ticket issue_async(Ctx& ctx, std::uint32_t slot, std::uint32_t s,
                     std::uint64_t fn_word, std::uint64_t arg) {
    ClientSt& c = clients_[slot];
    SyncStats& st = client_stats_[slot].s;
    obs::Span<Ctx> span(ctx, "shard.request");
    explore_point(ctx, "shard.async_issue");
    if (max_inflight_ != 0) acquire_credit_draining(ctx, st, c, s);
    std::uint64_t seq = c.seq[s];
    if (seq == 0 || seq > kSeqMask) [[unlikely]] {
      // The 26-bit sequence wraps back to 1. Recycling tags while tickets
      // from the previous epoch are still outstanding on this shard would
      // alias a live tag (wait() would complete the wrong ticket and
      // release the wrong credit); die with a diagnosis instead of
      // silently colliding.
      if (seq != 0 && c.out[s] != 0) {
        std::fprintf(stderr,
                     "hmps fatal: ShardedServer: tag sequence for shard %u "
                     "wrapped past 2^26 with %u tickets outstanding — "
                     "recycled tags would collide\n",
                     static_cast<unsigned>(s),
                     static_cast<unsigned>(c.out[s]));
        std::abort();
      }
      seq = 1;
    }
    c.seq[s] = seq + 1;
    const std::uint64_t tag = (static_cast<std::uint64_t>(s) << kSeqBits) | seq;
    ctx.send(server_tid(s), {pack_request_id(ctx.tid(), tag), fn_word, arg});
    ++st.async_issued;
    ++st.ops;
    ++c.out[s];
    ++c.total_outstanding;
    return Ticket{tag, 0, 0, ctx.now()};
  }

  void complete(ClientSt& c, std::uint64_t tag) {
    const std::uint32_t s = tag_shard(tag);
    --c.out[s];
    --c.total_outstanding;
  }

  /// Transfer source half (shard A): dequeue locally; same-shard moves
  /// complete inline, cross-shard moves park in the pending table and
  /// forward the element to the destination shard.
  void serve_transfer(Ctx& ctx, std::uint32_t shard, SyncStats& st,
                      const std::uint64_t m[3]) {
    obs::Span<Ctx> cs(ctx, "shard.cs");
    const std::uint64_t src = m[2] >> 32;
    const std::uint64_t dst = m[2] & 0xFFFFFFFFu;
    const std::uint64_t v = hooks_.deq(ctx, obj_, pack_obj_arg(src, 0));
    if (v == kTransferEmpty) {  // ds::kQEmpty passes through unchanged
      reply_to(ctx, m[0], kTransferEmpty);
      ++st.served;
      return;
    }
    const std::uint32_t to = shard_home(dst);
    if (to == shard) {
      hooks_.enq(ctx, obj_, pack_obj_arg(dst, v));
      reply_to(ctx, m[0], v);
      ++st.served;
      return;
    }
    const std::uint32_t slot = park_pending(shard, m[0], v);
    explore_point(ctx, "shard.forward");
    ctx.send(server_tid(to),
             {kSrvMark | (static_cast<std::uint64_t>(shard) << 16) | slot,
              kTransferWord, pack_obj_arg(dst, v)});
    ++st.served;
  }

  /// Server-to-server frames: a forwarded enqueue (execute + ack back) or
  /// an ack (complete the parked transfer, reply to the client).
  void serve_peer_frame(Ctx& ctx, std::uint32_t shard, SyncStats& st,
                        const std::uint64_t m[3]) {
    const std::uint32_t slot = static_cast<std::uint32_t>(m[0] & 0xFFFF);
    if ((m[0] & kSrvAck) != 0) {
      explore_point(ctx, "shard.ack");
      Pending& p = pending_[shard][slot];
      assert(p.live);
      reply_to(ctx, p.client_id, p.value);
      p.live = false;
      free_pending_[shard].push_back(slot);
      --live_pending_[shard];
      return;
    }
    // Delegated enqueue from shard `from`.
    obs::Span<Ctx> cs(ctx, "shard.cs");
    const std::uint32_t from = static_cast<std::uint32_t>((m[0] >> 16) & 0x3F);
    hooks_.enq(ctx, obj_, m[2]);
    ++st.served;
    explore_point(ctx, "shard.ack");
    ctx.send(server_tid(from), {kSrvMark | kSrvAck | slot, 1, 0});
  }

  std::uint32_t park_pending(std::uint32_t shard, std::uint64_t client_id,
                             std::uint64_t value) {
    std::uint32_t slot;
    if (!free_pending_[shard].empty()) {
      slot = free_pending_[shard].back();
      free_pending_[shard].pop_back();
    } else {
      slot = static_cast<std::uint32_t>(pending_[shard].size());
      assert(slot < 0xFFFF);
      pending_[shard].push_back(Pending{});
    }
    pending_[shard][slot] = Pending{client_id, value, true};
    ++live_pending_[shard];
    return slot;
  }

  /// Pops one reply (any shard's) and returns its shard's credit; returns
  /// the tag, the CS result in `*val`.
  std::uint64_t pop_reply(Ctx& ctx, std::uint64_t* val) {
    std::uint64_t m[2];
    ctx.receive_async(m, 2);
    const std::uint64_t got = reply_tag(m[0]);
    if (max_inflight_ != 0) release_credit(ctx, inflight_[tag_shard(got)].v);
    *val = m[1];
    return got;
  }

  /// Async-issue credit acquire: drains already-arrived replies (any
  /// shard's) into the context stash while spinning, releasing their
  /// credits — without it a client whose unreaped tickets hold every credit
  /// of shard `s` would spin forever (docs/MODEL.md §9).
  void acquire_credit_draining(Ctx& ctx, SyncStats& st, ClientSt& c,
                               std::uint32_t s) {
    acquire_credit(ctx, inflight_[s].v, max_inflight_, st, [&] {
      if (c.total_outstanding > 0 && !ctx.queue_empty()) {
        std::uint64_t val;
        const std::uint64_t got = pop_reply(ctx, &val);
        ctx.stage_reply(got, val);
      } else {
        ctx.cpu_relax();
      }
    });
  }

  std::uint32_t shards_;
  void* obj_;
  std::uint64_t max_inflight_;
  TransferHooks hooks_;
  std::vector<std::uint32_t> route_;  ///< shard_of cache for dense ids

  PaddedWord inflight_[kMaxShards];          ///< per-shard credit scoping
  PaddedStats server_stats_[kMaxShards];
  PaddedStats client_stats_[kMaxClients];
  ClientSt clients_[kMaxClients];

  // Pending cross-shard transfers, per source shard. Touched only by that
  // shard's serve fiber.
  std::vector<Pending> pending_[kMaxShards];
  std::vector<std::uint32_t> free_pending_[kMaxShards];
  std::uint32_t live_pending_[kMaxShards] = {};
};

}  // namespace hmps::sync
