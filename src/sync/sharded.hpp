// Sharded delegation (docs/SHARDING.md): a fleet of MP-SERVER instances,
// each owning a disjoint partition of a dense object-id space, behind one
// client-side routing layer.
//
// The paper stops at a single server on a 36-core mesh; this construction
// is the scale-out step. Shard s runs on thread s (tids [0, shards) by
// convention, one serve() fiber each); every object id is homed on exactly
// one shard by rendezvous hashing (shard_of below), and clients resolve
// object -> shard locally before sending the usual 3-word request. The
// client is the delegation server's (sync/delegation_server.hpp) with
// ShardWire as its Wire: the wire routes each request by the object id in
// the argument's high half, and the template keeps one credit and one tag
// sequence per shard, with the shard id in the reply tag's top bits, so one
// client can keep tickets in flight against several shards at once.
//
// Cross-shard operations use two-phase delegation. queue_transfer(src, dst)
// between queues homed on different shards: shard A dequeues locally,
// forwards the element as a delegated enqueue to shard B over a
// server-to-server frame (bit 63 of the first word marks it — client
// request words never set it), and replies to the client only after B's
// ack. The client-observed linearization bracket is documented in
// docs/MODEL.md §10.
//
// Capacity scoping: per-client state is indexed by *client slot*
// (tid - shards) and in-flight credits are kept per shard, so a fleet of 2
// shards serving 64 clients (66 threads) stays inside the fixed kMaxClients
// capacity instead of tripping the check_tid abort that a single global
// tid-indexed construction would hit.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "obs/span.hpp"
#include "runtime/context.hpp"
#include "sync/cs.hpp"
#include "sync/delegation_server.hpp"

namespace hmps::sync {

/// Fleet size bound: shard ids ride in reply-tag bits [30:26].
inline constexpr std::uint32_t kMaxShards = 32;

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

/// The fleet's Wire: UDN transport to shard s on thread s, routed by the
/// object id in the argument's high half (ShardedServer::pack_obj_arg).
template <class Ctx>
class ShardWire : public UdnWire<Ctx> {
 public:
  static constexpr std::uint32_t kMaxServers = kMaxShards;
  static constexpr Tid kServerTids = kMaxShards;

  ShardWire(std::uint32_t shards, std::uint64_t n_objects)
      : UdnWire<Ctx>(0),
        shards_(checked(shards == 0 ? 1 : shards)),
        route_(shard_route_table(n_objects, shards_)) {}

  std::uint32_t servers() const { return shards_; }
  Tid first_client() const { return shards_; }

  /// Home shard of an object id (precomputed for ids < n_objects).
  std::uint32_t shard_home(std::uint64_t obj) const {
    return obj < route_.size() ? route_[obj] : shard_of(obj, shards_);
  }
  /// Object -> shard on the client's critical path: one table lookup. A
  /// sync request's pre-send point ("shard.route") is its routing point;
  /// an async one routes ahead of its issue span, at a point of its own.
  std::uint32_t home(Ctx& ctx, std::uint64_t arg) const {
    ctx.compute(1);
    return shard_home(arg >> 32);
  }
  std::uint32_t route(Ctx& ctx, std::uint64_t arg) const {
    explore_point(ctx, "shard.route");
    return home(ctx, arg);
  }
  void count_op(SyncStats& st) const { ++st.ops; }

 private:
  /// Hard bound, not an assert: shard ids are packed into tag bits
  /// [30:26], so a 33rd shard would spill into the async reply mark and
  /// silently collide credits in release builds. Same failure contract as
  /// check_tid (docs/SHARDING.md).
  static std::uint32_t checked(std::uint32_t shards) {
    if (shards > kMaxShards) [[unlikely]] {
      std::fprintf(stderr,
                   "hmps fatal: ShardedServer: %u shards exceed the %u-shard "
                   "tag field (shard << 26 packing)\n",
                   static_cast<unsigned>(shards),
                   static_cast<unsigned>(kMaxShards));
      std::abort();
    }
    return shards;
  }

  std::uint32_t shards_;
  std::vector<std::uint32_t> route_;  ///< shard_of cache for dense ids
};

template <class Ctx>
class ShardedServer
    : public DelegationServer<Ctx, ShardWire<Ctx>, FnDispatch<Ctx>> {
  using Base = DelegationServer<Ctx, ShardWire<Ctx>, FnDispatch<Ctx>>;

 public:
  using Fn = CsFn<Ctx>;

  static constexpr std::uint32_t kMaxShards = sync::kMaxShards;
  static constexpr std::uint32_t kMaxClients = Base::kMaxThreads;

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
      : Base(kLabels, ShardWire<Ctx>(shards, n_objects), FnDispatch<Ctx>(farm),
             max_inflight),
        hooks_(hooks) {
    for (auto& p : pending_) p.reserve(8);
  }

  std::uint32_t servers() const { return this->wire().servers(); }
  void* object() const { return this->dispatch().object(); }
  std::uint32_t shard_home(std::uint64_t obj) const {
    return this->wire().shard_home(obj);
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
    return Base::apply(ctx, fn, pack_obj_arg(obj, arg));
  }

  /// Issues `fn` on the object's home shard without blocking; reap with
  /// wait(). One client may hold tickets against several shards at once.
  Ticket apply_async(Ctx& ctx, Fn fn, std::uint64_t obj, std::uint64_t arg) {
    return Base::apply_async(ctx, fn, pack_obj_arg(obj, arg));
  }

  /// Moves the head element of queue object `src` to the tail of queue
  /// object `dst` (TransferHooks required). Returns the moved value, or
  /// kTransferEmpty if `src` was empty. Linearization bracket:
  /// docs/MODEL.md §10.
  std::uint64_t queue_transfer(Ctx& ctx, std::uint64_t src, std::uint64_t dst) {
    return this->call(ctx, this->client_slot(ctx, "queue_transfer"),
                      kTransferWord, pack_obj_arg(src, dst));
  }

  /// Async queue_transfer; reap with wait().
  Ticket transfer_async(Ctx& ctx, std::uint64_t src, std::uint64_t dst) {
    return this->issue(ctx, this->client_slot(ctx, "transfer_async"),
                       kTransferWord, pack_obj_arg(src, dst));
  }

  /// Shard server loop; run on thread `shard` (== its tid). Demuxes three
  /// frame kinds by the first word: server-to-server forwards/acks (bit 63
  /// set), the stop word, and client requests. Exits on stop.
  void serve(Ctx& ctx, std::uint32_t shard) {
    assert(shard < servers() && ctx.tid() == shard);
    SyncStats& st = this->stats(shard);
    for (;;) {
      explore_point(ctx, kLabels.serve);
      std::uint64_t m[3];
      ctx.receive(m, 3);
      if ((m[0] & kSrvMark) != 0) {
        serve_peer_frame(ctx, shard, st, m);
      } else if (m[1] == kStopWord) {
        assert(pending_[shard].size() == free_pending_[shard].size() &&
               "stop with cross-shard transfers still pending");
        return;
      } else if (m[1] == kTransferWord) {
        serve_transfer(ctx, shard, st, m);
      } else {
        this->run_request(ctx, st, m);
      }
    }
  }

 private:
  static constexpr ServerLabels kLabels{
      "ShardedServer", "shard.request", "shard.route", "shard.async_issue",
      "shard.reap",    "shard.serve",   "shard.cs"};

  // Server-to-server frame layout (first word):
  //   bit 63          kSrvMark (client request words never set it)
  //   bit 62          kSrvAck: ack of a forwarded enqueue
  //   bits [16, 22)   source shard (forwards only)
  //   bits [0, 16)    pending-table slot on the source shard
  static constexpr std::uint64_t kSrvMark = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kSrvAck = std::uint64_t{1} << 62;

  /// A transfer parked at its source shard, waiting for the destination
  /// shard's ack.
  struct Pending {
    std::uint64_t client_id = 0;  ///< first request word (tid | tag<<32)
    std::uint64_t value = 0;      ///< the element in flight
    bool live = false;
  };

  /// Transfer source half (shard A): dequeue locally; same-shard moves
  /// complete inline, cross-shard moves park in the pending table and
  /// forward the element to the destination shard.
  void serve_transfer(Ctx& ctx, std::uint32_t shard, SyncStats& st,
                      const std::uint64_t m[3]) {
    obs::Span<Ctx> cs(ctx, kLabels.cs);
    const std::uint64_t src = m[2] >> 32;
    const std::uint64_t dst = m[2] & 0xFFFFFFFFu;
    const std::uint64_t v = hooks_.deq(ctx, object(), pack_obj_arg(src, 0));
    // ds::kQEmpty == kTransferEmpty passes through as the reply.
    const std::uint32_t to = v == kTransferEmpty ? shard : shard_home(dst);
    if (to == shard) {
      if (v != kTransferEmpty) hooks_.enq(ctx, object(), pack_obj_arg(dst, v));
      reply_to(ctx, m[0], v);
    } else {
      const std::uint32_t slot = park_pending(shard, m[0], v);
      explore_point(ctx, "shard.forward");
      ctx.send(to, {kSrvMark | (static_cast<std::uint64_t>(shard) << 16) | slot,
                    kTransferWord, pack_obj_arg(dst, v)});
    }
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
      return;
    }
    // Delegated enqueue from shard `from`.
    obs::Span<Ctx> cs(ctx, kLabels.cs);
    const std::uint32_t from = static_cast<std::uint32_t>((m[0] >> 16) & 0x3F);
    hooks_.enq(ctx, object(), m[2]);
    ++st.served;
    explore_point(ctx, "shard.ack");
    ctx.send(from, {kSrvMark | kSrvAck | slot, 1, 0});
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
    return slot;
  }

  TransferHooks hooks_;
  // Pending cross-shard transfers, per source shard: the table and its
  // free slots (live = table size - free). Touched only by that shard's
  // serve fiber.
  std::vector<Pending> pending_[kMaxShards];
  std::vector<std::uint32_t> free_pending_[kMaxShards];
};

}  // namespace hmps::sync
