// AsyncBatcher: client-side request coalescing over the async ticket API
// (docs/MODEL.md §9).
//
// Buffers up to `depth` operations per thread, then issues them as one
// train of back-to-back apply_async() sends before reaping the tickets.
// With a synchronous apply() a client pays a full request/response round
// trip per op; a train of depth d overlaps d requests in the server's
// hardware queue, so the per-op cost tends toward the server's service
// time — the same pipelining argument the paper makes for the server's
// asynchronous response send (Section 4.1), applied to the client side.
//
// Works with any construction exposing the ticket API: MpServer,
// VlinkServer, HybComb, ShmServer (Op = CsFn<Ctx>) and MpServerHub (Op =
// opcode). One batcher serves one (thread, server) pair; a thread must not
// interleave trains on two constructions (the reply stash is shared per
// context, MODEL.md §9).
//
// By default a train is issued when it fills. With `issue_on_add` each op
// is issued as it is added and the train is only reaped when full, which
// lets a sharded fleet's train overlap ops on several shards at once
// (docs/SHARDING.md).
#pragma once

#include <cstdint>

#include "sync/cs.hpp"

namespace hmps::sync {

template <class Ctx, class Server, class Op = typename Server::Fn>
class AsyncBatcher {
 public:
  /// Train depth cap: 16 three-word requests (48 words) fit comfortably in
  /// every UDN buffer configuration the harness generates, so a full train
  /// can never wedge an unguarded server on its own.
  static constexpr std::uint32_t kMaxDepth = 16;

  AsyncBatcher(Server& srv, std::uint32_t depth, bool issue_on_add = false)
      : srv_(srv),
        depth_(depth < 1 ? 1 : (depth > kMaxDepth ? kMaxDepth : depth)),
        issue_on_add_(issue_on_add) {}

  std::uint32_t depth() const { return depth_; }
  std::uint32_t buffered() const { return n_; }

  /// Buffers one operation; when the train reaches the configured depth it
  /// is issued and reaped in place. Returns the number of operations
  /// completed by this call: 0 while buffering, the train length when a
  /// train completes. Depth 1 degenerates to wait(apply_async(...)).
  std::uint64_t add(Ctx& ctx, Op op, std::uint64_t arg) {
    if (issue_on_add_) {
      t_[n_] = srv_.apply_async(ctx, op, arg);
    } else {
      ops_[n_] = op;
      args_[n_] = arg;
    }
    ++n_;
    if (n_ < depth_) return 0;
    return round(ctx, /*flush=*/false);
  }

  /// Issues and reaps whatever is buffered (a possibly short train);
  /// returns the number of operations completed. Call before reading
  /// workload state that buffered operations must have reached.
  std::uint64_t drain(Ctx& ctx) { return round(ctx, /*flush=*/false); }

  /// Explicit partial-train flush for session teardown and open-loop lulls
  /// (docs/SERVICE.md): without it a partially filled batch strands its
  /// buffered operations until the next arrival tops the train up — which
  /// in an open-loop lull may be arbitrarily far away, so the queued ops'
  /// sojourn time grows without bound. Unlike drain(), every flushed op is
  /// counted in SyncStats::async_batched (a short train is still a train:
  /// the ops completed through the batching path, and the accounting must
  /// not lose them just because the train was cut short).
  std::uint64_t flush(Ctx& ctx) { return round(ctx, /*flush=*/true); }

  /// CS result of the most recently completed operation (the last op of
  /// the last train).
  std::uint64_t last_result() const { return last_; }

  /// Completion stamp of the last train's final ticket (docs/SERVICE.md).
  Cycle last_completed() const { return last_completed_; }

 private:
  std::uint64_t round(Ctx& ctx, bool flush) {
    const std::uint32_t n = n_;
    if (n == 0) return 0;
    n_ = 0;
    if (!issue_on_add_) {
      for (std::uint32_t i = 0; i < n; ++i) {
        t_[i] = srv_.apply_async(ctx, ops_[i], args_[i]);
      }
    }
    if (flush || n >= 2) srv_.stats(ctx.tid()).async_batched += n;
    for (std::uint32_t i = 0; i < n; ++i) {
      last_ = srv_.wait(ctx, t_[i]);
    }
    last_completed_ = t_[n - 1].completed;
    return n;
  }

  Server& srv_;
  std::uint32_t depth_;
  bool issue_on_add_;
  std::uint32_t n_ = 0;
  Op ops_[kMaxDepth] = {};
  std::uint64_t args_[kMaxDepth] = {};
  Ticket t_[kMaxDepth];
  std::uint64_t last_ = 0;
  Cycle last_completed_ = 0;
};

}  // namespace hmps::sync
