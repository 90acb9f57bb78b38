// VLINK-SERVER: the delegation server (sync/delegation_server.hpp) over a
// Virtual-Link MPMC channel (arch/vlink.hpp, docs/MODEL.md §12). Clients push
// 3-word requests into one shared MPMC channel anchored at the server's tile
// and pop 2-word replies, {kAsyncReplyMark | tag, ret} with tag 0 for a sync
// call, from their own reply channel. Because the request channel is
// many-to-many, a pool of servers can drain it concurrently — the UDN needs
// the hub/sharded machinery for that. Sim-only: the fabric is a simulator
// model, so this is never instantiated over NativeCtx.
#pragma once

#include <cstdint>

#include "arch/vlink.hpp"
#include "sync/delegation_server.hpp"

namespace hmps::sync {

template <class Ctx>
class VlinkWire : public OneServer<Ctx> {
 public:
  static constexpr std::uint32_t kNoChannel = ~std::uint32_t{0};
  /// Request-channel capacity in words (42 in-flight 3-word frames —
  /// matches the UDN buffer's order of magnitude so backpressure
  /// engages at comparable depth).
  static constexpr std::size_t kReqWords = 126;
  /// Reply channels hold a client's whole outstanding train (<= 16 tickets
  /// of 2 words) with room to spare.
  static constexpr std::size_t kReplyWords = 64;

  VlinkWire(arch::VlinkFabric& fab, Tid server_core)
      : fab_(fab), req_ch_(fab.create_channel(server_core, kReqWords)) {
    for (auto& r : reply_ch_) r = kNoChannel;
  }
  std::uint32_t request_channel() const { return req_ch_; }

  /// Lazily anchors the client's reply channel at its current core. First
  /// touch is deterministic (the simulation itself is), so channel ids —
  /// and therefore timing — replay identically for a given seed.
  void attach(Ctx& ctx, Tid tid) {
    if (reply_ch_[tid] == kNoChannel) {
      reply_ch_[tid] = fab_.create_channel(ctx.core(), kReplyWords);
    }
  }
  void send(Ctx& ctx, std::uint32_t, std::uint64_t id, std::uint64_t fn,
            std::uint64_t arg) {
    ctx.vlink_push(req_ch_, {id, fn, arg});
  }
  std::uint64_t receive_sync(Ctx& ctx, Tid tid) {
    std::uint64_t m[2];
    ctx.vlink_pop(reply_ch_[tid], m, 2);
    return m[1];
  }
  void receive_tagged(Ctx& ctx, Tid tid, std::uint64_t m[2]) {
    ctx.vlink_pop_async(reply_ch_[tid], m, 2);
  }
  bool reply_ready(Ctx& ctx, Tid tid) {
    return !ctx.vlink_empty(reply_ch_[tid]);
  }

  void receive_request(Ctx& ctx, std::uint64_t m[3]) {
    ctx.vlink_pop(req_ch_, m, 3);
  }
  void reply(Ctx& ctx, std::uint64_t id, std::uint64_t ret) {
    ctx.vlink_push(reply_ch_[request_tid(id)],
                   {kAsyncReplyMark | request_tag(id), ret});
  }

 private:
  arch::VlinkFabric& fab_;
  std::uint32_t req_ch_;
  std::uint32_t reply_ch_[kMaxThreads];
};

/// With a server pool, CS bodies run CONCURRENTLY across the serving
/// threads — unlike single-server delegation, a pool does not serialize the
/// object. Pool CS bodies must therefore be thread-safe (atomic RMWs,
/// disjoint state, a lock of their own); a plain load/store body loses
/// updates exactly as it would under direct concurrent access. Send one
/// request_stop() per serving thread (the pool shares one request channel,
/// so it is one server to the client: one credit pool, one tag sequence).
template <class Ctx>
class VlinkServer
    : public DelegationServer<Ctx, VlinkWire<Ctx>, FnDispatch<Ctx>> {
 public:
  /// `server_core`: home tile of the shared request channel (the tile the
  /// serving thread runs on; with a server pool, the first server's tile).
  VlinkServer(arch::VlinkFabric& fab, Tid server_core, void* obj,
              std::uint64_t max_inflight = 0)
      : VlinkServer::DelegationServer(
            kLabels, VlinkWire<Ctx>(fab, server_core),
            FnDispatch<Ctx>(obj), max_inflight) {}

  void* object() const { return this->dispatch().object(); }
  std::uint32_t request_channel() const {
    return this->wire().request_channel();
  }

 private:
  static constexpr ServerLabels kLabels{
      "VlinkServer", "vlink.request", "vlink.pre_send", "vlink.async_issue",
      "vlink.reap",  "vlink.serve",   "vlink.cs"};
};

}  // namespace hmps::sync
