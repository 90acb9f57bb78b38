// Virtual-Link-style MPMC channel fabric (docs/MODEL.md §12).
//
// A third transport next to the UDN and plain shared memory, modeled after
// the Virtual-Link line of work (PAPERS.md): a memory-mapped many-to-many
// channel anchored at a "home" tile. Producers push frames toward the home
// ring and consumers pull frames out of it; neither side ever bounces a
// cache line off the other, so the coherence ping-pong of a shared-memory
// queue disappears without dedicating a hardware receive buffer per thread
// the way the UDN does.
//
// Model shape (mirrors arch::UdnModel so the two transports are directly
// comparable):
//   * Each channel owns a fixed-capacity word ring at its home tile.
//     Capacity is enforced with credits: a push blocks while the channel
//     cannot absorb the whole frame (frames are never dropped).
//   * push() stages the payload immediately and schedules a commit event at
//     the arrival time: injection + per-word wire serialization at the
//     producer, the NoC traversal to the home tile (through the shared
//     NocModel when link contention is modeled, so vlink traffic heats the
//     same links and heatmaps as UDN traffic), then ingress-port
//     serialization at the home ring. The producer itself pays only the
//     injection cost — pushes are asynchronous.
//   * pop() is frame-atomic: a consumer takes all `n` words of a frame or
//     blocks; concurrent consumers never interleave words of one frame.
//     Woken consumers have their words pre-claimed by the commit event, so
//     a burst of same-cycle wakeups cannot promise one frame twice. The
//     consumer pays a request trip to the home tile, egress-port
//     serialization, and the data trip back.
//   * Fault injection applies exactly as for the UDN: delivery delay and
//     link jitter on the push path (per-hop jitter moves into the NoC when
//     link contention is on).
//
// push()/pop() must run inside scheduler fibers; commits are ordinary
// discrete events.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>

#include "arch/noc.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "arch/udn.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace hmps::arch {

class VlinkFabric {
 public:
  using ChannelId = std::uint32_t;

  /// Shares the UDN's NocModel so both transports contend for (and account
  /// to) the same links.
  VlinkFabric(const MachineParams& p, const MeshTopology& topo,
              sim::Scheduler& sched, NocModel& noc)
      : p_(p), topo_(topo), sched_(sched), noc_(noc) {}

  /// Creates a channel anchored at `home` holding up to `capacity` words.
  ChannelId create_channel(Tid home, std::size_t capacity);

  /// Pushes an `n`-word frame. Blocks the calling fiber while the channel
  /// lacks capacity; otherwise costs injection + per-word serialization.
  void push(Tid src, ChannelId ch, const std::uint64_t* words, std::size_t n);

  /// Pops exactly `n` words (one frame), blocking until a whole frame is
  /// available. Frame-atomic across concurrent consumers.
  void pop(Tid dst, ChannelId ch, std::uint64_t* out, std::size_t n);

  /// True iff no words are visible to a new consumer.
  bool empty(ChannelId ch) const { return chans_[ch].ring.empty(); }

  std::size_t words_visible(ChannelId ch) const {
    return chans_[ch].ring.size();
  }

  /// Words currently holding credits (resident or in flight) — telemetry
  /// gauge, mirror of UdnModel::buffer_occupancy.
  std::size_t channel_occupancy(ChannelId ch) const {
    return chans_[ch].reserved;
  }

  void attach_faults(sim::FaultInjector* f) { faults_ = f; }

  struct Counters {
    std::uint64_t frames = 0;
    std::uint64_t words = 0;
    std::uint64_t producer_blocks = 0;  ///< pushes that hit backpressure
    std::uint64_t consumer_waits = 0;   ///< pops that found no whole frame
    std::uint64_t peak_occupancy = 0;   ///< max words credited to one channel
  };
  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

 private:
  struct Waiter {
    sim::Scheduler::FiberId fiber;
    std::size_t need;
    /// Poppers only: destination for the frame. The commit event copies the
    /// words out at wake time — frames hand over in strict FIFO order and a
    /// racing fast-path pop can never split a blocked consumer's frame.
    std::uint64_t* out = nullptr;
  };

  struct Channel {
    Tid home = 0;
    std::size_t cap = 0;       ///< credit capacity in words
    std::unique_ptr<std::uint64_t[]> words;  ///< the ring's storage
    WordRing ring{};
    std::size_t reserved = 0;  ///< words staged, in flight, or resident
    Cycle enq_busy = 0;        ///< ingress-port serialization at the home
    Cycle deq_busy = 0;        ///< egress-port serialization at the home
    WaiterPool<Waiter>::Fifo push_waiters{};
    WaiterPool<Waiter>::Fifo pop_waiters{};
  };

  /// Hands whole frames to blocked consumers in FIFO order (copying the
  /// words out immediately) and wakes them; stops at the first consumer
  /// whose frame is still incomplete.
  void wake_poppers(Channel& c);

  /// Wakes blocked producers while credits suffice (woken producers
  /// re-check, as UDN senders do).
  void wake_pushers(Channel& c);

  const MachineParams& p_;
  const MeshTopology& topo_;
  sim::Scheduler& sched_;
  NocModel& noc_;
  sim::FaultInjector* faults_ = nullptr;
  /// Deque, NOT vector: push()/pop() hold a Channel& across fiber
  /// suspension, and constructions create channels lazily mid-run
  /// (VlinkServer reply channels) — growth must never invalidate a blocked
  /// fiber's reference.
  std::deque<Channel> chans_;
  WaiterPool<Waiter> waiters_;  ///< every channel's push and pop FIFOs
  Counters counters_;
};

}  // namespace hmps::arch
