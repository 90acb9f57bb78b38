// Hardware message-passing model (Tilera User Dynamic Network).
//
// Each core owns a hardware message buffer of `udn_buf_words` 64-bit words,
// demultiplexed into `udn_queues` independent FIFO queues (Section 5.1 of
// the paper). send() is asynchronous: the sender pays only injection cost
// unless the destination buffer is out of space, in which case the message
// backs up into the network and the sender blocks (credit-based model of
// the paper's never-drop guarantee). receive() reads from the local buffer
// and blocks until enough words are present.
//
// send()/receive() must be called from inside scheduler fibers; delivery is
// an ordinary discrete event.
//
// Hot-path layout (docs/ENGINE.md): each queue is a fixed-capacity
// power-of-two ring of words sized from udn_buf_words, allocated once at
// construction. send() bulk-copies the payload into the destination ring
// immediately ("staging" — legal because the credit check has already
// reserved the space) and schedules a tiny delivery event that merely makes
// the words visible; receive() bulk-copies words out. No per-message heap
// allocation, no word-at-a-time deque churn. Staging order equals delivery
// order because ingress-port serialization makes delivery times per buffer
// non-decreasing in send order, with the queue's (time, seq) total order
// breaking ties the same way.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "arch/noc.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace hmps::arch {

using sim::Cycle;
using sim::Tid;

/// Fixed-capacity power-of-two ring of 64-bit words with a staging area:
/// stage() copies words in at the reserved tail, commit() makes them
/// visible, pop() copies them out. Indices are free-running; the mask wraps.
/// The words live in storage the owner provides (UdnModel keeps every
/// ring of the machine in one slab).
class WordRing {
 public:
  void init(std::uint64_t* storage, std::size_t capacity_pow2) {
    assert(capacity_pow2 && (capacity_pow2 & (capacity_pow2 - 1)) == 0);
    slots_ = std::span<std::uint64_t>(storage, capacity_pow2);
    mask_ = capacity_pow2 - 1;
    head_ = tail_ = staged_ = 0;
  }

  /// Words currently visible to receive().
  std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
  bool empty() const { return tail_ == head_; }

  /// Copies `n` words into the ring at the staging tail. Caller guarantees
  /// capacity (the UDN credit check reserves it).
  void stage(const std::uint64_t* w, std::size_t n) {
    assert(staged_ - head_ + n <= slots_.size());
    const std::size_t pos = static_cast<std::size_t>(staged_) & mask_;
    const std::size_t first = n < slots_.size() - pos ? n : slots_.size() - pos;
    std::memcpy(slots_.data() + pos, w, first * sizeof(std::uint64_t));
    std::memcpy(slots_.data(), w + first, (n - first) * sizeof(std::uint64_t));
    staged_ += n;
  }

  /// Makes the next `n` staged words visible (delivery event).
  void commit(std::size_t n) {
    tail_ += n;
    assert(tail_ <= staged_);
  }

  /// Copies the `n` oldest visible words out of the ring.
  void pop(std::uint64_t* out, std::size_t n) {
    assert(n <= size());
    const std::size_t pos = static_cast<std::size_t>(head_) & mask_;
    const std::size_t first = n < slots_.size() - pos ? n : slots_.size() - pos;
    std::memcpy(out, slots_.data() + pos, first * sizeof(std::uint64_t));
    std::memcpy(out + first, slots_.data(), (n - first) * sizeof(std::uint64_t));
    head_ += n;
  }

 private:
  std::span<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  std::uint64_t head_ = 0;    ///< next word to pop
  std::uint64_t tail_ = 0;    ///< end of delivered (visible) words
  std::uint64_t staged_ = 0;  ///< end of staged (in-flight) words
};

/// FIFO of blocked fibers (UDN senders and receivers, vlink producers and
/// consumers). An index-fronted vector rather than a deque: the vector's
/// capacity is the pool, so steady-state block/wake cycles allocate
/// nothing (a deque allocates/frees map nodes periodically even when its
/// size just oscillates around zero).
template <class W>
class WaiterFifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  const W& front() const { return items_[head_]; }
  void push_back(W w) { items_.push_back(w); }
  void pop_front() {
    if (++head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
  }

 private:
  std::vector<W> items_;
  std::size_t head_ = 0;
};

class UdnModel {
 public:
  UdnModel(const MachineParams& p, const MeshTopology& topo,
           sim::Scheduler& sched);

  /// The largest frame any construction sends (a request: id, fn, arg).
  /// A buffer must hold it: repro_from_json rejects smaller udn_buf_words.
  static constexpr std::uint32_t kMaxFrameWords = 3;

  /// Sends `n` words to (dst core, dst queue). Blocks the calling fiber on
  /// backpressure; otherwise costs inject + per-word serialization. Aborts
  /// when `n` exceeds the whole buffer (no credit could ever admit it).
  void send(Tid src, Tid dst, std::uint32_t queue, const std::uint64_t* words,
            std::size_t n);

  /// Receives exactly `n` words from the local queue, blocking as needed.
  void receive(Tid dst, std::uint32_t queue, std::uint64_t* out,
               std::size_t n);

  /// True iff the local queue currently holds no words.
  bool queue_empty(Tid core, std::uint32_t queue) const {
    return rings_[queue_index(core, queue, "queue_empty")].empty();
  }

  std::size_t words_pending(Tid core, std::uint32_t queue) const {
    return rings_[queue_index(core, queue, "words_pending")].size();
  }

  /// Words currently holding credits in a core's hardware buffer (resident
  /// or in flight toward it) — the rx-queue-depth gauge obs::Telemetry
  /// samples per window.
  std::size_t buffer_occupancy(Tid core) const {
    return bufs_[core].reserved;
  }

  std::uint32_t n_queues() const { return static_cast<std::uint32_t>(nq_); }

  NocModel& noc() { return noc_; }

  /// Attaches a tracer (nullptr detaches; not owned). While the tracer is
  /// enabled, every message records a Perfetto flow-event pair: "s" on the
  /// sending core at send time, "f" on the destination core at delivery
  /// time, sharing a fresh flow id. Pure observation — no timing effect.
  void attach_tracer(sim::Tracer* t) { tracer_ = t; }

  /// Attaches the machine's fault injector (and forwards it to the NoC).
  /// When a plan with UDN pressure is active, sends see a shrunk credit
  /// window and deliveries may take extra latency; the injector's window
  /// transitions re-check senders blocked on credits.
  void attach_faults(sim::FaultInjector* f);

  /// Re-checks credit-blocked senders on every buffer against the current
  /// effective credit window (fault-injection hook: a closing pressure
  /// window restores capacity without any receive happening).
  void release_all_senders() {
    for (auto& b : bufs_) try_release_senders(b);
  }

  struct Counters {
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
    std::uint64_t sender_blocks = 0;  ///< sends that hit backpressure
    std::uint64_t peak_occupancy = 0; ///< max words resident in one buffer
  };
  const Counters& counters() const { return counters_; }
  /// Also resets the NoC's aggregate counters, so the post-warmup deltas
  /// the artifact reports cover the same interval for both models.
  void reset_counters() {
    counters_ = {};
    noc_.reset_counters();
  }

 private:
  struct Waiter {
    sim::Scheduler::FiberId fiber;
    std::size_t need;
  };

  /// Per-core credit state. The core's queues are rings_/recv_waiters_
  /// entries core * nq_ .. core * nq_ + nq_ - 1.
  struct Buffer {
    std::size_t reserved = 0;  ///< words in flight or resident (credits)
    Cycle port_busy = 0;       ///< ingress port serialization
    WaiterFifo<Waiter> send_waiters;  ///< senders blocked on credits
  };

  void try_release_senders(Buffer& b);

  /// Credit capacity currently in force (the hardware buffer size, shrunk
  /// while a fault-injected pressure window is open).
  std::size_t effective_credits() const {
    return faults_ && faults_->active()
               ? faults_->credit_limit(p_.udn_buf_words)
               : p_.udn_buf_words;
  }

  const MachineParams& p_;
  const MeshTopology& topo_;
  NocModel noc_;
  sim::Scheduler& sched_;
  sim::FaultInjector* faults_ = nullptr;
  sim::Tracer* tracer_ = nullptr;
  /// Index of (core, demux queue) in rings_ and recv_waiters_. Aborts
  /// when either lies outside the machine (udn_queues bounds the queues),
  /// in every build: a thread placed on a queue past udn_queues would read
  /// and write another core's rings.
  std::size_t queue_index(Tid core, std::uint32_t queue,
                          const char* where) const {
    if (core >= bufs_.size() || queue >= nq_) [[unlikely]] {
      bad_queue(core, queue, where);
    }
    return core * nq_ + queue;
  }
  [[noreturn]] void bad_queue(Tid core, std::uint32_t queue,
                              const char* where) const;
  [[noreturn]] void bad_frame(std::size_t n) const;

  std::size_t nq_;
  // Flat per-machine storage: a Machine costs the same few allocations at
  // every mesh shape (docs/ENGINE.md "Set-up cost").
  std::vector<Buffer> bufs_;
  std::vector<WordRing> rings_;             ///< [core * nq_ + queue]
  std::vector<WaiterFifo<Waiter>> recv_waiters_;  ///< [core * nq_ + queue]
  std::unique_ptr<std::uint64_t[]> words_;  ///< every ring's words
  Counters counters_;
};

}  // namespace hmps::arch
