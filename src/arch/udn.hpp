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
// power-of-two ring of words sized from udn_buf_words, carved from a
// per-machine arena by the first send to it. send() bulk-copies the payload
// into the destination ring immediately ("staging" — legal because the
// credit check has already reserved the space) and schedules a tiny
// delivery event that merely makes the words visible; receive() bulk-copies
// words out. No per-message heap allocation, no word-at-a-time deque churn.
// Staging order equals delivery order because ingress-port serialization
// makes delivery times per buffer non-decreasing in send order, with the
// queue's (time, seq) total order breaking ties the same way.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
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
/// The words live in storage the owner provides (UdnModel carves each
/// ring's from an arena on first use). A value-initialised ring is empty
/// and has no storage yet (backed() is false): arrays of rings are set up
/// by zero fill and need no destructor.
class WordRing {
 public:
  void init(std::uint64_t* storage, std::size_t capacity_pow2) {
    assert(capacity_pow2 && (capacity_pow2 & (capacity_pow2 - 1)) == 0);
    slots_ = storage;
    mask_ = capacity_pow2 - 1;
    head_ = tail_ = staged_ = 0;
  }

  bool backed() const { return slots_ != nullptr; }

  /// Words currently visible to receive().
  std::size_t size() const { return static_cast<std::size_t>(tail_ - head_); }
  bool empty() const { return tail_ == head_; }

  /// Copies `n` words into the ring at the staging tail. Caller guarantees
  /// capacity (the UDN credit check reserves it).
  void stage(const std::uint64_t* w, std::size_t n) {
    assert(staged_ - head_ + n <= mask_ + 1);
    const std::size_t pos = static_cast<std::size_t>(staged_ & mask_);
    const std::size_t room = mask_ + 1 - pos;
    const std::size_t first = n < room ? n : room;
    std::memcpy(slots_ + pos, w, first * sizeof(std::uint64_t));
    std::memcpy(slots_, w + first, (n - first) * sizeof(std::uint64_t));
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
    const std::size_t pos = static_cast<std::size_t>(head_ & mask_);
    const std::size_t room = mask_ + 1 - pos;
    const std::size_t first = n < room ? n : room;
    std::memcpy(out, slots_ + pos, first * sizeof(std::uint64_t));
    std::memcpy(out + first, slots_, (n - first) * sizeof(std::uint64_t));
    head_ += n;
  }

 private:
  std::uint64_t* slots_;
  std::uint64_t mask_;
  std::uint64_t head_;    ///< next word to pop
  std::uint64_t tail_;    ///< end of delivered (visible) words
  std::uint64_t staged_;  ///< end of staged (in-flight) words
};
static_assert(std::is_trivial_v<WordRing>);

/// FIFOs of blocked fibers (UDN senders and receivers, vlink producers and
/// consumers), threaded through one pool of nodes their owner keeps. A FIFO
/// is two node numbers and value-initialises to empty, so arrays of them
/// are set up by zero fill and need no destructor; popped nodes are
/// recycled, so steady-state block/wake cycles allocate nothing.
template <class W>
class WaiterPool {
 public:
  struct Fifo {
    std::uint32_t head;  ///< front node's number (index + 1); 0 if empty
    std::uint32_t tail;
    bool empty() const { return head == 0; }
  };

  const W& front(const Fifo& f) const { return nodes_[f.head - 1].w; }

  void push_back(Fifo& f, W w) {
    std::uint32_t i = free_;
    if (i != 0) {
      free_ = nodes_[i - 1].next;
      nodes_[i - 1] = Node{w, 0};
    } else {
      nodes_.push_back(Node{w, 0});
      i = static_cast<std::uint32_t>(nodes_.size());
    }
    if (f.tail != 0) {
      nodes_[f.tail - 1].next = i;
    } else {
      f.head = i;
    }
    f.tail = i;
  }

  void pop_front(Fifo& f) {
    const std::uint32_t i = f.head;
    f.head = nodes_[i - 1].next;
    if (f.head == 0) f.tail = 0;
    nodes_[i - 1].next = free_;
    free_ = i;
  }

 private:
  struct Node {
    W w;
    std::uint32_t next;  ///< the next node's number; 0 ends the FIFO
  };
  std::vector<Node> nodes_;
  std::uint32_t free_ = 0;  ///< recycled nodes, chained through `next`
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
    return queues_[queue_index(core, queue, "queue_empty")].ring.empty();
  }

  std::size_t words_pending(Tid core, std::uint32_t queue) const {
    return queues_[queue_index(core, queue, "words_pending")].ring.size();
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

  using Fifo = WaiterPool<Waiter>::Fifo;

  /// Per-core credit state. The core's queues are queues_ entries
  /// core * nq_ .. core * nq_ + nq_ - 1. All-zero is an idle buffer.
  struct Buffer {
    std::size_t reserved;  ///< words in flight or resident (credits)
    Cycle port_busy;       ///< ingress port serialization
    Fifo send_waiters;     ///< senders blocked on credits
  };

  /// One demux queue. All-zero is an empty queue whose ring has no words
  /// yet (the first send carves them: back_ring).
  struct Queue {
    WordRing ring;
    Fifo recv_waiters;
  };

  void try_release_senders(Buffer& b);

  /// Gives `r` its words from the arena. Each arena chunk holds twice as
  /// many rings as the one before (the first, 4), so a run that sends to k
  /// queues makes O(log k) allocations, none at construction.
  void back_ring(WordRing& r);

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
  /// Index of (core, demux queue) in queues_. Aborts
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
  // Flat per-machine headers, zero-filled: a Machine costs the same few
  // allocations at every mesh shape, and ring words only where a run sends
  // (docs/ENGINE.md "Set-up cost").
  std::vector<Buffer> bufs_;
  std::vector<Queue> queues_;  ///< [core * nq_ + queue]
  WaiterPool<Waiter> waiters_;  ///< every send and receive FIFO's nodes
  std::size_t ring_words_;      ///< words per ring, a power of two
  std::vector<std::unique_ptr<std::uint64_t[]>> arena_;  ///< ring words
  std::uint64_t* arena_next_ = nullptr;  ///< next free ring in arena_.back()
  std::size_t arena_left_ = 0;           ///< rings left there
  std::size_t unbacked_;                 ///< rings with no words yet
  Counters counters_;
};

}  // namespace hmps::arch
