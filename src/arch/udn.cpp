#include "arch/udn.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace hmps::arch {

void UdnModel::bad_queue(Tid core, std::uint32_t queue,
                         const char* where) const {
  std::fprintf(stderr,
               "hmps fatal: UdnModel: %s: core %u queue %u is outside the "
               "machine's %zu cores x %zu demux queues (udn_queues)\n",
               where, static_cast<unsigned>(core),
               static_cast<unsigned>(queue), bufs_.size(), nq_);
  std::abort();
}

void UdnModel::bad_frame(std::size_t n) const {
  std::fprintf(stderr,
               "hmps fatal: UdnModel: send: a %zu-word message does not fit "
               "a %u-word buffer (udn_buf_words); its sender would block "
               "forever\n",
               n, static_cast<unsigned>(p_.udn_buf_words));
  std::abort();
}

UdnModel::UdnModel(const MachineParams& p, const MeshTopology& topo,
                   sim::Scheduler& sched)
    : p_(p), topo_(topo), noc_(p, topo), sched_(sched), nq_(p.udn_queues),
      bufs_(topo.cores()), queues_(topo.cores() * nq_),
      // Each ring holds a whole buffer's worth of words: credits cap
      // resident + in-flight words per buffer at udn_buf_words, so any
      // single queue can see at most that many staged words.
      ring_words_(std::bit_ceil(
          static_cast<std::size_t>(p.udn_buf_words ? p.udn_buf_words : 1))),
      unbacked_(queues_.size()) {}

void UdnModel::back_ring(WordRing& r) {
  if (arena_left_ == 0) {
    arena_left_ = std::min(std::size_t{4} << arena_.size(), unbacked_);
    // Ring words are only read after stage() wrote them: no zero fill.
    arena_.push_back(std::make_unique_for_overwrite<std::uint64_t[]>(
        arena_left_ * ring_words_));
    arena_next_ = arena_.back().get();
  }
  r.init(arena_next_, ring_words_);
  arena_next_ += ring_words_;
  --arena_left_;
  --unbacked_;
}

void UdnModel::attach_faults(sim::FaultInjector* f) {
  faults_ = f;
  noc_.attach_faults(f);
  // A pressure-window transition changes the credit budget with no receive
  // involved; blocked senders must be re-checked or a window that outlives
  // all in-flight receives would strand them forever.
  f->set_credit_changed([this] { release_all_senders(); });
}

void UdnModel::send(Tid src, Tid dst, std::uint32_t queue,
                    const std::uint64_t* words, std::size_t n) {
  const std::size_t qi = queue_index(dst, queue, "send");
  if (n > p_.udn_buf_words) [[unlikely]] bad_frame(n);
  Buffer& b = bufs_[dst];

  // Credit check: messages are never dropped, so if the destination buffer
  // cannot accommodate the message the sender backs up (paper Section 5.1).
  // The window is re-read on every wakeup: fault injection can shrink it
  // mid-run (and restore it, which also wakes the waiters).
  while (b.reserved + n > effective_credits()) {
    ++counters_.sender_blocks;
    waiters_.push_back(b.send_waiters, Waiter{sched_.current(), n});
    sched_.suspend();
  }
  b.reserved += n;
  if (b.reserved > counters_.peak_occupancy) {
    counters_.peak_occupancy = b.reserved;
  }
  ++counters_.messages;
  counters_.words += n;

  // Wire + ingress-port serialization determine the delivery time; the
  // sender itself only pays injection cost (asynchronous send).
  const Cycle now = sched_.now();
  const Cycle inject_done =
      now + p_.udn_inject + p_.udn_per_word_wire * static_cast<Cycle>(n);
  Cycle arrive_base =
      p_.model_link_contention
          ? noc_.route(src, dst, inject_done,
                       static_cast<std::uint32_t>(n))
          : inject_done + topo_.wire(src, dst);
  if (faults_ && faults_->active()) {
    // Injected latency lands BEFORE ingress-port serialization, so delivery
    // times per buffer stay non-decreasing in send order and the staging/
    // commit fast path keeps its ordering invariant. Per-hop jitter is the
    // NoC model's job when link contention is on.
    arrive_base += faults_->delivery_delay();
    if (!p_.model_link_contention) arrive_base += faults_->link_jitter();
  }
  const Cycle deliver =
      (b.port_busy > arrive_base ? b.port_busy : arrive_base) +
      p_.udn_per_word_wire * static_cast<Cycle>(n);
  b.port_busy = deliver;

  // Flow-event pair for the trace: the delivery time is already known, so
  // both halves are recorded here rather than growing the delivery event's
  // capture (which must stay within the queue's inline storage). Chrome
  // trace JSON does not require timestamp order; the viewer sorts.
  if (tracer_ && tracer_->enabled()) {
    const std::uint64_t fid = tracer_->next_flow_id();
    tracer_->flow_start(src, "udn-msg", now, fid);
    tracer_->flow_end(dst, "udn-msg", deliver, fid);
  }

  // Bulk-copy the payload into the destination ring now (the credit reserve
  // above guarantees space) and schedule a small delivery event that only
  // publishes the words. Staging order matches delivery order: deliver times
  // per buffer are non-decreasing in send order via port_busy, and the event
  // queue breaks ties in schedule order.
  WordRing& ring = queues_[qi].ring;
  if (!ring.backed()) [[unlikely]] back_ring(ring);
  ring.stage(words, n);
  sched_.at(deliver, [this, qi, n] {
    Queue& q = queues_[qi];
    q.ring.commit(n);
    // Wake the receiver if its demand is now satisfied.
    if (!q.recv_waiters.empty() &&
        q.ring.size() >= waiters_.front(q.recv_waiters).need) {
      const auto fiber = waiters_.front(q.recv_waiters).fiber;
      waiters_.pop_front(q.recv_waiters);
      sched_.wake_now(fiber);
    }
  });

  // The sender's own cost: occupy the core while serializing into the NoC.
  sched_.wait_until(inject_done);
}

void UdnModel::receive(Tid dst, std::uint32_t queue, std::uint64_t* out,
                       std::size_t n) {
  const std::size_t qi = queue_index(dst, queue, "receive");
  Buffer& b = bufs_[dst];
  Queue& q = queues_[qi];
  while (q.ring.size() < n) {
    waiters_.push_back(q.recv_waiters, Waiter{sched_.current(), n});
    sched_.suspend();
  }
  q.ring.pop(out, n);
  assert(b.reserved >= n);
  b.reserved -= n;
  try_release_senders(b);
  // Popping words from the local hardware buffer is a register read; the
  // per-word cost is charged here.
  sched_.wait_for(p_.udn_recv_word * static_cast<Cycle>(n));
}

void UdnModel::try_release_senders(Buffer& b) {
  // FIFO release: wake blocked senders while credits suffice. A woken
  // sender re-checks the credit condition itself (it may race with other
  // wakeups in the same cycle). During an injected pressure window the
  // buffer may hold more than the shrunk limit; the budget clamps at zero.
  const std::size_t limit = effective_credits();
  std::size_t budget = limit > b.reserved ? limit - b.reserved : 0;
  while (!b.send_waiters.empty() &&
         waiters_.front(b.send_waiters).need <= budget) {
    const Waiter w = waiters_.front(b.send_waiters);
    budget -= w.need;
    sched_.wake_now(w.fiber);
    waiters_.pop_front(b.send_waiters);
  }
}

}  // namespace hmps::arch
