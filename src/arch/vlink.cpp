#include "arch/vlink.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace hmps::arch {

namespace {

[[noreturn]] void bad_frame(std::size_t n, std::size_t cap) {
  std::fprintf(stderr,
               "hmps fatal: VlinkFabric: push: a %zu-word frame does not fit "
               "its %zu-word channel; its producer would block forever\n",
               n, cap);
  std::abort();
}

}  // namespace

VlinkFabric::ChannelId VlinkFabric::create_channel(Tid home,
                                                   std::size_t capacity) {
  assert(home < topo_.cores());
  Channel c;
  c.home = home;
  c.cap = capacity < 2 ? 2 : capacity;
  const std::size_t words = std::bit_ceil(c.cap);
  c.words = std::make_unique_for_overwrite<std::uint64_t[]>(words);
  c.ring.init(c.words.get(), words);
  chans_.push_back(std::move(c));
  return static_cast<ChannelId>(chans_.size() - 1);
}

void VlinkFabric::push(Tid src, ChannelId ch, const std::uint64_t* words,
                       std::size_t n) {
  assert(ch < chans_.size());
  Channel& c = chans_[ch];
  assert(n > 0);
  // No credit window admits a frame larger than the whole channel.
  if (n > c.cap) [[unlikely]] bad_frame(n, c.cap);

  // Credit check: frames are never dropped; a full channel backs the
  // producer up. The condition is re-read on every wakeup (several pushers
  // can be woken for the same freed space).
  while (c.reserved + n > c.cap) {
    ++counters_.producer_blocks;
    waiters_.push_back(c.push_waiters, Waiter{sched_.current(), n});
    sched_.suspend();
  }
  c.reserved += n;
  if (c.reserved > counters_.peak_occupancy) {
    counters_.peak_occupancy = c.reserved;
  }
  ++counters_.frames;
  counters_.words += n;

  // Arrival at the home ring: injection + per-word wire at the producer,
  // NoC traversal, fault-injected latency, then ingress serialization.
  const Cycle now = sched_.now();
  const Cycle inject_done =
      now + p_.udn_inject + p_.udn_per_word_wire * static_cast<Cycle>(n);
  Cycle arrive_base =
      p_.model_link_contention
          ? noc_.route(src, c.home, inject_done, static_cast<std::uint32_t>(n))
          : inject_done + topo_.wire(src, c.home);
  if (faults_ && faults_->active()) {
    // Same ordering contract as UdnModel::send: injected latency lands
    // before port serialization so commit times per channel stay
    // non-decreasing in push order (the staging fast path relies on it).
    arrive_base += faults_->delivery_delay();
    if (!p_.model_link_contention) arrive_base += faults_->link_jitter();
  }
  const Cycle commit_at =
      (c.enq_busy > arrive_base ? c.enq_busy : arrive_base) +
      p_.udn_per_word_wire * static_cast<Cycle>(n);
  c.enq_busy = commit_at;

  c.ring.stage(words, n);
  sched_.at(commit_at, [this, ch, n] {
    Channel& chan = chans_[ch];
    chan.ring.commit(n);
    wake_poppers(chan);
  });

  // Asynchronous push: the producer only pays its injection cost.
  sched_.wait_until(inject_done);
}

void VlinkFabric::pop(Tid dst, ChannelId ch, std::uint64_t* out,
                      std::size_t n) {
  assert(ch < chans_.size());
  Channel& c = chans_[ch];
  assert(n > 0 && n <= c.cap);

  // Frame atomicity: take the whole frame or none of it. The fast path is
  // only open while no consumer is queued — otherwise this pop would
  // overtake a blocked one and take words off the head of its frame.
  if (c.pop_waiters.empty() && c.ring.size() >= n) {
    c.ring.pop(out, n);
    assert(c.reserved >= n);
    c.reserved -= n;
    wake_pushers(c);
  } else {
    ++counters_.consumer_waits;
    waiters_.push_back(c.pop_waiters, Waiter{sched_.current(), n, out});
    sched_.suspend();
    // The commit event already copied our frame into `out`, released the
    // credits, and woke the pushers (wake_poppers()).
  }

  // Request trip to the home, egress-port serialization of the frame, data
  // trip back. Only the serialization occupies the port; the wire legs
  // pipeline.
  const Cycle at_home = sched_.now() + topo_.wire(dst, c.home);
  const Cycle egress_start = c.deq_busy > at_home ? c.deq_busy : at_home;
  const Cycle egress_end =
      egress_start + p_.udn_per_word_wire * static_cast<Cycle>(n);
  c.deq_busy = egress_end;
  const Cycle done = egress_end + topo_.wire(c.home, dst) +
                     p_.udn_recv_word * static_cast<Cycle>(n);
  sched_.wait_until(done);
}

void VlinkFabric::wake_poppers(Channel& c) {
  // FIFO handover: copy each satisfied waiter's frame out as it is woken.
  // Stops at the first waiter whose frame is still incomplete — frames
  // commit in push order, so skipping ahead would reorder consumers for no
  // modeling gain.
  while (!c.pop_waiters.empty() &&
         c.ring.size() >= waiters_.front(c.pop_waiters).need) {
    const Waiter w = waiters_.front(c.pop_waiters);
    c.ring.pop(w.out, w.need);
    assert(c.reserved >= w.need);
    c.reserved -= w.need;
    sched_.wake_now(w.fiber);
    waiters_.pop_front(c.pop_waiters);
    wake_pushers(c);
  }
}

void VlinkFabric::wake_pushers(Channel& c) {
  std::size_t budget = c.cap > c.reserved ? c.cap - c.reserved : 0;
  while (!c.push_waiters.empty() &&
         waiters_.front(c.push_waiters).need <= budget) {
    const Waiter w = waiters_.front(c.push_waiters);
    budget -= w.need;
    sched_.wake_now(w.fiber);
    waiters_.pop_front(c.push_waiters);
  }
}

}  // namespace hmps::arch
