#include "sim/scheduler.hpp"

#include <cstdio>
#include <cstdlib>

namespace hmps::sim {

Scheduler::FiberId Scheduler::spawn(std::function<void()> fn, Cycle start,
                                    std::size_t stack_bytes) {
  const FiberId id = static_cast<FiberId>(fibers_.size());
  if (fibers_.size() >= EventQueue::kMaxFibers) [[unlikely]] {
    // Queue entries hold a fiber id beside their tag and phase bits.
    std::fprintf(stderr,
                 "hmps fatal: Scheduler::spawn: more than %u fibers\n",
                 static_cast<unsigned>(EventQueue::kMaxFibers));
    std::abort();
  }
  fibers_.emplace_back().fiber =
      std::make_unique<Fiber>(std::move(fn), stack_bytes);
  schedule_resume(id, start);
  return id;
}

void Scheduler::schedule_resume(FiberId id, Cycle t) {
  if (perturber_ != nullptr) [[unlikely]] {
    t += perturber_->resume_delay(id, t);
  }
  schedule_resume_at(id, t);
}

bool Scheduler::notify(std::uint64_t key) {
  bool watched = false;
  for (FiberId f = watch_heads_[watch_bucket(key)]; f != kNoFiber;
       f = fibers_[f].watch_next) {
    if (fibers_[f].watch == key) {
      fibers_[find(f)].dirty = true;
      watched = true;
    }
  }
  return watched;
}

void Scheduler::release(FiberId id) {
  Slot& s = fibers_[id];
  s.poll = nullptr;
  if (s.ops == nullptr) return;
  s.ops = nullptr;
  if (s.watch_prev != kNoFiber) {
    fibers_[s.watch_prev].watch_next = s.watch_next;
  } else {
    watch_heads_[watch_bucket(s.watch)] = s.watch_next;
  }
  if (s.watch_next != kNoFiber) fibers_[s.watch_next].watch_prev = s.watch_prev;
  FiberId* link = s.settle_list;
  while (*link != id) link = &fibers_[*link].settle_next;
  *link = s.settle_next;
  s.shared = false;
  const FiberId only = *s.settle_list;
  if (only != kNoFiber && fibers_[only].settle_next == kNoFiber) {
    fibers_[only].shared = false;  // its group is re-formed unpinned
  }
}

Scheduler::FiberId Scheduler::run_polls(FiberId id, std::uint8_t phase) {
  Slot& h = fibers_[id];
  if (phase != kPhaseOpaque && h.n >= 2 && !h.pinned &&
      (phase == kPhasePlain || !h.dirty)) {
    // A poll group: every member would take the same step and stay parked
    // (a check step passes while no member's key was notified), so the
    // group moves whole and the members' bookkeeping waits for settle().
    const Cycle d = h.ops->move(h.rec, phase, h.n);
    if (d != kHandBack) {
      const Cycle t = now_ + d;
      link_polls(queue_.move_polls(t, id, h.n, flip(phase)), id, h.last, h.n,
                 t, h.dirty, false);
      return kNoFiber;
    }
  }
  const FiberId last = h.last;
  const bool dirty = h.dirty;
  if (id != last) {
    const FiberId handed = run_members(id, last, phase, dirty);
    if (handed != kNoFiber) return handed;
  }
  Slot& s = fibers_[last];
  settle(s, now_);
  std::uint8_t ph = phase;
  bool d = dirty;
  const Cycle t = poll_until_wait(s.poll, s.rec, &ph, &d);
  if (t == kHandBack) {
    release(last);
    return last;
  }
  queue_.note_polled();
  schedule_poll(last, t, ph, d);
  return kNoFiber;
}

Scheduler::FiberId Scheduler::run_members(FiberId id, FiberId last,
                                          std::uint8_t phase, bool dirty) {
  std::uint32_t stepped = 0;  // members that stepped and stay parked
  const std::uint32_t members = fibers_[id].n;
  const std::uint8_t next_phase = flip(phase);
  const bool step_dirty = dirty && phase != kPhaseCheck;
  while (id != last) {
    Slot& s = fibers_[id];
    const FiberId next = s.next;
    __builtin_prefetch(&fibers_[next]);
    settle(s, now_);
    const Cycle d = s.poll(s.rec);
    if (d == kHandBack) [[unlikely]] {
      release(id);
      queue_.account_polls(stepped);
      // The unrun rest becomes a block of its own, its members' group.
      Slot& rest = fibers_[next];
      rest.last = last;
      rest.n = members - stepped - 1;
      rest.time = now_;
      rest.dirty = dirty;
      rest.pinned = false;
      for (FiberId f = next;; f = fibers_[f].next) {
        fibers_[f].up = next;
        rest.pinned |= fibers_[f].shared;
        if (f == last) break;
      }
      queue_.push_front(EventQueue::poll_entry(next, phase));
      return id;
    }
    assert(d > 0);
    ++stepped;
    const Cycle t = now_ + d;
    s.from = t;
    link_polls(queue_.place_polls(t, id, next_phase), id, id, 1, t,
               step_dirty, s.shared);
    id = next;
  }
  queue_.account_polls(stepped);
  return kNoFiber;
}

Cycle Scheduler::run(Cycle horizon) {
  stop_requested_ = false;
  horizon_ = horizon;
  while (!queue_.empty() && !stop_requested_) {
    Cycle t;
    const std::uint32_t e = queue_.pop_entry(horizon, &t);
    if (e == EventQueue::kNoEvent) {  // earliest event lies past the horizon
      now_ = horizon;
      break;
    }
    now_ = t;
    if (EventQueue::is_resume(e)) {
      const FiberId id = dispatch(e);
      if (id == kNoFiber) continue;  // stale, or its pollers ran instead
      const FiberId prev = current_;
      current_ = id;
      fibers_[id].fiber->resume();
      current_ = prev;
    } else {
      EventQueue::Callback cb = queue_.claim(e);
      cb();
    }
  }
  return now_;
}

void Scheduler::wait_until(Cycle t) {
  assert(in_fiber());
  const FiberId id = current_;
  if (t < now_) t = now_;
  if (perturber_ != nullptr) [[unlikely]] {
    t += perturber_->resume_delay(id, t);
  }
  // Fast path: if no other event fires at or before t, the serial course of
  // events is "pop this fiber's resume at t" with nothing in between — so
  // skip the schedule + pop + two context switches and just advance the
  // clock. Disallowed after stop() (the fiber must yield so run() can
  // return) and past the run() horizon (run() must regain control there).
  if (fast_forward_enabled_ && !stop_requested_ && t <= horizon_ &&
      queue_.fast_forward(t)) {
    now_ = t;
    return;
  }
  schedule_resume_at(id, t);  // perturber already applied above
  park_and_dispatch(id);
}

void Scheduler::park_polled(PollFn poll, const PollGroup* group) {
  const FiberId id = current_;
  Slot& s = fibers_[id];
  std::uint8_t phase = group != nullptr ? group->phase : kPhaseOpaque;
  bool dirty = group != nullptr && !group->clean;
  const Cycle t = poll_until_wait(poll, s.rec, &phase, &dirty);
  if (t == kHandBack) return;
  s.poll = poll;
  if (group != nullptr) {
    s.ops = group->ops;
    s.watch = group->watch;
    FiberId& head = watch_heads_[watch_bucket(s.watch)];
    s.watch_prev = kNoFiber;
    s.watch_next = head;
    if (head != kNoFiber) fibers_[head].watch_prev = id;
    head = id;
    s.settle_list = group->settle_list;
    s.settle_next = *s.settle_list;
    *s.settle_list = id;
    s.shared = s.settle_next != kNoFiber;
    for (FiberId f = s.settle_next; f != kNoFiber; f = fibers_[f].settle_next) {
      // Settled already: the fiber read its core's state to park.
      fibers_[f].shared = true;
      fibers_[find(f)].pinned = true;
    }
  }
  schedule_poll(id, t, phase, dirty);
  park_and_dispatch(id);
}

void Scheduler::park_and_dispatch(FiberId self) {
  Fiber& f = *fibers_[self].fiber;
  f.set_state(Fiber::State::kBlocked);
  while (!stop_requested_ && !queue_.empty()) {
    Cycle t;
    const std::uint32_t e = queue_.pop_resume(horizon_, &t);
    if (e == EventQueue::kNoEvent) break;  // callback next, or past horizon
    now_ = t;
    const FiberId id = dispatch(e);
    if (id == kNoFiber) continue;  // stale, or its pollers ran instead
    current_ = id;
    if (id == self) {  // nothing ran in between but pollers: no switch
      f.set_state(Fiber::State::kRunning);
      return;
    }
    f.switch_to(*fibers_[id].fiber);
    return;
  }
  f.yield();
}

void Scheduler::suspend() {
  assert(in_fiber());
  park_and_dispatch(current_);
}

void Scheduler::wake(FiberId id, Cycle t) {
  schedule_resume(id, t < now_ ? now_ : t);
}

}  // namespace hmps::sim
