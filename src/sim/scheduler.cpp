#include "sim/scheduler.hpp"

namespace hmps::sim {

Scheduler::FiberId Scheduler::spawn(std::function<void()> fn, Cycle start,
                                    std::size_t stack_bytes) {
  const FiberId id = static_cast<FiberId>(fibers_.size());
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

Scheduler::FiberId Scheduler::run_polls(FiberId id) {
  const FiberId last = fibers_[id].last;
  if (id != last) {
    const FiberId handed = run_members(id, last);
    if (handed != kNoFiber) return handed;
  }
  Slot& s = fibers_[last];
  const Cycle t = poll_until_wait(s.poll, s.rec);
  if (t == kHandBack) {
    s.poll = nullptr;
    return last;
  }
  queue_.note_polled();
  schedule_poll(last, t);
  return kNoFiber;
}

Scheduler::FiberId Scheduler::run_members(FiberId id, FiberId last) {
  // Members that stayed parked, by wait: each run is threaded through its
  // members' `next` links and joins bucket now + d in one operation. Waits
  // too long for the wheel are placed one by one, as lone pollers.
  struct Run {
    Cycle d;
    FiberId first, last;
    std::uint32_t n;
  };
  constexpr std::size_t kMaxRuns = 4;
  Run runs[kMaxRuns];
  std::size_t nruns = 0;
  std::uint64_t stepped = 0;  // members that stepped and stay parked
  const auto place_runs = [&] {
    for (std::size_t r = 0; r < nruns; ++r) {
      const Run& x = runs[r];
      link_polls(queue_.place_polls(now_ + x.d, x.first, x.n), x.first,
                 x.last);
    }
    nruns = 0;
  };

  while (id != last) {
    Slot& s = fibers_[id];
    const FiberId next = s.next;
    __builtin_prefetch(&fibers_[next]);
    const Cycle d = s.poll(s.rec);
    if (d == kHandBack) [[unlikely]] {
      s.poll = nullptr;
      place_runs();
      queue_.account_polls(stepped);
      fibers_[next].last = last;
      queue_.push_front(EventQueue::kPollTag | next);
      return id;
    }
    assert(d > 0);
    ++stepped;
    std::size_t r = 0;
    while (r < nruns && runs[r].d != d) ++r;
    if (r < nruns) {
      fibers_[runs[r].last].next = id;
      runs[r].last = id;
      ++runs[r].n;
    } else if (d >= EventQueue::kWheel) [[unlikely]] {
      link_polls(queue_.place_polls(now_ + d, id, 1), id, id);
    } else {
      if (nruns == kMaxRuns) place_runs();
      runs[nruns++] = Run{d, id, id, 1};
    }
    id = next;
  }
  place_runs();  // before the last member's wait looks at the queue
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

void Scheduler::park_polled(PollFn poll) {
  const FiberId id = current_;
  const Cycle t = poll_until_wait(poll, fibers_[id].rec);
  if (t == kHandBack) return;
  fibers_[id].poll = poll;
  schedule_poll(id, t);
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
