#include "sim/scheduler.hpp"

namespace hmps::sim {

Scheduler::FiberId Scheduler::spawn(std::function<void()> fn, Cycle start,
                                    std::size_t stack_bytes) {
  const FiberId id = static_cast<FiberId>(fibers_.size());
  fibers_.push_back({std::make_unique<Fiber>(std::move(fn), stack_bytes)});
  schedule_resume(id, start);
  return id;
}

void Scheduler::schedule_resume(FiberId id, Cycle t) {
  if (perturber_ != nullptr) [[unlikely]] {
    t += perturber_->resume_delay(id, t);
  }
  schedule_resume_at(id, t);
}

void Scheduler::schedule_resume_at(FiberId id, Cycle t) {
  queue_.schedule_resume(t, id);
}

bool Scheduler::dispatch_resume(Slot& s) {
  if (s.poll == nullptr) return true;
  if (!s.poll(s.poll_arg)) {
    queue_.note_polled();
    return false;
  }
  s.poll = nullptr;
  return true;
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
      Slot& s = fibers_[EventQueue::resume_fiber(e)];
      if (s.fiber->finished()) continue;  // resume raced the fiber's exit
      const FiberId prev = current_;
      current_ = EventQueue::resume_fiber(e);
      if (dispatch_resume(s)) s.fiber->resume();
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

bool Scheduler::poll_wait(Cycle t) {
  if (fast_forward_enabled_ && !stop_requested_ && t <= horizon_ &&
      queue_.fast_forward(t)) {
    now_ = t;
    return true;
  }
  schedule_resume_at(current_, t);
  return false;
}

void Scheduler::park_polling(PollFn poll, void* arg) {
  assert(in_fiber());
  if (poll(arg)) return;
  Slot& s = fibers_[current_];
  s.poll = poll;
  s.poll_arg = arg;
  park_and_dispatch(current_);
}

void Scheduler::park_and_dispatch(FiberId self) {
  Fiber& f = *fibers_[self].fiber;
  f.set_state(Fiber::State::kBlocked);
  while (!stop_requested_ && !queue_.empty()) {
    Cycle t;
    const std::uint32_t e = queue_.pop_resume(horizon_, &t);
    if (e == EventQueue::kNoEvent) break;  // callback next, or past horizon
    now_ = t;
    const FiberId id = EventQueue::resume_fiber(e);
    Slot& s = fibers_[id];
    if (s.fiber->finished()) continue;  // stale resume, same skip as run()
    current_ = id;
    if (!dispatch_resume(s)) continue;  // its poller ran in place of it
    if (id == self) {  // nothing ran in between but pollers: no switch
      f.set_state(Fiber::State::kRunning);
      return;
    }
    f.switch_to(*s.fiber);
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
