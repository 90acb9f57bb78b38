// Discrete-event scheduler driving a set of fibers on simulated time.
//
// The scheduler owns the global clock. Fibers advance time by calling
// wait_until()/suspend() from inside their bodies; external machine models
// (NoC, message buffers, ...) schedule plain callbacks with at().
#pragma once

#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/perturb.hpp"
#include "sim/types.hpp"

namespace hmps::sim {

class Scheduler {
 public:
  using FiberId = std::uint32_t;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates a fiber and schedules its first resume at `start` (default:
  /// current time). Returns its id.
  FiberId spawn(std::function<void()> fn, Cycle start = 0,
                std::size_t stack_bytes = Fiber::kDefaultStack);

  /// Runs events until the queue is empty, `horizon` is passed, or stop()
  /// is called. Returns the simulated time reached.
  Cycle run(Cycle horizon = kCycleMax);

  /// Requests run() to return after the current event completes. Callable
  /// from inside fibers or callbacks.
  void stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  Cycle now() const { return now_; }

  /// Schedules an arbitrary callback at absolute time t (>= now). Small
  /// callables (<= EventFn::kInlineBytes of captures) are stored inline in
  /// the event record — no heap allocation.
  template <class F>
  void at(Cycle t, F&& cb) {
    queue_.schedule(t < now_ ? now_ : t, std::forward<F>(cb));
  }

  /// Engine self-counters (events scheduled/executed, allocation escapes).
  const EngineCounters& engine_counters() const { return queue_.counters(); }

  /// Pre-sizes the event pool, wheel buckets, and overflow heap (see
  /// EventQueue::reserve).
  void reserve_events(std::size_t n, std::size_t per_bucket = 0) {
    queue_.reserve(n, per_bucket);
  }

  /// Enables/disables the wait_until() fast path (on by default). With it
  /// off every wait schedules a resume and round-trips through the event
  /// queue — the reference serial order. Tests assert golden-trace equality
  /// between the two modes to pin the fast path's claim that nothing
  /// observable changes (tests/test_sim_engine.cpp); everything else should
  /// leave it on.
  void set_fast_forward_enabled(bool on) { fast_forward_enabled_ = on; }
  bool fast_forward_enabled() const { return fast_forward_enabled_; }

  /// Installs (or removes, with nullptr) a schedule perturber. Every fiber
  /// resume scheduled afterwards is offered to it; nothing else in the
  /// engine changes, so a null perturber keeps event order byte-identical
  /// to a build without the hook.
  void set_perturber(Perturber* p) { perturber_ = p; }
  Perturber* perturber() const { return perturber_; }

  // ---- Fiber-side API (must be called from inside a running fiber) ----

  /// Blocks the current fiber until absolute time t.
  void wait_until(Cycle t);

  /// Blocks the current fiber for `d` cycles.
  void wait_for(Cycle d) { wait_until(now_ + d); }

  /// Blocks the current fiber indefinitely; resume via wake().
  void suspend();

  /// A parked fiber's stand-in (see park_polling), called with the
  /// fiber's poll record. Returns true when the fiber itself must run now,
  /// false after it scheduled the fiber's next resume through poll_wait().
  using PollFn = bool (*)(void* rec);

  /// Size and alignment of the poll record a fiber's slot holds inline.
  static constexpr std::size_t kPollRecordBytes = 64;
  static constexpr std::size_t kPollRecordAlign = 8;

  /// Parks the current fiber behind a poller. `rec` is copied into the
  /// fiber's slot, and `poll` runs on that copy at once; while it returns
  /// false, each of the fiber's resume entries runs it again in place of a
  /// context switch — from run() or from another fiber's park. The fiber
  /// continues, at the queue position of the entry that ran it, once it
  /// returns true. The record is dropped then: the fiber never reads it.
  template <class Rec>
  void park_polling(PollFn poll, const Rec& rec) {
    static_assert(!std::is_pointer_v<Rec>, "pass the record, not its address");
    static_assert(sizeof(Rec) <= kPollRecordBytes &&
                      alignof(Rec) <= kPollRecordAlign &&
                      std::is_trivially_copyable_v<Rec> &&
                      std::is_trivially_destructible_v<Rec>,
                  "a poll record must fit the slot's inline storage");
    assert(in_fiber());
    ::new (static_cast<void*>(fibers_[current_].rec)) Rec(rec);
    park_polled(poll);
  }

  /// wait_until() for a poller: same fast-forward rules (stop(), the run()
  /// horizon, set_fast_forward_enabled()), without a perturber and without
  /// switching stacks. Returns true when the clock moved straight to `t`
  /// (the poller goes on), false when the polling fiber's resume was
  /// scheduled at `t` instead (the poller must return false).
  bool poll_wait(Cycle t) {
    if (fast_forward_enabled_ && !stop_requested_ && t <= horizon_ &&
        queue_.fast_forward(t)) {
      now_ = t;
      return true;
    }
    schedule_resume_at(current_, t);
    return false;
  }

  /// Schedules fiber `id` to resume at time t (>= now). Only valid for
  /// fibers blocked via suspend().
  void wake(FiberId id, Cycle t);
  void wake_now(FiberId id) { wake(id, now_); }

  /// Id of the fiber currently executing. Only valid inside a fiber.
  FiberId current() const {
    assert(current_ != kNoFiber);
    return current_;
  }
  bool in_fiber() const { return current_ != kNoFiber; }

  bool fiber_finished(FiberId id) const {
    return fibers_[id].fiber->finished();
  }
  std::size_t fiber_count() const { return fibers_.size(); }

  static constexpr FiberId kNoFiber = ~FiberId{0};

 private:
  void schedule_resume(FiberId id, Cycle t);  // applies the perturber
  void schedule_resume_at(FiberId id, Cycle t) {  // exact time, no perturb
    queue_.schedule_resume(t, id);
  }

  /// A fiber and, while it is parked behind a poller, that poller and its
  /// record. The record sits inline so a poll step touches only this slot;
  /// references into fibers_ never outlive a call that may spawn().
  struct Slot {
    PollFn poll = nullptr;
    alignas(kPollRecordAlign) unsigned char rec[kPollRecordBytes];
    std::unique_ptr<Fiber> fiber;
  };

  /// park_polling()'s type-free half: runs `poll` on the current fiber's
  /// record and, unless it is done at once, parks the fiber behind it.
  void park_polled(PollFn poll);

  /// Decides whether a popped resume of fiber `id` (made current_) runs
  /// the fiber: false for a stale resume of a finished fiber, and when the
  /// fiber's poller ran in its place and stays armed. A slot with a poller
  /// skips the finished() test: a parked fiber never finishes.
  bool dispatch_resume(FiberId id);

  /// Parks fiber `self` (the one currently running). If the next event due
  /// is a resume, dispatches it: a poller runs inline and the loop goes
  /// on; `self`'s own resume returns straight into it; another fiber's is
  /// switched into directly — one context switch instead of the
  /// yield-to-scheduler + resume pair — repeating the run loop's skip of
  /// finished fibers. Otherwise yields to the run loop.
  void park_and_dispatch(FiberId self);

  EventQueue queue_;
  std::vector<Slot> fibers_;
  Cycle now_ = 0;
  Cycle horizon_ = kCycleMax;  ///< run() window; bounds the wait fast path
  FiberId current_ = kNoFiber;
  bool stop_requested_ = false;
  bool fast_forward_enabled_ = true;
  Perturber* perturber_ = nullptr;
};

}  // namespace hmps::sim
