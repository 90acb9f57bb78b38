// Discrete-event scheduler driving a set of fibers on simulated time.
//
// The scheduler owns the global clock. Fibers advance time by calling
// wait_until()/suspend() from inside their bodies; external machine models
// (NoC, message buffers, ...) schedule plain callbacks with at().
#pragma once

#include <array>
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

  Cycle now() const { return now_; }

  /// Events waiting in the queue; a poll block counts each member.
  std::size_t pending() const { return queue_.size(); }

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

  /// One step of a parked fiber's stand-in (see park_polling), called with
  /// the fiber's poll record at the step's time, now(). Returns the cycles
  /// until its next step (at least 1), or kHandBack when the fiber itself
  /// must run now instead.
  using PollFn = Cycle (*)(void* rec);
  static constexpr Cycle kHandBack = kCycleMax;

  /// Size and alignment of the poll record a fiber's slot holds inline.
  static constexpr std::size_t kPollRecordBytes = 64;
  static constexpr std::size_t kPollRecordAlign = 8;

  /// Phases of a parked poller: the phase of its next step. Only members
  /// at the same phase share a poll block (docs/ENGINE.md "Poll groups"). A
  /// poller parked without a PollGroup is kPhaseOpaque and always steps.
  /// A groupable poller alternates between a plain step and a step that
  /// checks the state it watches.
  static constexpr std::uint8_t kPhaseOpaque = 0;
  static constexpr std::uint8_t kPhasePlain = 1;
  static constexpr std::uint8_t kPhaseCheck = 2;

  /// Hooks of a groupable poller.
  struct PollGroupOps {
    /// A group of `k` >= 2 members at `phase`, the first one's record
    /// `rec`, takes that step at now() without stepping its members. Books
    /// what the k steps share (counters that are not per member) and
    /// returns the step's cycles, less than one wheel turn. Returns
    /// kHandBack, booking nothing, when the members must step one by one
    /// (an observer is attached).
    Cycle (*move)(void* rec, std::uint8_t phase, std::uint32_t k);
    /// Books the steps that the member with record `rec` took in
    /// [from, to) inside moved groups: the first one began at `from`, at
    /// the phase the record holds, and `to` ends a step.
    void (*settle)(void* rec, Cycle from, Cycle to);
  };

  /// How a groupable poller parks.
  struct PollGroup {
    const PollGroupOps* ops;
    std::uint8_t phase;        ///< the phase of its first step
    bool clean;                ///< a check step now would pass
    std::uint64_t watch;       ///< the key whose notify() dirties it
    /// The list settle_parked() settles it in (a core's spinners), which
    /// the caller has just settled. Members that share a list step one by
    /// one (Slot::shared).
    FiberId* settle_list;
  };

  /// Parks the current fiber behind a poller. `rec` is copied into the
  /// fiber's slot, and `poll` steps that copy at once. Each step's wait
  /// follows wait_until()'s rules: the clock moves straight on when
  /// nothing intervenes (the next step follows at once), and otherwise the
  /// fiber's resume is scheduled, as a member of a poll block. Each popped
  /// resume runs the next step in place of a context switch — from run()
  /// or from another fiber's park. The fiber continues, at the queue
  /// position of the entry that ran it, once a step hands back. The record
  /// is dropped then: the fiber never reads it.
  ///
  /// With a `group`, whole poll groups may take a step without stepping
  /// their members: plain steps always, check steps while no member's
  /// watched key was notified since its last check. Each member's own
  /// bookkeeping is deferred until settle_parked() or its next real step.
  template <class Rec>
  void park_polling(PollFn poll, const Rec& rec,
                    const PollGroup* group = nullptr) {
    static_assert(!std::is_pointer_v<Rec>, "pass the record, not its address");
    static_assert(sizeof(Rec) <= kPollRecordBytes &&
                      alignof(Rec) <= kPollRecordAlign &&
                      std::is_trivially_copyable_v<Rec> &&
                      std::is_trivially_destructible_v<Rec>,
                  "a poll record must fit the slot's inline storage");
    assert(in_fiber());
    ::new (static_cast<void*>(fibers_[current_].rec)) Rec(rec);
    park_polled(poll, group);
  }

  /// Marks dirty the poll group of every parked poller that watches `key`.
  /// Returns whether any poller watches it.
  bool notify(std::uint64_t key);

  /// Books the deferred steps of every parked poller in the settle list
  /// that starts at `head`, up to its group's time.
  void settle_parked(FiberId head) {
    for (FiberId f = head; f != kNoFiber; f = fibers_[f].settle_next) {
      settle(fibers_[f], fibers_[find(f)].time);
    }
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

  static constexpr FiberId kNoFiber = ~FiberId{0};

 private:
  void schedule_resume(FiberId id, Cycle t);  // applies the perturber
  void schedule_resume_at(FiberId id, Cycle t) {  // exact time, no perturb
    queue_.schedule_resume(t, id);
  }

  /// A fiber and, while it is parked behind a poller, that poller, its
  /// record, its place in a poll block and its poll group. The record sits
  /// inline so a poll step touches only this slot; references into fibers_
  /// never outlive a call that may spawn(). A slot is three whole cache
  /// lines: the record, what stepping and moving read, and the links that
  /// only parking, hand-back and notify() follow. (Unaligned, some slots
  /// spanned an extra line, which cost the shm-server and CC-Synch service
  /// runs about 10% of their host time.)
  ///
  /// A poll group is a poll block of groupable members; its first member
  /// is the root of a union-find over the members (`up`), which is how
  /// notify() and settle() find a member's group in amortized O(1) after
  /// groups have merged.
  struct alignas(64) Slot {
    alignas(kPollRecordAlign) unsigned char rec[kPollRecordBytes];
    PollFn poll = nullptr;
    const PollGroupOps* ops = nullptr;  ///< null: not groupable
    std::unique_ptr<Fiber> fiber;
    Cycle from = 0;  ///< groupable member: its first step not yet booked
    Cycle time = 0;  ///< a group's root: the time of its bucket
    FiberId next = kNoFiber;  ///< the member after this one in its block
    FiberId last = kNoFiber;  ///< a block's first member: its last member
    FiberId up = kNoFiber;    ///< union-find parent; a root is its own
    std::uint32_t n = 0;      ///< a block's first member: its members
    bool dirty = false;  ///< a group's root: a watched key was notified
    /// Groupable member: another one is parked in its settle list. Their
    /// steps interleave on one account, where the order of charges decides
    /// which bucket an overlap goes to, so neither may defer its steps.
    bool shared = false;
    bool pinned = false;  ///< a group's root: it may hold a shared member
    alignas(64) std::uint64_t watch = 0;  ///< groupable member: its key
    FiberId* settle_list = nullptr;       ///< groupable member: its list
    FiberId watch_prev = kNoFiber;   ///< links of the watchers of one
    FiberId watch_next = kNoFiber;   ///< notify() bucket
    FiberId settle_next = kNoFiber;  ///< the next member of its list
  };

  /// The other phase of a groupable poller; an opaque one keeps its own.
  static std::uint8_t flip(std::uint8_t phase) {
    return phase == kPhaseOpaque ? phase : phase ^ 3;
  }

  /// Root of member `f`'s poll group (path halving).
  FiberId find(FiberId f) {
    while (fibers_[f].up != f) {
      FiberId& u = fibers_[f].up;
      u = fibers_[u].up;
      f = u;
    }
    return f;
  }

  /// Books the deferred steps of member `s` up to `to`.
  static void settle(Slot& s, Cycle to) {
    if (s.ops != nullptr && s.from < to) {
      s.ops->settle(s.rec, s.from, to);
      s.from = to;
    }
  }

  /// park_polling()'s type-free half: steps `poll` on the current fiber's
  /// record and, unless it hands back at once, parks the fiber behind it.
  void park_polled(PollFn poll, const PollGroup* group);

  /// A member's poller handed back: it leaves its watch and settle lists.
  void release(FiberId id);

  /// Steps `poll` on `rec` while each wait can fast-forward the clock
  /// (wait_until()'s rules: stop(), the run() horizon,
  /// set_fast_forward_enabled()), starting at `*phase`. Returns kHandBack,
  /// or the time of the step the queue must schedule, with `*phase` its
  /// phase; a check step that passes clears `*dirty`.
  Cycle poll_until_wait(PollFn poll, void* rec, std::uint8_t* phase,
                        bool* dirty) {
    for (;;) {
      const Cycle d = poll(rec);
      if (d == kHandBack) return kHandBack;
      assert(d > 0);
      if (*phase == kPhaseCheck) *dirty = false;
      *phase = flip(*phase);
      const Cycle t = now_ + d;
      if (!fast_forward_enabled_ || stop_requested_ || t > horizon_ ||
          !queue_.fast_forward(t)) {
        return t;
      }
      now_ = t;
    }
  }

  /// Links the `n` members `first`..`last` (threaded through `next`, each
  /// one's `up` leading to `first`), just placed at `t` together, into the
  /// poll block that `joined` (a first member, or kNoEvent for a new block)
  /// names. `dirty` and `pinned` are theirs.
  void link_polls(std::uint32_t joined, FiberId first, FiberId last,
                  std::uint32_t n, Cycle t, bool dirty, bool pinned) {
    if (joined == EventQueue::kNoEvent) {
      Slot& f = fibers_[first];
      f.last = last;
      f.n = n;
      f.time = t;
      f.dirty = dirty;
      f.pinned = pinned;
      f.up = first;
      return;
    }
    Slot& head = fibers_[joined];
    fibers_[head.last].next = first;
    head.last = last;
    head.n += n;
    head.dirty |= dirty;
    head.pinned |= pinned;
    fibers_[first].up = joined;
  }

  /// Schedules parked fiber `id`'s next step, at `phase`, at `t`, as the
  /// last member of the poll block that ends bucket t, or as a block of its
  /// own.
  void schedule_poll(FiberId id, Cycle t, std::uint8_t phase, bool dirty) {
    Slot& s = fibers_[id];
    s.from = t;
    link_polls(queue_.schedule_poll(t, id, phase), id, id, 1, t, dirty,
               s.shared);
  }

  /// The fiber that popped resume entry `e` runs: its own (kNoFiber for a
  /// stale resume of a finished fiber), or for a poll block the member
  /// that handed back, if one did (run_polls).
  FiberId dispatch(std::uint32_t e) {
    const FiberId id = EventQueue::resume_fiber(e);
    if (EventQueue::is_poll(e)) return run_polls(id, EventQueue::poll_phase(e));
    return fibers_[id].fiber->finished() ? kNoFiber : id;
  }

  /// Runs a popped poll block from its first member `id`, at `phase`. A
  /// clean poll group (or one at a plain step) of two or more members
  /// moves whole; otherwise run_members() steps it in FIFO order up to its
  /// last member, which then steps like a lone poller. Returns the member
  /// that handed back, or kNoFiber.
  FiberId run_polls(FiberId id, std::uint8_t phase);

  /// Steps the members of a popped poll block from `id` up to, not
  /// including, `last`. Each takes exactly one step: the rest of its block
  /// is still pending this cycle, so its wait could never fast-forward.
  /// Each member that stays parked is placed again right after its step,
  /// so all are placed before `last` steps; it is dirty if the block was
  /// (`dirty`) and its step was not a check. If a member hands back, the
  /// members after it go back to the head of the bucket, to run after its
  /// fiber in this same cycle; that member is returned. Otherwise kNoFiber.
  FiberId run_members(FiberId id, FiberId last, std::uint8_t phase,
                      bool dirty);

  /// Parks fiber `self` (the one currently running). If the next event due
  /// is a resume, dispatches it: a poller runs inline and the loop goes
  /// on; `self`'s own resume returns straight into it; another fiber's is
  /// switched into directly — one context switch instead of the
  /// yield-to-scheduler + resume pair — repeating the run loop's skip of
  /// finished fibers. Otherwise yields to the run loop.
  void park_and_dispatch(FiberId self);

  /// Buckets of notify()'s registry: the watchers of keys that hash to
  /// one bucket form a list through their slots.
  static constexpr std::size_t kWatchBuckets = 256;
  static std::size_t watch_bucket(std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 56);
  }

  EventQueue queue_;
  std::vector<Slot> fibers_;
  std::array<FiberId, kWatchBuckets> watch_heads_ = make_watch_heads();
  Cycle now_ = 0;
  Cycle horizon_ = kCycleMax;  ///< run() window; bounds the wait fast path
  FiberId current_ = kNoFiber;
  bool stop_requested_ = false;
  bool fast_forward_enabled_ = true;
  Perturber* perturber_ = nullptr;

  static constexpr std::array<FiberId, kWatchBuckets> make_watch_heads() {
    std::array<FiberId, kWatchBuckets> a{};
    a.fill(kNoFiber);
    return a;
  }
};

}  // namespace hmps::sim
