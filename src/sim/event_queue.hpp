// Deterministic discrete-event queue.
//
// Events are ordered by (time, insertion sequence): two events scheduled for
// the same cycle fire in the order they were scheduled. This total order is
// what makes whole simulations bit-reproducible across runs.
//
// Engine hot path: every simulated cycle flows through schedule()/pop(), so
// events avoid the heap entirely in steady state. Callbacks live inline in
// pooled slots (EventFn below, 48 bytes of storage — every callback the
// simulator itself schedules fits); ordering is done on 32-bit entries (slot
// index or tagged fiber id) by a bucket timing wheel with an overflow heap
// (see EventQueue below), giving O(1) schedule and pop for the near-term
// deltas cycle-level models produce. Code outside the queue never holds a
// reference into the pool: claim() moves a callback out before it runs, so
// the pool may grow (relocating pending callbacks) at any schedule(). Slots
// and wheel links are recycled through free lists, and every vector starts
// empty and grows on first use; once each has reached the high-water mark
// of a run, scheduling allocates nothing. EngineCounters (sim/stats.hpp)
// track the two escape hatches — oversized callbacks spilling to the heap
// and growth of the queue's own vectors — so tests can assert the
// zero-allocation contract instead of assuming it.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace hmps::sim {

/// Move-only callable with small-buffer storage, sized so every callback on
/// the simulator's critical path (fiber resumes, UDN deliveries, model
/// timers) stays inline. Larger callables still work; they spill to a heap
/// allocation, which the event queue counts.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  template <class F>
  static constexpr bool fits_inline =
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  EventFn() = default;

  template <class F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn>, int> = 0>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  /// Constructs the callable directly in this object's storage (destroying
  /// any current one) — the hot path uses this to build callbacks in their
  /// pool slot with no temporary and no relocate call.
  template <class F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if (ops_ && ops_->destroy) ops_->destroy(buf_);
    if constexpr (fits_inline<F> && std::is_trivially_copyable_v<D> &&
                  std::is_trivially_destructible_v<D>) {
      // The common case: captures are pointers and integers. Null
      // relocate/destroy mark "move = memcpy, destroy = no-op", so the only
      // indirect call such an event ever pays is the invoke itself.
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kTrivialOps<D>;
    } else if constexpr (fits_inline<F>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(buf_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& o) noexcept : ops_(o.ops_) {
    if (ops_) {
      if (ops_->relocate == nullptr) {
        __builtin_memcpy(buf_, o.buf_, kInlineBytes);
      } else {
        ops_->relocate(buf_, o.buf_);
      }
      o.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      if (ops_ && ops_->destroy) ops_->destroy(buf_);
      ops_ = o.ops_;
      if (ops_) {
        if (ops_->relocate == nullptr) {
          __builtin_memcpy(buf_, o.buf_, kInlineBytes);
        } else {
          ops_->relocate(buf_, o.buf_);
        }
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  ~EventFn() {
    if (ops_ && ops_->destroy) ops_->destroy(buf_);
  }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the callable at `dst` from `src` and destroys `src`.
    /// nullptr means "memcpy the whole buffer" (trivially-copyable inline).
    void (*relocate)(void* dst, void* src);
    /// nullptr means "no-op" (trivially-destructible inline).
    void (*destroy)(void*);
  };

  template <class D>
  static constexpr Ops kTrivialOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      nullptr,
      nullptr,
  };

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) {
        D* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <class D>
  static constexpr Ops kHeapOps{
      [](void* p) { (**reinterpret_cast<D**>(p))(); },
      [](void* dst, void* src) {
        *reinterpret_cast<D**>(dst) = *reinterpret_cast<D**>(src);
      },
      [](void* p) { delete *reinterpret_cast<D**>(p); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Bucket timing wheel with an overflow heap.
///
/// Near-term events (delta < kWheel cycles, i.e. essentially everything a
/// cycle-level model schedules) go into the wheel bucket `time % kWheel` in
/// O(1). Because simulated time is monotonic and every wheel entry satisfied
/// `t - now < kWheel` when inserted, all live entries of one bucket share a
/// single time value — so a bucket stores that time once plus a FIFO of
/// 4-byte entries threaded through one pool of {entry, next} links shared by
/// every bucket, and its append order IS seq order. Far-future
/// events go to a small 4-ary min-heap and compete with the wheel head by
/// time at pop; on a tie the overflow entry wins, which is exactly the
/// (time, seq) order (see pop_until), so the global total order is preserved
/// bit-for-bit. An occupancy bitmap makes "find the next non-empty bucket" a
/// couple of word scans, and a cached cursor to that bucket makes draining
/// same-cycle runs of events skip the scan entirely.
///
/// Poll blocks: consecutive resumes of parked pollers in one bucket share a
/// single entry (kPollTag | phase | first member; the scheduler threads the
/// members through its fiber table). A poller scheduled into a bucket whose
/// last entry is a block of the same phase joins it — the FIFO position its
/// own entry would have taken; otherwise it starts a new entry. The size
/// and the event counts of EngineCounters still count members, not
/// entries; heap_grows counts the queue's real allocations, so a block's
/// one link can only make it lower than one link per member would.
class EventQueue {
 public:
  using Callback = EventFn;

  /// Queue entries are 32-bit: either a pool-slot index (callback events)
  /// or kResumeTag | fiber id (fiber resumes, which carry no callable at
  /// all — see schedule_resume). The tag bit is what lets the scheduler's
  /// dominant event class skip the callable pool on both ends.
  static constexpr std::uint32_t kResumeTag = 0x8000'0000u;
  /// A poll block: resumes of parked pollers, kPollTag | phase << 28 |
  /// first member. A poll entry is also a resume entry (is_resume). The
  /// phase (0-3) is the scheduler's: only same-phase pollers share a block.
  static constexpr std::uint32_t kPollTag = 0xC000'0000u;
  static constexpr std::uint32_t kPhaseShift = 28;
  /// Fiber ids of resume and poll entries lie below this bound.
  static constexpr std::uint32_t kMaxFibers = 1u << kPhaseShift;
  /// pop_entry() result when the earliest event lies past the horizon.
  static constexpr std::uint32_t kNoEvent = ~std::uint32_t{0};
  /// Wheel buckets per revolution. Covers every delta a cycle-level model
  /// produces (wire latencies, think times); longer timers take the
  /// overflow-heap path, which is merely O(log n), not wrong.
  static constexpr std::size_t kWheel = 1024;

  static bool is_resume(std::uint32_t entry) {
    return (entry & kResumeTag) != 0;
  }
  static bool is_poll(std::uint32_t entry) {
    return (entry & kPollTag) == kPollTag;
  }
  /// The fiber of a resume entry; of a poll entry, its first member.
  static std::uint32_t resume_fiber(std::uint32_t entry) {
    return entry & (kMaxFibers - 1);
  }
  /// The phase of a poll entry.
  static std::uint8_t poll_phase(std::uint32_t entry) {
    return static_cast<std::uint8_t>((entry >> kPhaseShift) & 3u);
  }
  static std::uint32_t poll_entry(std::uint32_t first, std::uint8_t phase) {
    return kPollTag | std::uint32_t{phase} << kPhaseShift | first;
  }

  /// Schedules `cb` to fire at absolute time `t`. A `t` earlier than the
  /// last popped event's time fires "now" (the scheduler never passes one).
  template <class F>
  void schedule(Cycle t, F&& cb) {
    if constexpr (!EventFn::fits_inline<F>) ++counters_.spill_allocs;
    if (t < floor_) t = floor_;
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(pool_.size());
      grow_push(pool_);
    }
    pool_[slot].emplace(std::forward<F>(cb));
    place(t, slot);
  }

  /// Schedules a fiber resume at absolute time `t`. The entry IS the fiber
  /// id (tagged) — no callable is constructed, stored, moved, or invoked,
  /// which matters because resumes are the engine's dominant event class.
  /// Resume entries are only popped via pop_entry(); pop_until()/pop() must
  /// not be used on a queue that holds them.
  void schedule_resume(Cycle t, std::uint32_t fiber_id) {
    if (t < floor_) t = floor_;
    place(t, kResumeTag | fiber_id);
  }

  /// Schedules parked poller `fiber`'s resume at `t` (>= the last popped
  /// time), at `phase`. If bucket t's last entry is a poll block of that
  /// phase, the fiber joins it and that block's first member is returned:
  /// the caller links the fiber behind the block's last member. Otherwise
  /// the fiber gets a poll entry of its own and kNoEvent is returned.
  std::uint32_t schedule_poll(Cycle t, std::uint32_t fiber,
                              std::uint8_t phase) {
    const std::uint32_t joined = place_polls(t, fiber, phase);
    count_scheduled();
    return joined;
  }

  /// schedule_poll() for the members of a popped poll block, first member
  /// `first` (the caller has threaded the rest), all due at `t`. Only a
  /// single member may be bound for the overflow heap (move_polls() keeps
  /// blocks in the wheel). Moves the entries only: the members' counts go
  /// through account_polls().
  std::uint32_t place_polls(Cycle t, std::uint32_t first,
                            std::uint8_t phase) {
    const std::uint32_t entry = poll_entry(first, phase);
    if (t - floor_ < kWheel) {
      const std::size_t idx = t & (kWheel - 1);
      Bucket& b = buckets_[idx];
      constexpr std::uint32_t kTagAndPhase = ~(kMaxFibers - 1);
      if (occupied(idx) &&
          (links_[b.tail].entry & kTagAndPhase) == (entry & kTagAndPhase)) {
        return resume_fiber(links_[b.tail].entry);
      }
      append(idx, t, entry);
    } else {
      push_overflow(t, entry);
    }
    return kNoEvent;
  }

  /// Reschedules a whole popped poll block of `n` >= 2 members, first
  /// member `first`, at `t` (a wheel time) without stepping its members:
  /// the queue work and the counts of a pop whose members all took one step
  /// of the same length and stayed parked (run_members' placements, then
  /// its last member's schedule_poll, which could not fast-forward past the
  /// others).
  /// Returns what place_polls() returns.
  std::uint32_t move_polls(Cycle t, std::uint32_t first, std::uint32_t n,
                           std::uint8_t phase) {
    assert(n >= 2 && t - floor_ < kWheel);
    const std::uint32_t joined = place_polls(t, first, phase);
    account_polls(n - 1);
    ++counters_.polled;
    count_scheduled();
    ++counters_.group_moves;
    counters_.moved_members += n;
    return joined;
  }

  /// Books a popped poll block whose first `n` members stepped and were
  /// scheduled again through place_polls(). Each counts as the polled and
  /// scheduled event its own entry would have been, and the n members
  /// after them, which began (the pop counted the first), as executed
  /// events. While a member runs, every other member is pending, so each
  /// placement saw the queue one deeper than now.
  void account_polls(std::uint64_t n) {
    if (n == 0) return;
    counters_.executed += n;
    counters_.scheduled += n;
    counters_.polled += n;
    ++counters_.poll_blocks;
    counters_.block_members += n + 1;
    if (size_ + 1 > counters_.peak_depth) counters_.peak_depth = size_ + 1;
  }

  /// Puts `entry` back in front of everything pending at the last popped
  /// time: the members of a popped poll block that have not run yet, when
  /// an earlier member hands back to its fiber. Only valid right after that
  /// block was popped from the wheel, before anything else was popped.
  void push_front(std::uint32_t entry) {
    const std::size_t idx = floor_ & (kWheel - 1);
    Bucket& b = buckets_[idx];
    const std::uint32_t l = new_link(entry);
    if (!occupied(idx)) {  // the block was the bucket's last entry
      b.tail = l;
      b.time = floor_;
      occ_[idx / 64] |= 1ull << (idx % 64);
    } else {
      links_[l].next = b.head;
    }
    b.head = l;
    ++wheel_count_;
    cur_ = idx;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// If no pending event fires at or before `t`, advances the queue's time
  /// floor to `t` and returns true: the caller may move the clock straight
  /// to `t` without a schedule/pop round trip, because nothing could have
  /// executed in between — a resume scheduled at `t` would have been the
  /// very next pop. Returns false (queue untouched) when an event at or
  /// before `t` is pending. Raising the floor keeps every invariant: live
  /// wheel entries lie in (t, floor+kWheel) ⊂ [t, t+kWheel), so bucket
  /// sharing and the scan-from-floor both stay exact.
  bool fast_forward(Cycle t) {
    Cycle e = kCycleMax;
    if (wheel_count_ > 0) {
      if (cur_ == kNoBucket) cur_ = locate_min_bucket();
      e = buckets_[cur_].time;
    }
    if (!overflow_.empty() && overflow_.front().time < e) {
      e = overflow_.front().time;
    }
    if (e <= t) return false;
    floor_ = t;
    ++counters_.fast_forwards;
    return true;
  }

  /// Pops the earliest event if its time is <= `horizon`: writes that time
  /// to `*now` and returns its entry (callback slot or tagged fiber id —
  /// see is_resume/claim). Returns kNoEvent (leaving `*now` untouched and
  /// the queue unchanged) when the earliest event lies past the horizon.
  /// Precondition: !empty(). One bucket locate per call — this is the hot
  /// pop path.
  std::uint32_t pop_entry(Cycle horizon, Cycle* now) {
    return pop_entry_impl<false>(horizon, now);
  }

  /// pop_entry, but only when the earliest event is a fiber resume; returns
  /// kNoEvent (queue unchanged) when it is a callback or past the horizon.
  /// This is what lets a blocking fiber chain straight into the next
  /// runnable fiber (Scheduler::park_and_dispatch) without consuming a
  /// callback event it could not execute from a fiber stack.
  std::uint32_t pop_resume(Cycle horizon, Cycle* now) {
    return pop_entry_impl<true>(horizon, now);
  }

  /// Moves out the callback of a popped callback entry (is_resume(entry)
  /// must be false) and recycles its pool slot.
  Callback claim(std::uint32_t entry) {
    Callback cb = std::move(pool_[entry]);
    grow_push(free_slots_, entry);
    return cb;
  }

  /// pop_entry + claim for queues holding only callback events (standalone
  /// EventQueue users; the scheduler pops entries itself to dispatch
  /// resumes inline).
  Callback pop_until(Cycle horizon, Cycle* now) {
    const std::uint32_t e = pop_entry(horizon, now);
    return e == kNoEvent ? Callback{} : claim(e);
  }

  /// Pops and returns the earliest event's callback, advancing `now` out.
  /// Precondition: !empty().
  Callback pop(Cycle* now) { return pop_until(kCycleMax, now); }

  /// Drops all pending events in O(n + wheel size).
  void clear() {
    occ_.fill(0);
    overflow_.clear();
    pool_.clear();
    free_slots_.clear();
    links_.clear();
    free_link_ = kNoLink;
    wheel_count_ = 0;
    size_ = 0;
    cur_ = kNoBucket;
  }

  const EngineCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

  /// Counts a popped resume entry that a poller consumed in place of its
  /// fiber (Scheduler::park_polling).
  void note_polled() { ++counters_.polled; }

 private:
  /// Overflow-heap entry. Wheel buckets need none of this: their time is
  /// stored once per bucket and their FIFO order is their seq order.
  struct Node {
    Cycle time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< entry: pool index or kResumeTag | fiber id
  };

  /// A wheel link: one queue entry and the link behind it in its bucket.
  struct Link { std::uint32_t entry, next; };
  static constexpr std::uint32_t kNoLink = ~std::uint32_t{0};

  /// FIFO of same-time entries (the shared time is stored once), threaded
  /// through links_ from `head` to `tail`; valid while the bucket's occ_ bit
  /// is set. All-zero is a valid empty bucket: the wheel needs no set-up of
  /// its own.
  struct Bucket {
    Cycle time;
    std::uint32_t head, tail;
  };
  static_assert(std::is_trivial_v<Bucket>);

  /// Appends to one of the queue's own vectors, counting in heap_grows each
  /// append that has to reallocate it.
  template <class T, class... A>
  void grow_push(std::vector<T>& v, A&&... a) {
    if (v.size() == v.capacity()) [[unlikely]] ++counters_.heap_grows;
    v.emplace_back(std::forward<A>(a)...);
  }

  bool occupied(std::size_t i) const { return occ_[i / 64] >> (i % 64) & 1; }

  /// A link holding `entry` (its `next` unset), recycled when one is free.
  std::uint32_t new_link(std::uint32_t entry) {
    if (free_link_ == kNoLink) {
      grow_push(links_, Link{entry, kNoLink});
      return static_cast<std::uint32_t>(links_.size() - 1);
    }
    const std::uint32_t l = free_link_;
    free_link_ = links_[l].next;
    links_[l].entry = entry;
    return l;
  }

  static constexpr std::size_t kNoBucket = ~std::size_t{0};

  /// Index of the occupied bucket with the earliest time: the next occupied
  /// bucket at or after floor_ in wheel order. Precondition:
  /// wheel_count_ > 0.
  std::size_t locate_min_bucket() const {
    const std::size_t start = floor_ & (kWheel - 1);
    std::size_t w = start / 64;
    std::uint64_t word = occ_[w] & (~0ull << (start % 64));
    for (;;) {
      if (word != 0) {
        return w * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
      }
      w = (w + 1) % (kWheel / 64);
      word = occ_[w];
      // wheel_count_ > 0 guarantees termination within one revolution.
    }
  }

  template <bool kResumeOnly>
  std::uint32_t pop_entry_impl(Cycle horizon, Cycle* now) {
    std::size_t idx = kNoBucket;
    Cycle wheel_time = kCycleMax;
    if (wheel_count_ > 0) {
      idx = cur_ != kNoBucket ? cur_ : locate_min_bucket();
      wheel_time = buckets_[idx].time;
    }
    std::uint32_t entry;
    if (!overflow_.empty() && overflow_.front().time <= wheel_time) {
      // On a time tie the overflow entry fires first: it was inserted while
      // floor_ <= t - kWheel, and floor_ is monotonic, so every wheel entry
      // at the same time was inserted later and carries a larger seq.
      const Node o = overflow_.front();
      if (o.time > horizon) return kNoEvent;
      if constexpr (kResumeOnly) {
        if (!is_resume(o.slot)) {
          cur_ = idx;
          return kNoEvent;
        }
      }
      pop_overflow();
      cur_ = idx;
      floor_ = o.time;
      *now = o.time;
      entry = o.slot;
    } else {
      if (wheel_time > horizon) {
        cur_ = idx;
        return kNoEvent;
      }
      Bucket& b = buckets_[idx];
      const std::uint32_t l = b.head;
      entry = links_[l].entry;
      if constexpr (kResumeOnly) {
        if (!is_resume(entry)) {
          cur_ = idx;
          return kNoEvent;
        }
      }
      if (l == b.tail) {
        occ_[idx / 64] &= ~(1ull << (idx % 64));
        cur_ = kNoBucket;
      } else {
        b.head = links_[l].next;
        cur_ = idx;
      }
      links_[l].next = free_link_;
      free_link_ = l;
      --wheel_count_;
      floor_ = wheel_time;
      *now = wheel_time;
    }
    --size_;
    ++counters_.executed;
    return entry;
  }

  /// Inserts `entry` (callback slot or tagged fiber id) at time `t` into
  /// the wheel or the overflow heap. Precondition: t >= floor_.
  void place(Cycle t, std::uint32_t entry) {
    if (t - floor_ < kWheel) {
      append(t & (kWheel - 1), t, entry);
    } else {
      push_overflow(t, entry);
    }
    count_scheduled();
  }

  /// Appends `entry`, due at `t`, to wheel bucket `idx`.
  void append(std::size_t idx, Cycle t, std::uint32_t entry) {
    Bucket& b = buckets_[idx];
    const std::uint32_t l = new_link(entry);
    if (occupied(idx)) {
      links_[b.tail].next = l;
    } else {
      b.head = l;
      b.time = t;
      occ_[idx / 64] |= 1ull << (idx % 64);
    }
    b.tail = l;
    ++wheel_count_;
    if (cur_ == kNoBucket) {
      if (wheel_count_ == 1) cur_ = idx;
    } else if (t < buckets_[cur_].time) {
      cur_ = idx;
    }
  }

  void push_overflow(Cycle t, std::uint32_t entry) {
    grow_push(overflow_, Node{t, next_seq_++, entry});
    sift_up(overflow_.size() - 1);
  }

  void count_scheduled() {
    ++size_;
    ++counters_.scheduled;
    if (size_ > counters_.peak_depth) counters_.peak_depth = size_;
  }

  // Strict ordering of the (time, seq) pair; seq values are unique, so this
  // is a total order.
  static bool earlier(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Overflow heap: 4-ary min-heap, children of i are 4i+1..4i+4. Only
  // far-future events (delta >= kWheel) ever live here.
  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) {
    const Node e = overflow_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(e, overflow_[parent])) break;
      overflow_[i] = overflow_[parent];
      i = parent;
    }
    overflow_[i] = e;
  }

  void pop_overflow() {
    const Node last = overflow_.back();
    overflow_.pop_back();
    if (overflow_.empty()) return;
    // Walk the root hole down to `last`'s final position.
    const std::size_t n = overflow_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (earlier(overflow_[c], overflow_[best])) best = c;
      }
      if (!earlier(overflow_[best], last)) break;
      overflow_[i] = overflow_[best];
      i = best;
    }
    overflow_[i] = last;
  }

  std::array<Bucket, kWheel> buckets_{};
  std::array<std::uint64_t, kWheel / 64> occ_{};  ///< bucket occupancy bits
  std::vector<Link> links_;              ///< every bucket's FIFO links
  std::uint32_t free_link_ = kNoLink;    ///< recycled links, via `next`
  std::vector<Node> overflow_;             ///< heap of far-future events
  std::vector<EventFn> pool_;              ///< slot-indexed callable storage
  std::vector<std::uint32_t> free_slots_;  ///< recycled pool slots
  std::size_t wheel_count_ = 0;  ///< events resident in wheel buckets
  std::size_t size_ = 0;
  Cycle floor_ = 0;  ///< time of the last popped event
  /// Cached index of the earliest occupied bucket (kNoBucket = unknown).
  /// Maintained by pop_until/schedule so same-cycle event runs skip the
  /// bitmap scan.
  std::size_t cur_ = kNoBucket;
  std::uint64_t next_seq_ = 0;
  EngineCounters counters_;
};

}  // namespace hmps::sim
