// Unit tests for the discrete-event engine: RNG, event queue, fibers,
// scheduler, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "arch/params.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/event_queue.hpp"
#include "sim/perturb.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace hmps::sim {
namespace {

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowBoundIsRespected) {
  Xoshiro256 r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(51), 51u);
}

TEST(Rng, BelowZeroReturnsZero) {
  Xoshiro256 r(7);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, BetweenInclusive) {
  Xoshiro256 r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RoughlyUniform) {
  Xoshiro256 r(123);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.below(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - n / 50);
    EXPECT_LT(c, n / 10 + n / 50);
  }
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  Cycle t;
  while (!q.empty()) q.pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(t, 30u);
}

TEST(EventQueue, FifoAtSameTime) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.schedule(5, [&order, i] { order.push_back(i); });
  Cycle t;
  while (!q.empty()) q.pop(&t)();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SizeAndClear) {
  EventQueue q;
  q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.clear();
  EXPECT_TRUE(q.empty());
}

// ---- the linked wheel against the per-bucket rule --------------------------
// RefQueue is the event queue as it stood when every wheel bucket owned an
// array of its own: entries in per-bucket deques, the far future in a
// vector searched for its (time, seq) minimum, and the growth rules the
// counters report (the callable pool's and the overflow heap's vector
// capacities; each bucket's doublings from its reserved share), plus the
// growth of the linked wheel's link pool, one link per wheel entry.
class RefQueue {
 public:
  static constexpr std::size_t kWheel = EventQueue::kWheel;
  EngineCounters c;
  std::size_t size = 0;

  void reserve(std::size_t n, std::size_t per_bucket) {
    pool_.reserve(n);
    free_.reserve(n);
    links_.reserve(n);
    if (per_bucket > share_) {
      for (Bucket& b : wheel_) {
        if (b.cap >= per_bucket) continue;
        b.n = static_cast<std::uint32_t>(b.q.size());
        b.cap = static_cast<std::uint32_t>(per_bucket);
      }
      share_ = per_bucket;
    }
    if (per_bucket > 0) far_.reserve(n);
  }

  std::uint32_t schedule(Cycle t, bool spill) {
    if (spill) ++c.spill_allocs;
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if (pool_.size() == pool_.capacity()) ++c.heap_grows;
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(0);
    }
    place(std::max(t, floor_), slot);
    return slot;
  }
  void schedule_resume(Cycle t, std::uint32_t fiber) {
    place(std::max(t, floor_), EventQueue::kResumeTag | fiber);
  }
  std::uint32_t schedule_poll(Cycle t, std::uint32_t fiber,
                              std::uint8_t phase) {
    const std::uint32_t joined = place_polls(t, fiber, 1, phase);
    count_scheduled();
    return joined;
  }
  std::uint32_t place_polls(Cycle t, std::uint32_t first, std::uint32_t n,
                            std::uint8_t phase) {
    const std::uint32_t e = EventQueue::poll_entry(first, phase);
    if (t - floor_ >= kWheel) {
      push_far(t, e);
      return EventQueue::kNoEvent;
    }
    Bucket& b = wheel_[t % kWheel];
    constexpr std::uint32_t kTagAndPhase = ~(EventQueue::kMaxFibers - 1);
    if (!b.q.empty() && (b.q.back() & kTagAndPhase) == (e & kTagAndPhase)) {
      grow(b, n);
      b.n += n;
      return EventQueue::resume_fiber(b.q.back());
    }
    append(t, e, n);
    return EventQueue::kNoEvent;
  }
  std::uint32_t move_polls(Cycle t, std::uint32_t first, std::uint32_t n,
                           std::uint8_t phase) {
    const std::uint32_t joined = place_polls(t, first, n, phase);
    account_polls(n - 1);
    ++c.polled;
    count_scheduled();
    ++c.group_moves;
    c.moved_members += n;
    return joined;
  }
  void account_polls(std::uint64_t n) {
    if (n == 0) return;
    c.executed += n;
    c.scheduled += n;
    c.polled += n;
    ++c.poll_blocks;
    c.block_members += n + 1;
    c.peak_depth = std::max<std::uint64_t>(c.peak_depth, size + 1);
  }
  void push_front(std::uint32_t e) {
    Bucket& b = wheel_[floor_ % kWheel];
    if (b.q.empty()) b.time = floor_;
    take_link();
    b.q.push_front(e);
  }
  bool fast_forward(Cycle t) {
    if (earliest() <= t) return false;
    floor_ = t;
    ++c.fast_forwards;
    return true;
  }
  void note_polled() { ++c.polled; }

  /// Pops the earliest entry; the queue must not be empty.
  std::uint32_t pop(Cycle* now) {
    Bucket* b = first_bucket();
    const auto far = std::min_element(far_.begin(), far_.end());
    std::uint32_t e;
    if (far != far_.end() && (b == nullptr || std::get<0>(*far) <= b->time)) {
      *now = std::get<0>(*far);
      e = std::get<2>(*far);
      far_.erase(far);
    } else {
      *now = b->time;
      e = b->q.front();
      b->q.pop_front();
      --live_links_;
    }
    floor_ = *now;
    --size;
    ++c.executed;
    if (!EventQueue::is_resume(e)) free_.push_back(e);
    return e;
  }

 private:
  struct Bucket {
    std::deque<std::uint32_t> q;
    Cycle time = 0;
    std::uint32_t n = 0;
    std::uint32_t cap = 0;
  };

  Bucket* first_bucket() {
    for (std::size_t i = 0; i < kWheel; ++i) {
      Bucket& b = wheel_[(floor_ + i) % kWheel];
      if (!b.q.empty()) return &b;
    }
    return nullptr;
  }
  Cycle earliest() {
    Cycle e = kCycleMax;
    if (const Bucket* b = first_bucket()) e = b->time;
    for (const auto& f : far_) e = std::min(e, std::get<0>(f));
    return e;
  }
  void grow(Bucket& b, std::uint32_t extra) {
    while (b.n + extra > b.cap) {
      ++c.heap_grows;
      b.cap = b.cap ? 2 * b.cap : 1;
    }
  }
  void append(Cycle t, std::uint32_t e, std::uint32_t n) {
    Bucket& b = wheel_[t % kWheel];
    if (b.q.empty()) b.n = 0;
    take_link();
    grow(b, n);
    b.q.push_back(e);
    b.n += n;
    b.time = t;
  }
  /// The link pool only grows when every link is in use.
  void take_link() {
    if (live_links_++ < links_.size()) return;
    if (links_.size() == links_.capacity()) ++c.heap_grows;
    links_.push_back(0);
  }
  void push_far(Cycle t, std::uint32_t e) {
    if (far_.size() == far_.capacity()) ++c.heap_grows;
    far_.emplace_back(t, seq_++, e);
  }
  void place(Cycle t, std::uint32_t e) {
    if (t - floor_ < kWheel) {
      append(t, e, 1);
    } else {
      push_far(t, e);
    }
    count_scheduled();
  }
  void count_scheduled() {
    ++size;
    ++c.scheduled;
    c.peak_depth = std::max<std::uint64_t>(c.peak_depth, size);
  }

  std::vector<Bucket> wheel_ = std::vector<Bucket>(kWheel);
  std::vector<std::tuple<Cycle, std::uint64_t, std::uint32_t>> far_;
  std::vector<char> pool_;
  std::vector<std::uint32_t> free_;
  std::vector<char> links_;
  std::size_t live_links_ = 0;
  std::size_t share_ = 0;
  Cycle floor_ = 0;
  std::uint64_t seq_ = 0;
};

void expect_same_counters(const EngineCounters& a, const EngineCounters& b,
                          std::uint64_t step) {
  EXPECT_EQ(a.scheduled, b.scheduled) << "step " << step;
  EXPECT_EQ(a.executed, b.executed) << "step " << step;
  EXPECT_EQ(a.spill_allocs, b.spill_allocs) << "step " << step;
  EXPECT_EQ(a.heap_grows, b.heap_grows) << "step " << step;
  EXPECT_EQ(a.peak_depth, b.peak_depth) << "step " << step;
  EXPECT_EQ(a.fast_forwards, b.fast_forwards) << "step " << step;
  EXPECT_EQ(a.polled, b.polled) << "step " << step;
  EXPECT_EQ(a.poll_blocks, b.poll_blocks) << "step " << step;
  EXPECT_EQ(a.block_members, b.block_members) << "step " << step;
  EXPECT_EQ(a.group_moves, b.group_moves) << "step " << step;
  EXPECT_EQ(a.moved_members, b.moved_members) << "step " << step;
}

// Random schedules, resumes, polls, poll-block steps, hand-backs
// (push_front), whole-block moves and fast-forwards, with deltas on both
// sides of kWheel, unreserved and reserved: the linked wheel pops what
// RefQueue pops, keeps every counter equal to it, and runs every event
// (each poll-block member one by one) in (time, schedule order).
TEST(EventQueue, LinkedWheelMatchesPerBucketRule) {
  for (const std::size_t per_bucket : {std::size_t{0}, std::size_t{3}}) {
    EventQueue q;
    RefQueue ref;
    q.reserve(16, per_bucket);
    ref.reserve(16, per_bucket);
    Xoshiro256 rng(41 + per_bucket);
    // Each event has an id (a fiber id for resumes and polls); `pending`
    // holds the (time, seq, id) of every event not yet run.
    std::set<std::tuple<Cycle, std::uint64_t, std::uint32_t>> pending;
    std::vector<std::tuple<Cycle, std::uint64_t>> key;  // by id
    std::map<std::uint32_t, std::vector<std::uint32_t>> blocks;  // by first
    std::uint64_t seq = 0;
    Cycle now = 0;
    std::uint32_t fired = EventQueue::kNoEvent;
    auto add = [&](std::uint32_t id, Cycle t) {
      if (id == key.size()) key.emplace_back();
      key[id] = {t, seq};
      pending.emplace(t, seq++, id);
    };
    auto run = [&](std::uint32_t id) {
      ASSERT_FALSE(pending.empty());
      const auto [t, s] = key[id];
      EXPECT_EQ(*pending.begin(), std::make_tuple(t, s, id));
      EXPECT_EQ(t, now);
      pending.erase({t, s, id});
    };
    auto delta = [&]() -> Cycle {
      const std::uint64_t r = rng.below(16);
      if (r == 0) return EventQueue::kWheel + rng.below(2000);
      if (r == 1) return 0;
      return 1 + rng.below(24);
    };
    // Threads the members `ids` into the block `joined` names, or makes
    // them a block of their own.
    auto link = [&](std::uint32_t joined, std::vector<std::uint32_t> ids) {
      if (joined == EventQueue::kNoEvent) {
        blocks[ids[0]] = std::move(ids);
      } else {
        auto& b = blocks.at(joined);
        b.insert(b.end(), ids.begin(), ids.end());
      }
    };
    auto poll = [&](std::uint32_t id, Cycle t, std::uint8_t phase) {
      add(id, t);
      const std::uint32_t a = q.schedule_poll(t, id, phase);
      ASSERT_EQ(a, ref.schedule_poll(t, id, phase));
      link(a, {id});
    };
    auto place = [&](std::uint32_t id, Cycle t, std::uint8_t phase) {
      add(id, t);
      const std::uint32_t a = q.place_polls(t, id, 1, phase);
      ASSERT_EQ(a, ref.place_polls(t, id, 1, phase));
      link(a, {id});
    };
    // Pops one entry from both queues and runs it; `drain` ends every
    // poller it meets instead of rescheduling it.
    auto pop = [&](bool drain) {
      Cycle t1 = 0, t2 = 0;
      const std::uint32_t e = q.pop_entry(kCycleMax, &t1);
      ASSERT_EQ(e, ref.pop(&t2));
      ASSERT_EQ(t1, t2);
      now = t1;
      if (!EventQueue::is_resume(e)) {
        q.claim(e)();
        run(fired);
        return;
      }
      if (!EventQueue::is_poll(e)) {
        run(EventQueue::resume_fiber(e));
        return;
      }
      const std::uint8_t phase = EventQueue::poll_phase(e);
      const std::uint8_t next = phase ^ 1;
      auto node = blocks.extract(EventQueue::resume_fiber(e));
      std::vector<std::uint32_t> m = std::move(node.mapped());
      const std::uint32_t n = static_cast<std::uint32_t>(m.size());
      const std::uint64_t how = drain ? 1 : rng.below(4);
      if (n >= 2 && how == 0) {  // the whole block moves
        for (const std::uint32_t id : m) run(id);
        const Cycle t = now + 1 + rng.below(24);
        for (const std::uint32_t id : m) add(id, t);
        const std::uint32_t a = q.move_polls(t, m[0], n, next);
        ASSERT_EQ(a, ref.move_polls(t, m[0], n, next));
        link(a, std::move(m));
      } else if (n >= 2 && how == 1) {  // member k hands back to its fiber
        const std::uint32_t k =
            drain ? 0 : static_cast<std::uint32_t>(rng.below(n - 1));
        for (std::uint32_t i = 0; i < k; ++i) {
          run(m[i]);
          place(m[i], now + 1 + rng.below(24), next);
        }
        run(m[k]);
        q.account_polls(k);
        ref.account_polls(k);
        blocks[m[k + 1]].assign(m.begin() + k + 1, m.end());
        q.push_front(EventQueue::poll_entry(m[k + 1], phase));
        ref.push_front(EventQueue::poll_entry(m[k + 1], phase));
      } else {  // every member steps; the last one may end
        for (std::uint32_t i = 0; i + 1 < n; ++i) {
          run(m[i]);
          place(m[i], now + 1 + delta(), next);
        }
        q.account_polls(n - 1);
        ref.account_polls(n - 1);
        run(m[n - 1]);
        if (!drain && rng.below(3) != 0) {
          q.note_polled();
          ref.note_polled();
          poll(m[n - 1], now + delta(), next);
        }
      }
    };

    std::uint32_t next_id = 0;
    for (std::uint64_t step = 0; step < 40'000; ++step) {
      const std::uint64_t op = q.size() > 300 ? 9 : rng.below(11);
      const Cycle t = now + delta();
      const std::uint32_t id = next_id;
      if (op <= 1) {
        add(next_id++, t);
        if (rng.below(50) == 0) {
          std::array<std::uint64_t, 8> big{};  // past the inline buffer
          q.schedule(t, [&fired, id, big] { fired = id + big[0]; });
          ref.schedule(t, true);
        } else {
          q.schedule(t, [&fired, id] { fired = id; });
          ref.schedule(t, false);
        }
      } else if (op <= 3) {
        add(next_id++, t);
        q.schedule_resume(t, id);
        ref.schedule_resume(t, id);
      } else if (op <= 5) {
        ++next_id;
        poll(id, t, static_cast<std::uint8_t>(rng.below(2)));
      } else if (op == 6) {
        const Cycle to = now + rng.below(8);
        const bool moved = q.fast_forward(to);
        ASSERT_EQ(moved, ref.fast_forward(to));
        if (moved) now = to;
      } else if (!q.empty()) {
        pop(false);
      }
      ASSERT_EQ(q.size(), ref.size);
      expect_same_counters(q.counters(), ref.c, step);
      if (HasFailure()) return;
    }
    while (!q.empty()) {
      pop(true);
      ASSERT_EQ(q.size(), ref.size);
    }
    expect_same_counters(q.counters(), ref.c, 0);
    EXPECT_TRUE(pending.empty());
    EXPECT_GT(q.counters().group_moves, 0u);
    EXPECT_GT(q.counters().poll_blocks, 0u);
    EXPECT_GT(q.counters().fast_forwards, 0u);
    EXPECT_GT(q.counters().heap_grows, 0u);
  }
}

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  f.resume();
  EXPECT_EQ(x, 42);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, YieldAndResume) {
  int step = 0;
  Fiber* self = nullptr;
  Fiber f([&] {
    step = 1;
    self->yield();
    step = 2;
  });
  self = &f;
  f.resume();
  EXPECT_EQ(step, 1);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_EQ(step, 2);
  EXPECT_TRUE(f.finished());
}

TEST(Scheduler, AdvancesTime) {
  Scheduler s;
  Cycle seen = 0;
  s.spawn([&] {
    s.wait_for(100);
    seen = s.now();
  });
  s.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Scheduler, InterleavesFibersDeterministically) {
  Scheduler s;
  std::vector<int> order;
  s.spawn([&] {
    for (int i = 0; i < 3; ++i) {
      order.push_back(0);
      s.wait_for(10);
    }
  });
  s.spawn([&] {
    for (int i = 0; i < 3; ++i) {
      order.push_back(1);
      s.wait_for(10);
    }
  });
  s.run();
  // Fiber 0 starts at cycle 0, fiber 1 at cycle... both spawned at start=0;
  // ties resolve in spawn order.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(Scheduler, SuspendWake) {
  Scheduler s;
  Cycle resumed_at = 0;
  Scheduler::FiberId sleeper = s.spawn([&] {
    s.suspend();
    resumed_at = s.now();
  });
  s.spawn([&] {
    s.wait_for(500);
    s.wake_now(sleeper);
  });
  s.run();
  EXPECT_EQ(resumed_at, 500u);
}

TEST(Scheduler, HorizonStopsRun) {
  Scheduler s;
  int count = 0;
  s.spawn([&] {
    for (;;) {
      ++count;
      s.wait_for(10);
    }
  });
  const Cycle end = s.run(95);
  EXPECT_EQ(end, 95u);
  EXPECT_EQ(count, 10);  // ticks at 0,10,...,90
  s.run(200);
  EXPECT_EQ(count, 21);  // resumes where it left off
}

TEST(Scheduler, StopFromFiber) {
  Scheduler s;
  s.spawn([&] {
    s.wait_for(10);
    s.stop();
  });
  s.spawn([&] {
    for (;;) s.wait_for(1);
  });
  const Cycle end = s.run();
  EXPECT_EQ(end, 10u);
}

TEST(Scheduler, ExternalCallbackAt) {
  Scheduler s;
  bool fired = false;
  s.at(7, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 7u);
}

TEST(Stats, SummaryBasics) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Stats, SummaryMerge) {
  Summary a, b, all;
  for (int i = 0; i < 50; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 50; i < 100; ++i) {
    b.add(i * 2.0);
    all.add(i * 2.0);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_EQ(a.sum(), all.sum()) << "merged sum must be the exact running sum";
}

TEST(Stats, SummaryCarriesExactRunningSum) {
  // sum() used to be reconstructed as mean * n, which loses low-order bits
  // through Welford's divisions; it must instead equal the plain
  // left-to-right accumulation of what was added, bit for bit.
  Summary s;
  double expect = 0.0;
  double v = 0.1;
  for (int i = 0; i < 1000; ++i) {
    s.add(v);
    expect += v;
    v = v * 1.01 + 0.001;  // non-uniform values exercise the divisions
  }
  EXPECT_EQ(s.sum(), expect);
  // Mixed magnitudes: a huge value dwarfing the rest must not erase them
  // any more than plain accumulation would.
  Summary m;
  double expect2 = 0.0;
  for (double x : {1e15, 1.0, 2.0, 3.0, -1e15}) {
    m.add(x);
    expect2 += x;
  }
  EXPECT_EQ(m.sum(), expect2);
}

TEST(Stats, HistogramQuantiles) {
  Histogram h(10, 100);
  for (int i = 0; i < 1000; ++i) h.add(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 500.0, 20.0);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.99)), 990.0, 20.0);
}

TEST(Stats, HistogramOverflowBucket) {
  Histogram h(1, 10);
  h.add(1000000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.quantile(1.0), 10u);
}

// ---- wait_until fast path vs externally scheduled arrivals ----
//
// The open-loop service harness schedules arrival callbacks with at() that
// land *inside* fibers' wait_until windows and wake suspended fibers. The
// fast path raises the event-queue floor when a wait finds no event due at
// or before its target; a pending arrival inside the window must block the
// raise, or the arrival would be delivered late (or land in a recycled
// wheel bucket). This pins the whole interleaving — a golden-trace
// fingerprint of every delivery and dispatch — to the reference mode with
// the fast path disabled (set_fast_forward_enabled), where every wait
// round-trips through the event queue.

struct TraceFp {
  std::uint64_t h = 14695981039346656037ull;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

std::uint64_t arrivals_inside_wait_windows_fp(bool fast_forward,
                                              std::uint64_t* fast_forwards) {
  constexpr int kSessions = 3;
  constexpr int kArrivals = 120;
  Scheduler s;
  s.set_fast_forward_enabled(fast_forward);
  TraceFp fp;
  Xoshiro256 gaps(2026);
  std::deque<Cycle> pend[kSessions];
  bool waiting[kSessions] = {};
  Scheduler::FiberId fid[kSessions] = {};
  std::function<void(Cycle, int)> arrive = [&](Cycle t, int k) {
    const int sess = k % kSessions;
    fp.mix(0xA0u + static_cast<std::uint64_t>(sess));
    fp.mix(t);
    pend[sess].push_back(t);
    if (waiting[sess]) {
      waiting[sess] = false;
      s.wake(fid[sess], t);
    }
    if (k + 1 < kArrivals) {
      const Cycle nt = t + 1 + gaps.below(40);
      s.at(nt, [&arrive, nt, k] { arrive(nt, k + 1); });
    }
  };
  for (int i = 0; i < kSessions; ++i) {
    fid[i] = s.spawn([&, i] {
      Xoshiro256 service(77 + i);
      int handled = 0;
      while (handled < kArrivals / kSessions) {
        if (pend[i].empty()) {
          waiting[i] = true;
          s.suspend();
          continue;
        }
        const Cycle t_arr = pend[i].front();
        pend[i].pop_front();
        fp.mix(static_cast<std::uint64_t>(i));
        fp.mix(s.now());
        fp.mix(s.now() - t_arr);
        // The wait window an arrival can land inside.
        s.wait_for(1 + service.below(25));
        ++handled;
      }
    });
  }
  s.at(5, [&arrive] { arrive(5, 0); });
  s.run();
  if (fast_forwards) *fast_forwards = s.engine_counters().fast_forwards;
  return fp.h;
}

TEST(Scheduler, ArrivalsInsideWaitWindowsMatchFastForwardOff) {
  std::uint64_t ffwd_on = 0, ffwd_off = 0;
  const std::uint64_t fast = arrivals_inside_wait_windows_fp(true, &ffwd_on);
  const std::uint64_t ref = arrivals_inside_wait_windows_fp(false, &ffwd_off);
  EXPECT_EQ(fast, ref);
  // The comparison only means something if the fast path actually engaged
  // in the default mode — and never in the reference mode.
  EXPECT_GT(ffwd_on, 0u);
  EXPECT_EQ(ffwd_off, 0u);
}

// ---- parked pollers (Scheduler::park_polling) ----
//
// Fiber 0 takes 40 one-cycle steps, either as a plain wait_for loop or as a
// poller that takes the same steps from inside the scheduler; fiber 1 hops
// three cycles at a time. With the poller, fiber 1's park runs fiber 0's
// resumes inline until fiber 1's own resume is the next entry: the
// scheduler must return straight into fiber 1 (it cannot switch_to
// itself). With the fast path off the plain loop reaches the same edge
// without any poller. Either way the interleaving must not change.

struct PollSteps {
  Scheduler* s;
  TraceFp* fp;
  int left;
};

Cycle poll_steps(void* rec) {
  PollSteps& x = *static_cast<PollSteps*>(rec);
  x.fp->mix(0x5000 + x.s->now());
  if (--x.left == 0) return Scheduler::kHandBack;
  return 1;
}

std::uint64_t poller_edge_fp(bool poller, bool fast_forward,
                             std::uint64_t* polled) {
  Scheduler s;
  s.set_fast_forward_enabled(fast_forward);
  TraceFp fp;
  PollSteps steps{&s, &fp, 40};
  s.spawn([&] {
    if (poller) {
      s.park_polling(&poll_steps, steps);  // the poller steps a copy
    } else {
      for (;;) {
        fp.mix(0x5000 + s.now());
        if (--steps.left == 0) break;
        s.wait_for(1);
      }
    }
    fp.mix(0xD000 + s.now());
  });
  s.spawn([&] {
    for (int i = 0; i < 10; ++i) {
      fp.mix(0x7000 + s.now());
      s.wait_for(3);
    }
  });
  s.run();
  *polled = s.engine_counters().polled;
  return fp.h;
}

TEST(Scheduler, ParkedPollerMatchesPlainFiberLoop) {
  for (const bool ff : {true, false}) {
    std::uint64_t polled_plain = 0, polled = 0;
    const std::uint64_t ref = poller_edge_fp(false, ff, &polled_plain);
    EXPECT_EQ(poller_edge_fp(true, ff, &polled), ref) << "fast path " << ff;
    EXPECT_EQ(polled_plain, 0u);
    EXPECT_GT(polled, 0u);
  }
}

// ---- poll blocks (docs/ENGINE.md, "Poll blocks") ----
//
// A waiter watches a word. Each step, while the word still holds `seen`
// and steps are left, it mixes (id, now) into the trace and waits the next
// of its two alternating waits; otherwise it hands back to its fiber. Run
// as a parked poller (park_polling) or as a plain wait_for loop, a scenario
// must leave the same trace and the same engine counters: the plain loop
// is the reference order, one queue entry per step. Its state lives
// outside the poll record so the fiber sees it after a hand-back.

struct WaitState {
  std::uint32_t id;
  std::uint64_t seen;
  std::uint32_t left;  ///< steps before handing back on its own
  Cycle waits[2];
  std::uint32_t phase = 0;
};

struct WaitRec {
  Scheduler* s;
  TraceFp* fp;
  const std::uint64_t* word;
  WaitState* st;
};

Cycle wait_step(void* rec) {
  const WaitRec& r = *static_cast<const WaitRec*>(rec);
  WaitState& w = *r.st;
  if (*r.word != w.seen || w.left == 0) return Scheduler::kHandBack;
  --w.left;
  r.fp->mix((std::uint64_t{w.id} << 32) | r.s->now());
  const Cycle d = w.waits[w.phase];
  w.phase ^= 1;
  return d;
}

void wait_on(bool poller, WaitRec r) {
  if (poller) {
    r.s->park_polling(&wait_step, r);
    return;
  }
  for (Cycle d; (d = wait_step(&r)) != Scheduler::kHandBack;) {
    r.s->wait_for(d);
  }
}

/// A scenario's observables: the trace and every engine counter the plain
/// loop also keeps.
struct BlockRun {
  std::uint64_t fp = 0;
  EngineCounters ec;
};

void expect_same_run(const BlockRun& got, const BlockRun& ref) {
  EXPECT_EQ(got.fp, ref.fp);
  EXPECT_EQ(got.ec.executed, ref.ec.executed);
  EXPECT_EQ(got.ec.scheduled, ref.ec.scheduled);
  EXPECT_EQ(got.ec.peak_depth, ref.ec.peak_depth);
  EXPECT_EQ(got.ec.heap_grows, ref.ec.heap_grows);
  EXPECT_EQ(got.ec.fast_forwards, ref.ec.fast_forwards);
  EXPECT_EQ(ref.ec.polled, 0u);
  EXPECT_EQ(ref.ec.poll_blocks, 0u);
}

/// Runs `scenario(s, fp, poller)` as pollers and as plain loops, with the
/// fast path on and off, and compares each pair. Returns the pollers' run
/// with the fast path on.
template <class Scenario>
BlockRun expect_blocks_match_plain_loop(Scenario scenario) {
  BlockRun fast{};
  for (const bool ff : {true, false}) {
    BlockRun runs[2];
    for (const bool poller : {false, true}) {
      Scheduler s;
      s.set_fast_forward_enabled(ff);
      TraceFp fp;
      scenario(s, fp, poller);
      runs[poller] = {fp.h, s.engine_counters()};
    }
    SCOPED_TRACE(ff ? "fast path on" : "fast path off");
    expect_same_run(runs[1], runs[0]);
    EXPECT_GT(runs[1].ec.polled, 0u);
    EXPECT_GT(runs[1].ec.poll_blocks, 0u);
    if (ff) fast = runs[1];
  }
  return fast;
}

// Four waiters share one block at cycle 10, and a plain fiber's resume
// follows the block in that cycle. Waiter 1's word flipped at cycle 5, so
// it hands back mid-block; its fiber then flips waiter 2's word in the
// same cycle. The rest of the block must stay ahead of the plain fiber and
// run after waiter 1's fiber: waiter 2 sees the store and hands back, and
// waiter 3 steps before the plain fiber flips its word.
TEST(Scheduler, PollBlockHandBackMidBlockSeesFiberStore) {
  expect_blocks_match_plain_loop([](Scheduler& s, TraceFp& fp, bool poller) {
    std::uint64_t words[4] = {};
    WaitState st[4];
    for (std::uint32_t i = 0; i < 4; ++i) {
      st[i] = WaitState{i, 0, 6, {10, 10}};
      s.spawn([&, i, poller] {
        wait_on(poller, WaitRec{&s, &fp, &words[i], &st[i]});
        fp.mix(0xD000 + (std::uint64_t{i} << 32) + s.now());
        if (i == 1) words[2] = 1;
      });
    }
    s.spawn([&] {
      s.wait_for(10);
      fp.mix(0xE000 + s.now());
      words[3] = 1;
    });
    s.spawn([&] {
      s.wait_for(5);
      words[1] = 1;
    });
    s.run();
  });
}

// Six waiters alternate 1- and 3-cycle waits, half of them starting on
// the other phase: every block splits into two runs, one per wait, and
// the runs join blocks already waiting in their target buckets.
TEST(Scheduler, PollBlockSplitsAcrossWaits) {
  const BlockRun run =
      expect_blocks_match_plain_loop([](Scheduler& s, TraceFp& fp,
                                        bool poller) {
        std::uint64_t word = 0;
        WaitState st[6];
        for (std::uint32_t i = 0; i < 6; ++i) {
          st[i] = WaitState{i, 0, 40, {1, 3}, i % 2};
          s.spawn([&, i, poller] {
            wait_on(poller, WaitRec{&s, &fp, &word, &st[i]});
            fp.mix(0xD000 + (std::uint64_t{i} << 32) + s.now());
          });
        }
        s.run();
      });
  EXPECT_GT(run.ec.block_members, 2 * run.ec.poll_blocks);
}

// Waiters A and B share a block at cycle 2. A then waits 5 cycles; B, the
// block's last member, waits 1 and 2 cycles in turn and fast-forwards
// until A's entry at cycle 7 is due, as a lone poller would.
TEST(Scheduler, PollBlockLastMemberFastForwards) {
  const BlockRun run =
      expect_blocks_match_plain_loop([](Scheduler& s, TraceFp& fp,
                                        bool poller) {
        std::uint64_t word = 0;
        WaitState a{0, 0, 8, {2, 5}}, b{1, 0, 30, {2, 1}};
        s.spawn([&, poller] { wait_on(poller, {&s, &fp, &word, &a}); });
        s.spawn([&, poller] { wait_on(poller, {&s, &fp, &word, &b}); });
        s.run();
      });
  EXPECT_GT(run.ec.fast_forwards, 0u);
}

// Waiter 1 hands back mid-block at cycle 10 and its fiber calls stop():
// run() must return with waiters 2 and 3 still due at cycle 10, and the
// next run() must step them there.
TEST(Scheduler, PollBlockStopFromHandedBackMember) {
  expect_blocks_match_plain_loop([](Scheduler& s, TraceFp& fp, bool poller) {
    std::uint64_t words[4] = {};
    WaitState st[4];
    for (std::uint32_t i = 0; i < 4; ++i) {
      st[i] = WaitState{i, 0, 5, {10, 10}};
      s.spawn([&, i, poller] {
        wait_on(poller, WaitRec{&s, &fp, &words[i], &st[i]});
        fp.mix(0xD000 + (std::uint64_t{i} << 32) + s.now());
        if (i == 1) s.stop();
      });
    }
    s.spawn([&] {
      s.wait_for(5);
      words[1] = 1;
    });
    int runs = 0;
    while (s.engine_counters().executed < s.engine_counters().scheduled) {
      fp.mix(0xF000 + s.run());
      ++runs;
    }
    EXPECT_EQ(runs, 2);
  });
}

// After its first hand-back, fiber 1 parks again between waiters 0 and 2,
// and its own park pops the block it is in: when it hands back mid-block
// (its steps run out), the scheduler returns straight into it, and waiter
// 2 steps after it in the same cycle.
TEST(Scheduler, PollBlockOwnEntryInsideBlock) {
  expect_blocks_match_plain_loop([](Scheduler& s, TraceFp& fp, bool poller) {
    std::uint64_t word = 0;
    WaitState st[3];
    for (std::uint32_t i = 0; i < 3; ++i) {
      st[i] = WaitState{i, 0, i == 1 ? 4u : 12u, {1, 1}};
      s.spawn([&, i, poller] {
        wait_on(poller, WaitRec{&s, &fp, &word, &st[i]});
        fp.mix(0xD000 + (std::uint64_t{i} << 32) + s.now());
        if (i != 1) return;
        st[i].left = 3;
        wait_on(poller, WaitRec{&s, &fp, &word, &st[i]});
        fp.mix(0xD100 + s.now());
      });
    }
    s.run();
  });
}


// Two spinners on each of two cores (SimCtx::spin_until), parked behind
// pollers whose blocks mix relax and hit-load steps and both cores; a
// writer on core 0 flips their words at random times. Against the same
// run under a zero perturber (the plain loop, docs/TESTING.md), every
// spinner must see each value at the same cycle and every core's
// bookkeeping must match.
class ZeroPerturber final : public Perturber {
 public:
  Cycle resume_delay(std::uint32_t, Cycle) override { return 0; }
  Cycle point_delay(std::uint32_t, std::uint32_t, const char*,
                    Cycle) override {
    return 0;
  }
};

struct SpinRun {
  std::uint64_t fp = 0;
  std::vector<Cycle> busy;
  std::vector<std::uint64_t> mem_ops;
  std::uint64_t hits = 0;
  EngineCounters ec;
};

SpinRun run_two_spinners_per_core(Perturber* perturber) {
  constexpr std::uint32_t kSpinners = 4;
  rt::SimExecutor ex(arch::MachineParams::tilegx_small(2, 1), 3);
  if (perturber != nullptr) ex.sched().set_perturber(perturber);
  struct alignas(rt::kCacheLine) Line {
    rt::Word w{0};
  };
  Line lines[kSpinners];
  TraceFp fp;
  for (std::uint32_t i = 0; i < kSpinners; ++i) {
    ex.add_thread([&, i](rt::SimCtx& ctx) {
      for (std::uint64_t seen = 0; seen < 25;) {
        seen = ctx.spin_until(&lines[i].w,
                              [seen](std::uint64_t v) { return v != seen; });
        fp.mix((std::uint64_t{i} << 56) ^ (seen << 40) ^ ctx.now());
      }
    });
  }
  ex.add_thread([&](rt::SimCtx& ctx) {
    for (std::uint64_t k = 0; k < 25 * kSpinners; ++k) {
      ctx.compute(1 + ctx.rand_below(40));
      ctx.store(&lines[k % kSpinners].w, k / kSpinners + 1);
    }
  });
  ex.run_until(1'000'000);
  SpinRun r;
  r.fp = fp.h;
  for (std::uint32_t c = 0; c < ex.machine().cores(); ++c) {
    r.busy.push_back(ex.machine().core(c).busy);
    r.mem_ops.push_back(ex.machine().core(c).mem_ops);
  }
  r.hits = ex.machine().coherence().counters().hits;
  r.ec = ex.sched().engine_counters();
  return r;
}

TEST(Scheduler, PollBlockTwoSpinnersOnOneCore) {
  ZeroPerturber zero;
  const SpinRun ref = run_two_spinners_per_core(&zero);
  const SpinRun got = run_two_spinners_per_core(nullptr);
  EXPECT_EQ(got.fp, ref.fp);
  EXPECT_EQ(got.busy, ref.busy);
  EXPECT_EQ(got.mem_ops, ref.mem_ops);
  EXPECT_EQ(got.hits, ref.hits);
  EXPECT_EQ(got.ec.executed, ref.ec.executed);
  EXPECT_EQ(got.ec.scheduled, ref.ec.scheduled);
  EXPECT_EQ(got.ec.peak_depth, ref.ec.peak_depth);
  EXPECT_EQ(got.ec.fast_forwards, ref.ec.fast_forwards);
  EXPECT_GT(got.ec.poll_blocks, 0u);
  EXPECT_EQ(ref.ec.poll_blocks, 0u);
}

}  // namespace
}  // namespace hmps::sim
