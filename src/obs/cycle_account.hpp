// Per-core cycle accounting: attributes every simulated cycle of a core's
// timeline to exactly one cause bucket.
//
// This is the counter set the paper wishes the TILE-Gx had (Section 5.3:
// "there are no event counters that would provide more fine-grained
// information on the source of stalls"). The simulator knows the cause of
// every wait, so the account is exact: after settle(), the buckets sum to
// the elapsed simulated cycles — an invariant tests assert.
//
// Charging model. A charge covers the half-open interval [start, end) of
// the core's local timeline. The account keeps a watermark of the last
// accounted cycle; a gap between the watermark and `start` is idle time
// (the core had nothing scheduled), and any portion of the interval at or
// before the watermark is clipped (the core was already accounted there —
// this absorbs overlapping charges when several fibers share a core, and
// re-charges that straddle a settle point). Clipping keeps the sum
// invariant unconditional: no charging site can break it.
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace hmps::obs {

using sim::Cycle;

class CycleAccount {
 public:
  enum Bucket : std::uint8_t {
    kCompute = 0,     ///< issue/ALU work, local cache hits
    kCoherenceRead,   ///< waiting for remote data (RMR load)
    kCoherenceWrite,  ///< ownership acquisition / write-buffer drain
    kAtomic,          ///< atomic RMW round trip (incl. controller queueing)
    kUdnSendBlock,    ///< UDN send blocked on backpressure
    kUdnRecvWait,     ///< UDN receive on an empty queue
    kUdnAsyncWait,    ///< reaping an async-delegation ticket (wait/wait_all)
    kSpin,            ///< explicit backoff / cpu_relax spinning
    kPreempted,       ///< injected preemption windows (sim/fault.hpp)
    kSvcQueue,        ///< open-loop queueing delay: arrival to dispatch
    kIdle,            ///< nothing scheduled on this core
    kNumBuckets
  };

  static constexpr const char* bucket_name(Bucket b) {
    switch (b) {
      case kCompute: return "compute";
      case kCoherenceRead: return "coherence-read";
      case kCoherenceWrite: return "coherence-write";
      case kAtomic: return "atomic";
      case kUdnSendBlock: return "udn-send-block";
      case kUdnRecvWait: return "udn-recv-wait";
      case kUdnAsyncWait: return "udn-async-wait";
      case kSpin: return "spin";
      case kPreempted: return "preempted";
      case kSvcQueue: return "svc-queue";
      case kIdle: return "idle";
      default: return "?";
    }
  }

  /// Charges [start, end) to `b`. Any gap below `start` becomes idle; any
  /// overlap with already-accounted time is clipped (see file comment).
  void charge(Bucket b, Cycle start, Cycle end) {
    if (start > mark_) {
      b_[kIdle] += start - mark_;
      mark_ = start;
    }
    if (end <= mark_) return;
    b_[b] += end - mark_;
    mark_ = end;
  }

  /// charge() of back-to-back intervals that tile [start, end), `na` of
  /// their cycles attributed to `a` and the rest to `b`, in O(1).
  /// Precondition: mark() <= start, so no interval is clipped.
  void charge_tiled(Bucket a, Cycle na, Bucket b, Cycle start, Cycle end) {
    b_[kIdle] += start - mark_;
    b_[a] += na;
    b_[b] += end - start - na;
    mark_ = end;
  }

  /// Accounts the tail [mark, now) as idle so total() == now - origin.
  /// Call at window boundaries before reading the buckets.
  void settle(Cycle now) {
    if (now > mark_) {
      b_[kIdle] += now - mark_;
      mark_ = now;
    }
  }

  /// Closes the account at run teardown. Identical idle-fill to settle(),
  /// but also covers a core whose mark never moved (it never received
  /// work): the whole [origin, now) interval becomes idle, keeping
  /// total() == now - origin even when a run ends mid-interval. Kept as a
  /// distinct entry point so teardown sites read as "close the books", and
  /// so the final interval is closed exactly once per run.
  void finalize(Cycle now) { settle(now); }

  /// Moves up to `n` already-charged cycles from `from` to `to`, returning
  /// the amount actually moved (clamped to the source bucket's balance);
  /// total() is invariant. This is the carve-out primitive for derived
  /// causes the charging sites cannot see: the service harness re-labels
  /// the cycles a session core burned waiting on the construction while an
  /// admitted arrival aged in its pending queue as svc-queue
  /// (docs/SERVICE.md) — those cycles are the arrival's queueing delay,
  /// already on the books under the mechanism (udn-recv-wait, spin, ...)
  /// rather than the cause.
  Cycle reclassify(Bucket from, Bucket to, Cycle n) {
    const Cycle m = n < b_[from] ? n : b_[from];
    b_[from] -= m;
    b_[to] += m;
    return m;
  }

  /// Zeroes the buckets and restarts the account at `now`.
  void reset(Cycle now) {
    for (auto& c : b_) c = 0;
    origin_ = mark_ = now;
  }

  Cycle bucket(Bucket b) const { return b_[b]; }

  /// Sum over all buckets; equals mark() - origin() by construction.
  Cycle total() const {
    Cycle t = 0;
    for (const auto c : b_) t += c;
    return t;
  }

  /// The memory-system stall buckets (what Fig. 4a calls "stalled"), one
  /// bit per bucket.
  static constexpr unsigned kStalled = 1u << kCoherenceRead |
                                       1u << kCoherenceWrite | 1u << kAtomic |
                                       1u << kPreempted;

  /// Memory-system stall share: the kStalled buckets' sum.
  Cycle stalled() const {
    Cycle t = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      if (kStalled >> i & 1u) t += b_[i];
    }
    return t;
  }

  /// Everything but idle.
  Cycle active() const { return total() - b_[kIdle]; }

  Cycle origin() const { return origin_; }
  Cycle mark() const { return mark_; }

  /// Bucketwise `*this - prev` for windowed measurement (buckets are
  /// monotonic, so a window is the difference of two snapshots).
  CycleAccount diff_since(const CycleAccount& prev) const {
    CycleAccount d;
    for (int i = 0; i < kNumBuckets; ++i) d.b_[i] = b_[i] - prev.b_[i];
    d.origin_ = prev.mark_;
    d.mark_ = mark_;
    return d;
  }

 private:
  Cycle b_[kNumBuckets] = {};
  Cycle origin_ = 0;  ///< where accounting (re)started
  Cycle mark_ = 0;    ///< last accounted cycle
};

}  // namespace hmps::obs
