// Deterministic fault injection for the discrete-event machine model.
//
// The paper's Section 6 argues that message-passing synchronization is only
// practical if the unhappy paths — buffer overflow and unlucky scheduling —
// are handled. This layer lets a scenario *exercise* those paths on demand:
// a seeded FaultPlan describes which faults to inject (UDN buffer pressure,
// core preemption windows, delivery delays, NoC link jitter) and the
// FaultInjector realizes them as ordinary discrete events on the simulation
// scheduler. Everything is drawn from per-category xoshiro streams derived
// from the plan seed, so the same seed reproduces the same fault timeline —
// and the same overall event trace — bit for bit (see docs/ROBUSTNESS.md).
//
// With no plan installed the injector is inert: every hook returns its
// neutral value without consuming randomness or scheduling events, so
// faults-off runs are byte-identical to a build without this layer (the
// golden-trace tests in tests/test_determinism.cpp pin this down).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace hmps::sim {

/// Declarative description of the faults a scenario wants injected. All
/// categories are independent; a zero period (or 100% credit) disables the
/// category. Windows and delays are drawn from streams seeded by `seed`.
struct FaultPlan {
  std::uint64_t seed = 1;

  // --- UDN buffer pressure (shrunk credit windows) ---
  // Periodically, for `credit_duration` cycles, the effective per-buffer
  // credit capacity shrinks to credit_pct% of udn_buf_words (but never
  // below credit_floor_words, so the paper's 3-word requests keep
  // trickling). Models transient congestion backing messages into the
  // network.
  Cycle credit_period = 0;        ///< mean gap between windows; 0 = off
  Cycle credit_duration = 0;      ///< window length, cycles
  std::uint32_t credit_pct = 25;  ///< effective capacity during a window
  std::uint32_t credit_floor_words = 6;

  // --- delayed deliveries ---
  // Each message is delayed with probability delay_permille/1000 by a
  // uniform draw in [delay_min, delay_max] cycles, applied before ingress-
  // port serialization (so per-buffer delivery order is preserved).
  std::uint32_t delay_permille = 0;  ///< 0 = off
  Cycle delay_min = 0;
  Cycle delay_max = 0;

  // --- jittered NoC link latencies ---
  // Per-message (default UDN timing) or per-hop (link-contention model)
  // extra latency of up to jitter_max cycles, with probability
  // jitter_permille/1000 per draw.
  std::uint32_t jitter_permille = 0;  ///< 0 = off
  Cycle jitter_max = 0;

  // --- core stalls / preemption windows ---
  // Periodically a core from `preempt_cores` (all cores when empty) is
  // preempted for `preempt_duration` cycles: fibers on it make no progress
  // past their next operation boundary until the window ends. This is the
  // paper's "combiner gets descheduled" scenario (Section 6 / Fig. 4a
  // discussion) made reproducible.
  Cycle preempt_period = 0;    ///< mean gap between windows; 0 = off
  Cycle preempt_duration = 0;  ///< window length, cycles
  std::vector<Tid> preempt_cores;

  bool enabled() const {
    return (credit_period > 0 && credit_duration > 0 && credit_pct < 100) ||
           (delay_permille > 0 && delay_max > 0) ||
           (jitter_permille > 0 && jitter_max > 0) ||
           (preempt_period > 0 && preempt_duration > 0);
  }
};

/// Realizes a FaultPlan on a scheduler and answers the model hooks. Owned by
/// arch::Machine; the UDN/NoC/context models query it on their hot paths
/// (one branch on `active()` when no plan is installed).
class FaultInjector {
 public:
  explicit FaultInjector(Scheduler& sched)
      : sched_(sched), rng_credit_(0), rng_delay_(0), rng_jitter_(0),
        rng_preempt_(0) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs `plan` for a machine with `ncores` cores. Must be called
  /// before the simulation starts (events are scheduled relative to now).
  /// Installing a plan with no category enabled leaves the injector inert.
  void install(const FaultPlan& plan, std::uint32_t ncores);

  bool active() const { return active_; }

  /// Invoked when a credit-pressure window opens or closes; the machine
  /// wires this to the UDN so blocked senders re-check their credits.
  void set_credit_changed(std::function<void()> cb) {
    credit_changed_ = std::move(cb);
  }

  // ---- model hooks (neutral when inactive) ----

  /// Effective credit capacity for a buffer whose hardware capacity is
  /// `base` words.
  std::size_t credit_limit(std::size_t base) const {
    if (!credit_shrunk_) return base;
    std::size_t limit = base * plan_.credit_pct / 100;
    if (limit < plan_.credit_floor_words) limit = plan_.credit_floor_words;
    return limit < base ? limit : base;
  }

  /// Extra delivery latency for one message (consumes randomness only when
  /// the category is enabled).
  Cycle delivery_delay() {
    if (plan_.delay_permille == 0 || plan_.delay_max == 0) return 0;
    if (rng_delay_.below(1000) >= plan_.delay_permille) return 0;
    ++counters_.delayed_messages;
    return plan_.delay_min +
           rng_delay_.below(plan_.delay_max - plan_.delay_min + 1);
  }

  /// Extra wire latency for one message (default UDN timing path).
  Cycle link_jitter() {
    if (plan_.jitter_permille == 0 || plan_.jitter_max == 0) return 0;
    if (rng_jitter_.below(1000) >= plan_.jitter_permille) return 0;
    ++counters_.jittered;
    return 1 + rng_jitter_.below(plan_.jitter_max);
  }

  /// Extra latency for one mesh hop (link-contention model path). Same
  /// stream and knobs as link_jitter, applied at finer granularity.
  Cycle hop_jitter() { return link_jitter(); }

  /// Cycle until which `core` is preempted (0 when it is not).
  Cycle preempt_until(Tid core) const {
    return core < preempt_until_.size() ? preempt_until_[core] : 0;
  }

  struct Counters {
    std::uint64_t credit_windows = 0;    ///< pressure windows opened
    std::uint64_t delayed_messages = 0;  ///< deliveries given extra latency
    std::uint64_t jittered = 0;          ///< link/hop jitter draws that hit
    std::uint64_t preemptions = 0;       ///< preemption windows opened
  };
  const Counters& counters() const { return counters_; }

 private:
  void schedule_credit_window();
  void schedule_preemption();

  /// Schedules `cb` `delay` cycles from now as one of the injector's own
  /// events.
  template <class F>
  void arm(Cycle delay, F cb) {
    ++armed_;
    sched_.at(sched_.now() + delay, [this, cb] {
      --armed_;
      cb();
    });
  }

  /// True while the queue holds an event that is not the injector's own. A
  /// window is re-armed only then: once every fiber has finished or waits
  /// forever, a further window could meet no one and would only keep the
  /// run from draining.
  bool others_pending() const { return sched_.pending() > armed_; }

  /// Next window start: half the period plus a uniform draw, so windows are
  /// aperiodic but the mean gap is ~`period`.
  static Cycle next_gap(Xoshiro256& rng, Cycle period) {
    return period / 2 + rng.below(period + 1);
  }

  Scheduler& sched_;
  FaultPlan plan_;
  bool active_ = false;
  bool credit_shrunk_ = false;
  std::vector<Cycle> preempt_until_;
  std::function<void()> credit_changed_;
  Xoshiro256 rng_credit_, rng_delay_, rng_jitter_, rng_preempt_;
  Counters counters_;
  std::size_t armed_ = 0;  ///< the injector's own events in the queue
};

}  // namespace hmps::sim
