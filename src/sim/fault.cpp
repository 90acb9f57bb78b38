#include "sim/fault.hpp"

namespace hmps::sim {

void FaultInjector::install(const FaultPlan& plan, std::uint32_t ncores) {
  plan_ = plan;
  if (!plan_.enabled()) return;
  active_ = true;

  // Independent streams per category: draws in one category never perturb
  // the timeline of another, so e.g. adding delivery delays to a scenario
  // leaves its preemption schedule untouched.
  SplitMix64 sm(plan_.seed);
  rng_credit_.reseed(sm.next());
  rng_delay_.reseed(sm.next());
  rng_jitter_.reseed(sm.next());
  rng_preempt_.reseed(sm.next());

  preempt_until_.assign(ncores, 0);
  if (plan_.preempt_cores.empty()) {
    for (Tid c = 0; c < ncores; ++c) plan_.preempt_cores.push_back(c);
  }

  if (plan_.credit_period > 0 && plan_.credit_duration > 0 &&
      plan_.credit_pct < 100) {
    arm(next_gap(rng_credit_, plan_.credit_period),
        [this] { schedule_credit_window(); });
  }
  if (plan_.preempt_period > 0 && plan_.preempt_duration > 0) {
    arm(next_gap(rng_preempt_, plan_.preempt_period),
        [this] { schedule_preemption(); });
  }
}

void FaultInjector::schedule_credit_window() {
  // Window opens now; close it after the configured duration, then arrange
  // the next one while anything else is pending. Senders already blocked
  // keep waiting (they re-check the shrunk limit); the close callback
  // releases them.
  credit_shrunk_ = true;
  ++counters_.credit_windows;
  if (credit_changed_) credit_changed_();
  arm(plan_.credit_duration, [this] {
    credit_shrunk_ = false;
    if (credit_changed_) credit_changed_();
    if (others_pending()) {
      arm(next_gap(rng_credit_, plan_.credit_period),
          [this] { schedule_credit_window(); });
    }
  });
}

void FaultInjector::schedule_preemption() {
  const Tid core = plan_.preempt_cores[static_cast<std::size_t>(
      rng_preempt_.below(plan_.preempt_cores.size()))];
  const Cycle until = sched_.now() + plan_.preempt_duration;
  // Overlapping windows on the same core extend, never shorten.
  if (until > preempt_until_[core]) preempt_until_[core] = until;
  ++counters_.preemptions;
  if (others_pending()) {
    arm(next_gap(rng_preempt_, plan_.preempt_period),
        [this] { schedule_preemption(); });
  }
}

}  // namespace hmps::sim
