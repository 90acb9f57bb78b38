// Per-core execution accounting: the cycle account with its busy/stall
// view, the posted write buffer, and the non-binding prefetch slot.
//
// The split between busy and stalled cycles is what reproduces Fig. 4a of
// the paper; the write buffer and prefetch slot provide the RMR/CS overlap
// that produces Fig. 4c (overheads of the shared-memory approaches shrink
// as the critical section grows).
#pragma once

#include <cassert>
#include <cstdint>

#include "obs/cycle_account.hpp"
#include "sim/types.hpp"

namespace hmps::arch {

struct CoreState {
  // Fibers parked in spin_until on this core, threaded through their
  // scheduler slots (sim::Scheduler::settle_parked). Not a counter: a
  // window reset keeps it. First, beside the counters every operation
  // updates: Machine::core() tests it on each access.
  std::uint32_t parked = ~std::uint32_t{0};

  // The unclipped busy/stall view of the account's buckets, booked by
  // book(): every cycle an operation occupies the core counts, also where
  // the account clips it (fibers sharing the core, a settle inside a
  // receive). The closed loop's per-op server cost reads these.
  sim::Cycle busy = 0;
  sim::Cycle stall = 0;

  // Exact per-cause attribution of the core's timeline (obs layer): after
  // Machine::settle_accounts() the buckets sum to the elapsed simulated
  // cycles. Message waits (udn-recv-wait, udn-async-wait) reach only the
  // account.
  obs::CycleAccount account;

  // Single-entry posted-write buffer (weakly ordered stores). A store miss
  // retires in the background until `wb_ready`; the next store miss or a
  // fence drains it. Stores to the same line coalesce into the draining
  // entry (`wb_line`).
  sim::Cycle wb_ready = 0;
  std::uint64_t wb_line = ~std::uint64_t{0};

  // Non-binding prefetch slot: line being fetched and its arrival time.
  std::uint64_t prefetch_line = ~std::uint64_t{0};
  sim::Cycle prefetch_ready = 0;

  // Event counts (per measurement window): memory operations, and the
  // injected preemption windows this core hit (sim/fault.hpp; zero unless
  // a FaultPlan with preemption is installed).
  std::uint64_t mem_ops = 0;
  std::uint64_t preemptions = 0;

  /// Books [t, t+n) to `b`: charges it on the account and adds n to busy
  /// (compute, spin, udn-send-block) or to stall (CycleAccount::kStalled).
  /// The one place that mapping lives.
  void book(obs::CycleAccount::Bucket b, sim::Cycle t, sim::Cycle n) {
    using B = obs::CycleAccount;
    constexpr unsigned kBusy =
        1u << B::kCompute | 1u << B::kSpin | 1u << B::kUdnSendBlock;
    account.charge(b, t, t + n);
    if (kBusy >> b & 1u) {
      busy += n;
    } else if (B::kStalled >> b & 1u) {
      stall += n;
    }
  }

  /// Zeroes the window counters. The cycle account restarts at `now` (its
  /// watermark must track simulated time, not snap back to zero).
  void reset_window(sim::Cycle now) {
    const std::uint32_t keep = parked;
    *this = CoreState{};
    parked = keep;
    account.reset(now);
  }

  /// One step of a parked spin at `t`, booked as its poller books it: a
  /// hit load of `load_cycles` (a mem op, compute) or a relax (1 cycle,
  /// spin). Returns the step's cycles.
  sim::Cycle spin_step(sim::Cycle t, bool load, sim::Cycle load_cycles) {
    using B = obs::CycleAccount;
    if (load) {
      ++mem_ops;
      book(B::kCompute, t, load_cycles);
      return load_cycles;
    }
    book(B::kSpin, t, 1);
    return 1;
  }

  /// Books the steps of a parked spin that began in [from, to), the first
  /// a load iff `load`, alternating, one by one. `to` ends a step. Returns
  /// whether the step at `to` is a load. The reference for book_spin().
  bool replay_spin(sim::Cycle from, sim::Cycle to, bool load,
                   sim::Cycle load_cycles) {
    for (sim::Cycle t = from; t < to; load = !load) {
      t += spin_step(t, load, load_cycles);
    }
    return load;
  }

  /// replay_spin() in O(1): steps that end at or before the account's
  /// watermark are clipped away whole, so they are counted in pairs; at
  /// most two steps straddle it; the rest tile [t, to) and are charged in
  /// closed form.
  bool book_spin(sim::Cycle from, sim::Cycle to, bool load,
                 sim::Cycle load_cycles) {
    using B = obs::CycleAccount;
    const sim::Cycle pair = 1 + load_cycles;
    sim::Cycle t = from;
    if (account.mark() > t) {
      const sim::Cycle lim = account.mark() < to ? account.mark() : to;
      const sim::Cycle pairs = (lim - t) / pair;
      t += pairs * pair;
      busy += pairs * pair;
      mem_ops += pairs;
      for (; t < to && t < account.mark(); load = !load) {
        t += spin_step(t, load, load_cycles);
      }
    }
    if (t >= to) return load;
    const sim::Cycle span = to - t;
    const sim::Cycle pairs = span / pair;
    const bool odd = span % pair != 0;  // one more step, at the first phase
    assert(!odd || span % pair == (load ? load_cycles : 1));
    const sim::Cycle loads = pairs + (odd && load ? 1 : 0);
    busy += span;
    mem_ops += loads;
    account.charge_tiled(B::kCompute, loads * load_cycles, B::kSpin, t, to);
    return odd ? !load : load;
  }
};

}  // namespace hmps::arch
