// The simulated hybrid manycore: topology + coherence + memory controllers
// + hardware message passing + per-core state, all driven by one scheduler.
#pragma once

#include <memory>
#include <vector>

#include "arch/coherence.hpp"
#include "arch/core.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "arch/udn.hpp"
#include "arch/vlink.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace hmps::arch {

class Machine {
 public:
  explicit Machine(MachineParams params)
      : params_(std::move(params)),
        faults_(sched_),
        topo_(params_),
        coh_(params_, topo_),
        udn_(params_, topo_, sched_),
        vlink_(params_, topo_, sched_, udn_.noc()),
        cores_(topo_.cores()) {
    // The tracer pointer is one branch on the UDN send path; flow events
    // are only recorded while the tracer is enabled.
    udn_.attach_tracer(&tracer_);
    coh_.attach_watchers(&sched_);
    // Pre-size the event pools from the machine shape: each core keeps at
    // most a few engine events in flight (a pending resume, a UDN delivery,
    // a model timer), and same-cycle bursts are bounded by the core count,
    // the depth each wheel bucket counts as reserved (EventQueue::Bucket;
    // it allocates nothing). A pre-sized queue runs its steady state with
    // zero heap growth (EngineCounters::heap_grows; asserted by
    // bench/engine_micro.cpp).
    const std::size_t n = static_cast<std::size_t>(topo_.cores()) * 8 + 64;
    sched_.reserve_events(n, topo_.cores() + 8);
  }

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineParams& params() const { return params_; }
  const MeshTopology& topo() const { return topo_; }
  CoherenceModel& coherence() { return coh_; }
  UdnModel& udn() { return udn_; }
  VlinkFabric& vlink() { return vlink_; }
  sim::Scheduler& sched() { return sched_; }
  sim::Tracer& tracer() { return tracer_; }
  sim::FaultInjector& faults() { return faults_; }
  const sim::FaultInjector& faults() const { return faults_; }

  /// Installs a fault plan and hooks the injector into the UDN/NoC models.
  /// Call before the simulation starts; a plan with nothing enabled leaves
  /// every model path byte-identical to a plain run.
  void install_faults(const sim::FaultPlan& plan) {
    udn_.attach_faults(&faults_);
    vlink_.attach_faults(&faults_);
    faults_.install(plan, cores());
  }

  /// Core `c`'s state, with the deferred bookkeeping of the spinners
  /// parked on it settled (docs/ENGINE.md "Poll groups"): every read of a
  /// core's counters or account goes through here.
  CoreState& core(sim::Tid c) {
    CoreState& s = cores_[c];
    if (s.parked != sim::Scheduler::kNoFiber) [[unlikely]] settle_parked(s);
    return s;
  }
  std::uint32_t cores() const { return topo_.cores(); }

  /// Zeroes all per-window counters (core accounting + model counters)
  /// without touching functional state, so a measurement can start after
  /// warmup.
  void reset_window_counters() {
    for (sim::Tid c = 0; c < cores(); ++c) core(c).reset_window(sched_.now());
    coh_.reset_counters();
    udn_.reset_counters();
    vlink_.reset_counters();
  }

  /// Idle-fills every core's cycle account up to the current simulated
  /// time, so per-core buckets sum to elapsed cycles. Call before reading
  /// accounts at a window boundary.
  void settle_accounts() {
    const sim::Cycle t = sched_.now();
    for (sim::Tid c = 0; c < cores(); ++c) core(c).account.settle(t);
  }

  /// Closes every core's account at run teardown. Unlike settle_accounts()
  /// this takes the intended end-of-run time: Scheduler::run(horizon)
  /// returns early when the event queue drains (open-loop runs where every
  /// client is suspended awaiting arrivals), so sched().now() can sit
  /// before the horizon and the tail [now, horizon) would never be
  /// idle-filled — under-counting idle on cores that went quiet, and
  /// leaving a never-worked core's account empty instead of all-idle.
  void finalize_accounts(sim::Cycle run_end) {
    const sim::Cycle t = run_end > sched_.now() ? run_end : sched_.now();
    for (sim::Tid c = 0; c < cores(); ++c) core(c).account.finalize(t);
  }

 private:
  // Out of line: core() sits on every simulated operation's path, and
  // a core that holds a parked spinner is rarely the one operating.
  __attribute__((noinline)) void settle_parked(const CoreState& s) {
    sched_.settle_parked(s.parked);
  }

  MachineParams params_;
  sim::Tracer tracer_;
  sim::Scheduler sched_;
  sim::FaultInjector faults_;
  MeshTopology topo_;
  CoherenceModel coh_;
  UdnModel udn_;
  VlinkFabric vlink_;
  std::vector<CoreState> cores_;
};

}  // namespace hmps::arch
