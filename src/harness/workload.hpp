// The closed-loop driver reproducing the paper's methodology (Section
// 5.2): T application threads repeatedly operate on one concurrent object,
// with a random think time of up to 50 empty-loop iterations after every
// operation; threads are pinned thread i -> core i; server approaches
// dedicate thread 0 (and thread 1 for the two-lock queue's second server);
// MAX_OPS defaults to 200; results are averaged over `reps` measurement
// windows after a warmup.
//
// It stands on the harness's one run frame (harness/driver.hpp), with the
// open-loop service (service.hpp) and the history recorder (record.hpp):
// the frame builds the executor and the construction, spawns the clients
// and issues their ops (async trains with `async_batch` >= 2), and writes
// the run entry. What is the closed loop's own is its op mix, the think
// time and the windowed snapshots (throughput per window, latency,
// fairness, the servicing core's cycles).
//
// Throughput is reported in Mops/s at the TILE-Gx clock (1.2 GHz), i.e.
// ops/cycle * 1200, so numbers are directly comparable with the paper's
// figures.
#pragma once

#include <cstdint>
#include <string>

#include "arch/params.hpp"
#include "obs/cycle_account.hpp"
#include "sim/fault.hpp"
#include "sim/types.hpp"

namespace hmps::sim {
class Tracer;
}
namespace hmps::obs {
class MetricsRegistry;
}

namespace hmps::harness {

/// Universal-construction approaches (Fig. 3/4), classic-lock ablations
/// (Section 3 context), the rest of the combining lineage and the HybComb
/// design ablations of Section 4.2.
enum class Approach {
  kMpServer,
  kHybComb,
  kShmServer,
  kCcSynch,
  kMcsLock,
  kClhLock,
  kTicketLock,
  kTasLock,
  kTtasLock,
  kVlinkServer,  ///< delegation over the Virtual-Link MPMC transport
  kOyama,
  kFlatCombining,  ///< max_ops / 2 combining passes
  kDsmSynch,
  kHSynch,
  kHybCombSwap,     ///< SWAP instead of CAS for combiner registration
  kHybCombNoDrain,  ///< no eager drain before closing registration
};

const char* approach_name(Approach a);
bool approach_needs_server(Approach a);

/// Queue implementations of Fig. 5a (kVl1 = Virtual-Link transport).
enum class QueueImpl { kMp1, kHyb1, kShm1, kCc1, kMp2, kLcrq, kVl1 };
const char* queue_name(QueueImpl q);

/// Stack implementations of Fig. 5b (kVl = Virtual-Link transport).
enum class StackImpl { kMp, kHyb, kShm, kCc, kTreiber, kVl };
const char* stack_name(StackImpl s);

/// Observability sinks for one benchmark run (see harness/artifact.hpp for
/// the per-binary plumbing). All pointers are optional and not owned; with
/// everything null the run behaves exactly as before.
struct RunObs {
  sim::Tracer* trace = nullptr;  ///< merged destination for the run's trace
  obs::MetricsRegistry* metrics = nullptr;  ///< artifact to add a run entry to
  const char* label = "";        ///< run label (row name in the artifact)
  std::uint32_t pid = 0;         ///< Chrome-trace pid for this run's events
  std::size_t trace_max_events = 200'000;  ///< per-run tracer cap
};

struct RunCfg {
  arch::MachineParams machine = arch::MachineParams::tilegx36();
  std::uint32_t app_threads = 1;    ///< application threads (servers extra)
  sim::Cycle warmup = 60'000;
  sim::Cycle window = 200'000;
  std::uint32_t reps = 3;
  std::uint64_t seed = 1;
  std::uint64_t max_ops = 200;        ///< MAX_OPS for the combiners
  std::uint32_t think_iters_max = 50; ///< Section 5.2 local work
  sim::Cycle think_iter_cost = 2;     ///< cycles per empty-loop iteration
  std::uint64_t cs_iters = 0;         ///< >0: Fig. 4c array-increment CS
  bool fixed_combiner = false;        ///< Fig. 4a variant (MAX_OPS = inf)
  sim::FaultPlan faults{};            ///< deterministic fault injection
                                      ///< (all off by default)
  std::uint64_t max_inflight = 0;     ///< Section 6 overflow guard for
                                      ///< MP-SERVER/HYBCOMB (0 = off)
  sim::Cycle stall_timeout = 0;       ///< HYBCOMB combiner-stall knob
  std::uint32_t async_batch = 0;      ///< >= 2: clients issue trains of this
                                      ///< many apply_async() requests via
                                      ///< sync::AsyncBatcher (counter runs
                                      ///< of the constructions with tickets
                                      ///< and the MP1 queue). 0/1 = classic
                                      ///< synchronous apply().
  sim::Cycle telemetry_window = 0;    ///< >0: obs::Telemetry sampling cadence
                                      ///< in cycles; the artifact run gains a
                                      ///< `telemetry` block (0 = off, no
                                      ///< events scheduled)
  RunObs obs{};                       ///< observability sinks (all off)
};

struct RunResult {
  double mops = 0;            ///< throughput, Mops/s @ 1.2 GHz
  double mops_std = 0;        ///< across reps
  double lat_mean = 0;        ///< mean request latency, cycles
  double lat_p50 = 0;         ///< median request latency, cycles
  double lat_p99 = 0;         ///< 99th-percentile request latency, cycles
  double serv_total_per_op = 0;  ///< (busy+stall)/op at the servicing core
  double serv_stall_per_op = 0;  ///< stall/op at the servicing core
  double combining_rate = 0;  ///< requests per combining round (Fig. 4b)
  double cas_per_op = 0;      ///< CAS executions per apply (Section 5.3)
  double fairness = 0;        ///< max/min per-thread ops (Section 5.3)
  double msgs_per_op = 0;
  double ctrl_wait_per_op = 0;   ///< memory-controller queueing per op
  double cycles_per_op = 0;   ///< window*threads... == 1200/mops per thread
  std::uint64_t total_ops = 0;
  // Section 6 robustness counters (nonzero only with the guards/faults on):
  std::uint64_t throttle_waits = 0;  ///< spins for an in-flight credit
  std::uint64_t stall_timeouts = 0;  ///< combiner-stall timeouts observed
  std::uint64_t preemptions = 0;     ///< injected preemption windows hit
  // Exact cycle attribution of the servicing core (core 0) over the
  // measurement windows: buckets sum to reps * window by construction
  // (fig4a reads its stall breakdown straight from this).
  obs::CycleAccount serv_account{};
  double serv_ops = 0;  ///< ops the servicing core's account is divided by
  // Open-loop service metrics, filled only by run_service()
  // (harness/service.hpp; zero elsewhere). Sojourn = completion - arrival;
  // lat_p50/p99 above hold the sojourn percentiles for service runs.
  double offered_mops = 0;       ///< offered load realized by the arrival
                                 ///< process over the measurement window
  double lat_p999 = 0;           ///< 99.9th-percentile sojourn, cycles
  double lat_max = 0;            ///< worst sojourn observed, cycles
  double queue_delay_mean = 0;   ///< arrival -> dispatch, cycles
  double service_mean = 0;       ///< dispatch -> completion, cycles
  std::uint64_t arrivals = 0;    ///< admitted arrivals in the window
  std::uint64_t shed_ops = 0;    ///< arrivals dropped by admission control
};

/// Concurrent counter under the given approach (Figs. 3a-c, 4a-b; with
/// cfg.cs_iters > 0 the Fig. 4c array CS).
RunResult run_counter(const RunCfg& cfg, Approach a);

/// Cycles to execute the Fig. 4c CS body alone (the "ideal" line).
double ideal_cs_cycles(const RunCfg& cfg);

/// Queue benchmark under balanced load (Fig. 5a).
RunResult run_queue(const RunCfg& cfg, QueueImpl q);

/// Stack benchmark under balanced load (Fig. 5b).
RunResult run_stack(const RunCfg& cfg, StackImpl s);

}  // namespace hmps::harness
