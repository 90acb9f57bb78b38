// In-process parallel run pool: executes independent (seed, config)
// simulation runs on a fixed set of host threads, with artifact output
// byte-identical to running the same submissions serially.
//
// Why this is sound: a simulation run is already self-contained — drive()
// builds its own SimExecutor/Machine (engine, RNG streams, counters) on the
// caller's stack, and the fiber layer's scratch slots are thread_local
// (sim/fiber.cpp). The only cross-run state is *read-only after
// construction* (MachineParams presets, shared NoC route tables) or
// *private per run* (the metrics/trace arenas below). So runs never
// communicate, and each run's simulated timeline is the same bit-for-bit
// whether it executes on the main thread or any worker.
//
// Why determinism survives the merge: labels and Chrome-trace pids are
// assigned at submit() time on the calling thread (submission order ==
// serial order), each run fills a private MetricsRegistry/Tracer arena, and
// drain() merges the arenas back into the shared RunArtifacts in submission
// order — so completion order, which IS nondeterministic, never reaches the
// artifact. See docs/ENGINE.md ("The run pool").
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/artifact.hpp"
#include "harness/workload.hpp"

namespace hmps::harness {

/// Resolves a --jobs setting: a non-zero flag wins, else the HMPS_JOBS
/// environment variable, else std::thread::hardware_concurrency() (at
/// least 1).
std::uint32_t resolve_jobs(std::uint32_t flag);

/// Minimal fixed-thread task pool (the run-agnostic layer; check_explore's
/// scenario batches use it directly). With `jobs` <= 1 no threads are
/// created and submit() runs the task inline, so a --jobs 1 invocation is
/// the serial code path, not a one-worker simulation of it.
class TaskPool {
 public:
  explicit TaskPool(std::uint32_t jobs);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  std::uint32_t jobs() const { return jobs_; }

  /// Enqueues one task. Tasks must be independent: they run in any order,
  /// concurrently, on worker threads.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait();

 private:
  void worker();

  std::uint32_t jobs_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: "a task may be available"
  std::condition_variable done_cv_;  ///< wait(): "a task just finished"
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  ///< submitted but not yet finished
  bool stop_ = false;
};

/// Artifact-aware run pool. submit() assigns the run's label/pid through
/// the shared RunArtifacts immediately (fixing the artifact order), hands
/// the run a private metrics/trace arena, and runs it on the TaskPool;
/// drain() waits for everything and merges the arenas in submission order.
class RunPool {
 public:
  /// The run body: receives the observability sinks for this run (label
  /// and pid as assigned at submit(); metrics/trace pointing into the
  /// run's private arena, or null when the artifact flag is off) and
  /// returns the run's measured result.
  using RunFn = std::function<RunResult(const RunObs&)>;

  /// `jobs` is used as given when non-zero; 0 resolves via resolve_jobs().
  RunPool(RunArtifacts& art, std::uint32_t jobs = 0);

  std::uint32_t jobs() const { return pool_.jobs(); }

  /// Submits one run; returns its index (== submission order, the index
  /// into drain()'s result vector).
  std::size_t submit(std::string label, RunFn fn);

  /// submit() of `drive(cfg)` with the run's sinks in cfg (RunCfg::obs, or
  /// ServiceCfg::base.obs), logging "[label] done" to stderr at its end.
  template <class Cfg, class Drive>
  std::size_t run(std::string label, const Cfg& cfg, Drive drive) {
    return submit(std::move(label), [cfg, drive](const RunObs& obs) {
      Cfg c = cfg;
      if constexpr (requires { c.base.obs; }) {
        c.base.obs = obs;
      } else {
        c.obs = obs;
      }
      const RunResult r = drive(c);
      std::fprintf(stderr, "[%s] done\n", obs.label);
      return r;
    });
  }

  /// Waits for every submitted run, merges per-run artifacts into the
  /// shared RunArtifacts in submission order, and returns the results in
  /// submission order. The pool is reusable after drain().
  const std::vector<RunResult>& drain();

 private:
  struct Job {
    RunFn fn;
    RunObs obs;                   ///< label/pid shared, sinks per-run
    obs::MetricsRegistry metrics; ///< private arena (used when JSON is on)
    sim::Tracer trace;            ///< private merge sink (when tracing)
    bool use_metrics = false;
    bool use_trace = false;
    RunResult result;
  };

  RunArtifacts& art_;
  TaskPool pool_;
  std::deque<Job> queue_;  ///< deque: stable addresses for running jobs
  std::vector<RunResult> results_;
};

}  // namespace hmps::harness
