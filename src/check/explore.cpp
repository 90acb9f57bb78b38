#include "check/explore.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "check/gen.hpp"
#include "harness/run_pool.hpp"
#include "sim/rng.hpp"

namespace hmps::check {

namespace {

using harness::Construction;
using harness::Object;

/// Complete-checker cutoff: Wing & Gong is exponential; histories beyond
/// this many ops only get the fast sound checks. Within the cutoff the DFS
/// is additionally node-bounded — a pathological history returns
/// inconclusive in bounded time instead of stalling the exploration loop.
constexpr std::size_t kCompleteMax = 48;
constexpr std::uint64_t kCompleteNodeBudget = 400'000;

/// Checks one run's history. Adds to `*inconclusive` (if non-null) the
/// complete searches that ran out of node budget: those histories passed
/// the fast checks but were not fully validated.
Violation check_history(const Scenario& s, const harness::RecordResult& res,
                        std::uint64_t* inconclusive = nullptr) {
  using harness::CheckResult;
  if (!res.completed) {
    return {true, "hang",
            std::to_string(res.total_client_threads - res.finished_threads) +
                " of " + std::to_string(res.total_client_threads) +
                " threads did not finish by cycle " +
                std::to_string(s.cfg.horizon)};
  }
  const char* kind = "";
  harness::CheckResult (*fast_check)(const std::vector<harness::OpRecord>&) =
      nullptr;
  harness::SeqSpec spec;
  switch (s.cfg.object) {
    case Object::kCounter:
      fast_check = harness::check_counter_fast;
      kind = "counter";
      spec = harness::counter_spec();
      break;
    case Object::kQueue:
    case Object::kLcrq:
      fast_check = harness::check_queue_fast;
      kind = "queue";
      spec = harness::queue_spec();
      break;
    case Object::kStack:
    case Object::kElimStack:
      fast_check = harness::check_stack_fast;
      kind = "stack";
      spec = harness::stack_spec();
      break;
  }
  // Histories are checked per object: single-object runs have every record
  // at obj 0 (one partition, the original behavior); sharded farm runs
  // split into per-object sub-histories, each of which must be
  // linearizable on its own (a cross-shard queue_transfer contributes a
  // deq record to the source object and an enq record to the destination,
  // both spanning the transfer's full bracket — docs/MODEL.md §10).
  std::vector<std::uint32_t> ids;
  for (const auto& op : res.history) {
    if (std::find(ids.begin(), ids.end(), op.obj) == ids.end()) {
      ids.push_back(op.obj);
    }
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t id : ids) {
    std::vector<harness::OpRecord> h;
    for (const auto& op : res.history) {
      if (op.obj == id) h.push_back(op);
    }
    const CheckResult fast = fast_check(h);
    if (!fast.ok) {
      return {true, kind, "obj " + std::to_string(id) + ": " + fast.reason};
    }
    if (h.size() <= kCompleteMax) {
      const CheckResult full =
          harness::linearizable(h, spec, kCompleteNodeBudget);
      if (!full.ok) {
        return {true, "lin", "obj " + std::to_string(id) + ": " + full.reason};
      }
      if (full.inconclusive && inconclusive != nullptr) ++*inconclusive;
    }
  }
  return {};
}

/// Draws a random scenario from the exploration RNG. The per-scenario seed
/// spaces are disjoint from the master stream so a scenario replays without
/// the surrounding exploration state.
Scenario draw_scenario(sim::Xoshiro256& r, const ExploreCfg& ecfg,
                       const std::vector<Construction>& cons,
                       const std::vector<Object>& objs,
                       std::uint64_t iteration) {
  Scenario s;
  s.cfg.construction = cons[r.below(cons.size())];
  s.cfg.object = objs[r.below(objs.size())];
  s.cfg.seed = ecfg.seed * 0x9E3779B97F4A7C15ULL + iteration;
  if (ecfg.fuzz_machines && r.below(2) == 0) {
    s.cfg.params = random_machine(s.cfg.seed ^ 0xFACADE);
  }
  s.cfg.threads = static_cast<std::uint32_t>(r.between(2, 6));
  s.cfg.ops_each = static_cast<std::uint32_t>(r.between(2, 8));
  s.cfg.max_ops = r.between(1, 16);
  s.cfg.produce_permille = static_cast<std::uint32_t>(r.between(300, 700));
  s.cfg.think_max = r.between(0, 80);
  s.cfg.horizon = 20'000'000;  // generous: unperturbed runs finish in ~1M
  s.cfg.hyb_bug_drop_every = ecfg.hyb_bug_drop_every;
  // ~1/3 of scenarios exercise the async ticket path with out-of-order
  // reaps (clamp_cfg zeroes the depth for constructions/objects without
  // it). Both values are always drawn so the stream stays aligned.
  const std::uint64_t async_roll = r.below(3);
  const std::uint64_t async_depth = r.between(2, 4);
  s.cfg.async_depth =
      async_roll == 0 ? static_cast<std::uint32_t>(async_depth) : 0;
  // Shard count is always drawn (stream alignment); clamp_cfg resets it to
  // 1 for every non-sharded construction.
  s.cfg.shards = static_cast<std::uint32_t>(r.between(2, 4));

  // Occasional fault-window sweep on top of the schedule perturbation.
  if (r.below(4) == 0) {
    s.cfg.faults.seed = s.cfg.seed ^ 0xFA0175;
    switch (r.below(3)) {
      case 0:
        s.cfg.faults.delay_permille = static_cast<std::uint32_t>(r.between(50, 300));
        s.cfg.faults.delay_min = 10;
        s.cfg.faults.delay_max = r.between(100, 4000);
        break;
      case 1:
        s.cfg.faults.jitter_permille = static_cast<std::uint32_t>(r.between(50, 400));
        s.cfg.faults.jitter_max = r.between(5, 200);
        break;
      case 2:
        s.cfg.faults.preempt_period = r.between(20'000, 200'000);
        s.cfg.faults.preempt_duration = r.between(1'000, 30'000);
        break;
    }
  }

  s.perturb.seed = s.cfg.seed ^ 0x5C4ED;
  s.perturb.nthreads =
      s.cfg.threads +
      harness::server_threads(s.cfg.construction, s.cfg.shards);
  s.perturb.change_points = static_cast<std::uint32_t>(r.between(0, 4));
  s.perturb.change_interval = r.between(10'000, 200'000);
  s.perturb.resume_permille = static_cast<std::uint32_t>(r.between(0, 250));
  s.perturb.delay_unit = r.between(10, 2'000);
  s.perturb.point_permille = static_cast<std::uint32_t>(r.between(0, 400));
  s.perturb.point_delay_max = r.between(100, 20'000);
  clamp_cfg(s.cfg);
  return s;
}

}  // namespace

Violation run_scenario(const Scenario& s) {
  PctPerturber p(s.perturb);
  const harness::RecordResult res = harness::record_history(
      s.cfg, s.perturb.enabled() ? &p : nullptr);
  return check_history(s, res);
}

Scenario shrink(const Scenario& failing, Violation* out_violation,
                std::uint64_t* runs) {
  Scenario best = failing;
  std::uint64_t n = 0;

  // Keeps `cand` as the new best iff it still violates. Any violation kind
  // counts: a shrink step may legally transmute e.g. a lin failure into a
  // fast-check failure of the same underlying bug.
  auto still_fails = [&](const Scenario& cand) -> bool {
    ++n;
    Violation v = run_scenario(cand);
    if (!v.found) return false;
    best = cand;
    *out_violation = v;
    return true;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    // 1. Fewer threads (bisect, floor 2).
    while (best.cfg.threads > 2) {
      Scenario cand = best;
      cand.cfg.threads = std::max<std::uint32_t>(2, best.cfg.threads / 2);
      if (cand.cfg.threads == best.cfg.threads) {
        cand.cfg.threads = best.cfg.threads - 1;
      }
      cand.perturb.nthreads =
          cand.cfg.threads +
          harness::server_threads(cand.cfg.construction, cand.cfg.shards);
      if (!still_fails(cand)) break;
      progress = true;
    }
    // 1b. Fewer shards (sharded fleet only; floor 2 keeps the cross-shard
    // paths — dropping to 1 would shrink away the bug class under test).
    while (best.cfg.shards > 2) {
      Scenario cand = best;
      cand.cfg.shards = best.cfg.shards - 1;
      cand.perturb.nthreads =
          cand.cfg.threads +
          harness::server_threads(cand.cfg.construction, cand.cfg.shards);
      if (!still_fails(cand)) break;
      progress = true;
    }
    // 2. Fewer ops per thread (bisect, floor 1).
    while (best.cfg.ops_each > 1) {
      Scenario cand = best;
      cand.cfg.ops_each = std::max<std::uint32_t>(1, best.cfg.ops_each / 2);
      if (cand.cfg.ops_each == best.cfg.ops_each) {
        cand.cfg.ops_each = best.cfg.ops_each - 1;
      }
      if (!still_fails(cand)) break;
      progress = true;
    }
    // 3. Drop the fault plan.
    if (best.cfg.faults.enabled()) {
      Scenario cand = best;
      cand.cfg.faults = sim::FaultPlan{};
      if (still_fails(cand)) progress = true;
    }
    // 4. Weaken the perturbation (each lever independently).
    if (best.perturb.resume_permille > 0) {
      Scenario cand = best;
      cand.perturb.resume_permille = 0;
      if (still_fails(cand)) progress = true;
    }
    if (best.perturb.point_permille > 0) {
      Scenario cand = best;
      cand.perturb.point_permille = 0;
      if (still_fails(cand)) progress = true;
    }
    if (best.perturb.change_points > 0) {
      Scenario cand = best;
      cand.perturb.change_points = 0;
      if (still_fails(cand)) progress = true;
    }
    // 5. No think time (denser histories shrink the search window).
    if (best.cfg.think_max > 0) {
      Scenario cand = best;
      cand.cfg.think_max = 0;
      if (still_fails(cand)) progress = true;
    }
    // 6. Back to the synchronous loop (isolates async-plumbing failures).
    if (best.cfg.async_depth != 0) {
      Scenario cand = best;
      cand.cfg.async_depth = 0;
      if (still_fails(cand)) progress = true;
    }
  }

  // Determinism check: the shrunk repro must fail identically twice.
  const Violation v1 = run_scenario(best);
  const Violation v2 = run_scenario(best);
  n += 2;
  if (!v1.found || v1.kind != v2.kind || v1.detail != v2.detail) {
    // Should be impossible (the simulator is deterministic); surface it
    // loudly rather than emit a repro that does not replay.
    std::fprintf(stderr,
                 "check: WARNING: shrunk scenario is not deterministic\n");
  } else {
    *out_violation = v1;
  }
  *runs = n;
  return best;
}

ExploreResult explore(const ExploreCfg& ecfg) {
  ExploreResult out;
  std::vector<Construction> cons = ecfg.constructions;
  if (cons.empty()) {
    for (std::uint32_t i = 0; i < harness::kNumConstructions; ++i) {
      cons.push_back(static_cast<Construction>(i));
    }
  }
  std::vector<Object> objs = ecfg.objects;
  if (objs.empty()) {
    for (std::uint32_t i = 0; i < harness::kNumObjects; ++i) {
      objs.push_back(static_cast<Object>(i));
    }
  }

  sim::Xoshiro256 r(ecfg.seed);
  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  // Scenario execution runs on the task pool; drawing stays serial on this
  // thread so the master RNG stream — and therefore scenario `it` ->
  // Scenario mapping — is identical for every jobs value. With jobs <= 1
  // the batch size is 1 and submit() runs inline: byte-for-byte the
  // original serial loop. With workers, batches of 2*jobs scenarios run
  // concurrently (sound for the same reason the run pool is: every
  // record_history builds its own machine, and the fiber layer is
  // thread_local — see harness/run_pool.hpp). Because iterations are
  // assigned to batches in order and the first violation is picked by
  // lowest iteration within the stopping batch, the failing scenario is
  // the globally-earliest violating iteration regardless of jobs.
  harness::TaskPool pool(ecfg.jobs);
  const std::size_t batch_size =
      pool.jobs() <= 1 ? 1 : static_cast<std::size_t>(pool.jobs()) * 2;

  struct Slot {
    Violation v;
    std::uint64_t ops = 0;
    std::uint64_t inconclusive = 0;
    sim::Cycle end_time = 0;
    double seconds = 0;
  };

  std::uint64_t it = 0;
  for (;;) {
    if (ecfg.max_schedules > 0 && out.schedules_run >= ecfg.max_schedules) {
      break;
    }
    if (ecfg.max_schedules == 0 && elapsed() >= ecfg.budget_seconds) break;
    if (ecfg.max_schedules > 0 && ecfg.budget_seconds > 0 &&
        elapsed() >= ecfg.budget_seconds) {
      break;
    }

    std::size_t n = batch_size;
    if (ecfg.max_schedules > 0) {
      const std::uint64_t left = ecfg.max_schedules - out.schedules_run;
      if (left < n) n = static_cast<std::size_t>(left);
    }
    std::vector<Scenario> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(draw_scenario(r, ecfg, cons, objs, it++));
    }
    std::vector<Slot> slots(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      pool.submit([&batch, &slots, i] {
        const Scenario& s = batch[i];
        const auto rt0 = std::chrono::steady_clock::now();
        PctPerturber p(s.perturb);
        const harness::RecordResult res = harness::record_history(
            s.cfg, s.perturb.enabled() ? &p : nullptr);
        Slot& slot = slots[i];
        slot.ops = res.history.size();
        slot.end_time = res.end_time;
        slot.v = check_history(s, res, &slot.inconclusive);
        slot.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - rt0)
                           .count();
      });
    }
    pool.wait();

    bool stop = false;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Scenario& s = batch[i];
      const Slot& slot = slots[i];
      ++out.schedules_run;
      out.ops_checked += slot.ops;
      out.inconclusive += slot.inconclusive;
      if (ecfg.verbose && slot.seconds > 0.5) {
        std::fprintf(stderr,
                     "check: slow schedule (%.1fs): %s on %s, %u thr x %u "
                     "ops, end_time %llu, faults %d\n",
                     slot.seconds, harness::to_string(s.cfg.construction),
                     harness::to_string(s.cfg.object), s.cfg.threads,
                     s.cfg.ops_each,
                     static_cast<unsigned long long>(slot.end_time),
                     s.cfg.faults.enabled() ? 1 : 0);
      }
      if (ecfg.verbose && out.schedules_run % 200 == 0) {
        std::fprintf(stderr, "check: %llu schedules, %.1fs elapsed\n",
                     static_cast<unsigned long long>(out.schedules_run),
                     elapsed());
      }
      if (slot.v.found) {
        out.violation_found = true;
        out.failing = s;
        out.violation = slot.v;
        if (ecfg.stop_on_violation) {
          // Lowest iteration in the stopping batch: later violations in
          // this batch are ignored exactly like the serial loop never
          // reaching them.
          stop = true;
          break;
        }
      }
    }
    if (stop) break;
  }

  if (out.violation_found) {
    out.shrunk_violation = out.violation;
    out.shrunk = shrink(out.failing, &out.shrunk_violation, &out.shrink_runs);
  }
  return out;
}

}  // namespace hmps::check
