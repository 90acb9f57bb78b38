// Engine micro-benchmark: raw throughput of the simulation engine itself
// (no synchronization algorithms on top). Five workloads:
//
//   event_churn   — events executed/sec through the event queue, using
//                   callbacks with UDN-delivery-sized captures (24 bytes)
//   fiber_churn   — fiber resume/yield round trips/sec through the scheduler
//   udn_pingpong  — two-core message round trips/sec (send+receive both ways)
//   udn_flood     — many-to-one messages/sec with link contention modelled
//   spin_park     — local-spin polls/sec: 63 threads spin_until on private
//                   lines while one writer flips one line every 500 cycles,
//                   so nearly every poll is a cache hit run by a parked
//                   spin's poller (docs/ENGINE.md "Parked spins")
//   spin_plain    — the same run with a perturber that delays nothing, which
//                   makes spin_until run its plain fiber loop: the poller's
//                   reference (the two poll counts must match, or the run
//                   exits 1)
//
// Usage: engine_micro [--smoke] [--json FILE]
//   --smoke  run 1% of the default iteration counts (CI smoke test)
//   --json   append machine-readable results to FILE
//
// Rates are host wall-clock, so absolute numbers vary by machine; the point
// is comparing the same workload across engine versions (scripts/
// bench_engine.sh records them in BENCH_engine.json).
//
// Compiling this file against the pre-overhaul engine (for baselines)
// requires -DENGINE_MICRO_SEED, which stubs out the self-counters that the
// seed engine does not have.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "arch/udn.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/scheduler.hpp"

using namespace hmps;
using sim::Cycle;
using sim::Tid;

namespace {

struct Result {
  const char* name;
  const char* unit;
  std::uint64_t ops;
  double seconds;
  double rate() const { return seconds > 0 ? ops / seconds : 0.0; }
};

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// ---- event_churn -----------------------------------------------------------
// Self-rescheduling events whose captures are sized like the engine's real
// hot-path callbacks: a UDN delivery captures {this, dst, queue, n} = 24
// bytes, which is what the inline event storage exists for.
struct ChurnCtx {
  sim::Scheduler* s;
  std::uint64_t remaining;
  std::uint64_t sink;
};

void schedule_churn(ChurnCtx* c, std::uint64_t key, std::uint64_t salt) {
  c->s->at(c->s->now() + 1 + key % 7, [c, key, salt] {  // 24-byte capture
    c->sink += key ^ salt;
    if (c->remaining == 0) return;  // budget shared by all chains
    if (--c->remaining > 0)
      schedule_churn(c, key * 2654435761ull + 1, salt + 1);
  });
}

Result event_churn(std::uint64_t events) {
  sim::Scheduler s;
  ChurnCtx ctx{&s, events, 0};
  const double t0 = now_sec();
  // 64 concurrent self-rescheduling chains keep the heap realistically deep.
  for (std::uint64_t i = 0; i < 64 && i < events; ++i)
    schedule_churn(&ctx, 0x9e3779b97f4a7c15ull * (i + 1), i);
  s.run();
  const double dt = now_sec() - t0;
  if (ctx.sink == 42) std::printf("");  // defeat dead-code elimination
  return {"event_churn", "events/s", events, dt};
}

// ---- fiber_churn -----------------------------------------------------------
Result fiber_churn(std::uint64_t resumes) {
  sim::Scheduler s;
  const std::uint64_t kFibers = 32;
  const std::uint64_t per = resumes / kFibers;
  for (std::uint64_t f = 0; f < kFibers; ++f) {
    s.spawn([&s, per] {
      for (std::uint64_t i = 0; i < per; ++i) s.wait_for(1);
    });
  }
  const double t0 = now_sec();
  s.run();
  const double dt = now_sec() - t0;
  return {"fiber_churn", "resumes/s", per * kFibers, dt};
}

// ---- udn_pingpong ----------------------------------------------------------
Result udn_pingpong(std::uint64_t roundtrips) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  s.spawn([&] {
    std::uint64_t w[3] = {1, 2, 3};
    for (std::uint64_t r = 0; r < roundtrips; ++r) {
      udn.send(0, 5, 0, w, 3);
      udn.receive(0, 1, w, 3);
    }
    s.stop();
  });
  s.spawn([&] {
    std::uint64_t w[3];
    for (;;) {
      udn.receive(5, 0, w, 3);
      udn.send(5, 0, 1, w, 3);
    }
  });
  const double t0 = now_sec();
  s.run();
  const double dt = now_sec() - t0;
  return {"udn_pingpong", "roundtrips/s", roundtrips, dt};
}

// ---- udn_flood -------------------------------------------------------------
Result udn_flood(std::uint64_t messages) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  p.model_link_contention = true;
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  const std::uint32_t C = topo.cores();
  const std::uint64_t per = messages / (C - 1);
  for (Tid i = 1; i < C; ++i) {
    s.spawn([&, i, per] {
      std::uint64_t w[3] = {i, 0, 0};
      for (std::uint64_t m = 0; m < per; ++m) {
        w[1] = m;
        udn.send(i, 0, 0, w, 3);
      }
    });
  }
  s.spawn([&] {
    std::uint64_t w[3];
    for (std::uint64_t m = 0; m < per * (C - 1); ++m) udn.receive(0, 0, w, 3);
  });
  const double t0 = now_sec();
  s.run();
  const double dt = now_sec() - t0;
  return {"udn_flood", "msgs/s", per * (C - 1), dt};
}

// ---- spin_park / spin_plain -------------------------------------------------
class ZeroPerturber final : public sim::Perturber {
 public:
  Cycle resume_delay(std::uint32_t, Cycle) override { return 0; }
  Cycle point_delay(std::uint32_t, std::uint32_t, const char*,
                    Cycle) override {
    return 0;
  }
};

// Every poll of a spinning thread is one load; `*polled` (if given) receives
// the resume entries that parked spins' pollers consumed without a switch.
Result spin_park(std::uint64_t flips, bool plain, std::uint64_t* polled) {
  constexpr std::uint32_t kSpinners = 63;
  constexpr Cycle kFlipEvery = 500;
  rt::SimExecutor ex(arch::MachineParams::tilegx_small(8, 8), 1);
  ZeroPerturber zero;
  if (plain) ex.sched().set_perturber(&zero);
  struct alignas(rt::kCacheLine) Line {
    rt::Word w{0};
  };
  std::vector<Line> lines(kSpinners);
  for (std::uint32_t i = 0; i < kSpinners; ++i) {
    ex.add_thread([&lines, i](rt::SimCtx& ctx) {
      for (std::uint64_t seen = 0;;) {
        seen = ctx.spin_until(&lines[i].w,
                              [seen](std::uint64_t v) { return v != seen; });
      }
    });
  }
  ex.add_thread([&lines](rt::SimCtx& ctx) {
    for (std::uint64_t k = 0;; ++k) {
      ctx.compute(kFlipEvery);
      ctx.store(&lines[k % kSpinners].w, k / kSpinners + 1);
    }
  });
  const double t0 = now_sec();
  ex.run_until(flips * kFlipEvery);
  const double dt = now_sec() - t0;
  std::uint64_t polls = 0;
  for (Tid c = 0; c < kSpinners; ++c) polls += ex.machine().core(c).mem_ops;
  if (polled != nullptr) *polled = ex.sched().engine_counters().polled;
  return {plain ? "spin_plain" : "spin_park", "polls/s", polls, dt};
}

// ---- engine self-counters --------------------------------------------------
// Re-runs a short mixed workload on a fresh scheduler purely to report the
// allocation-escape counters (the seed engine has none — stubbed under
// ENGINE_MICRO_SEED so the same source builds against it for baselines).
struct SelfCounters {
  std::uint64_t scheduled = 0, executed = 0;
  std::uint64_t spill_allocs = 0, heap_grows = 0, peak_depth = 0;
  std::uint64_t stack_pool_hits = 0;
  bool available = false;
};

SelfCounters probe_counters() {
  SelfCounters out;
#ifndef ENGINE_MICRO_SEED
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  // Pre-sized the way arch::Machine sizes its scheduler: the steady state
  // must then never grow the event heap (asserted below via heap_grows).
  s.reserve_events(static_cast<std::size_t>(topo.cores()) * 8 + 64,
                   topo.cores() + 8);
  arch::UdnModel udn(p, topo, s);
  s.spawn([&] {
    std::uint64_t w[3] = {7, 8, 9};
    for (int r = 0; r < 2000; ++r) {
      udn.send(0, 5, 0, w, 3);
      udn.receive(0, 1, w, 3);
    }
    s.stop();
  });
  s.spawn([&] {
    std::uint64_t w[3];
    for (;;) {
      udn.receive(5, 0, w, 3);
      udn.send(5, 0, 1, w, 3);
    }
  });
  s.run();
  const auto& c = s.engine_counters();
  out.scheduled = c.scheduled;
  out.executed = c.executed;
  out.spill_allocs = c.spill_allocs;
  out.heap_grows = c.heap_grows;
  out.peak_depth = c.peak_depth;
  out.stack_pool_hits = sim::Fiber::stack_pool_hits();
  out.available = true;
#endif
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json FILE]\n", argv[0]);
      return 2;
    }
  }
  const std::uint64_t scale = smoke ? 100 : 1;

  std::vector<Result> results;
  results.push_back(event_churn(4'000'000 / scale));
  results.push_back(fiber_churn(2'000'000 / scale));
  results.push_back(udn_pingpong(400'000 / scale));
  results.push_back(udn_flood(700'000 / scale));
  std::uint64_t polled = 0;
  results.push_back(spin_park(200 / scale, false, &polled));
  results.push_back(spin_park(200 / scale, true, nullptr));

  for (const Result& r : results) {
    std::printf("%-14s %12llu ops  %8.3f s  %14.0f %s\n", r.name,
                (unsigned long long)r.ops, r.seconds, r.rate(), r.unit);
  }

  std::printf("spin_park: polled=%llu\n", (unsigned long long)polled);
  if (polled == 0) {
    std::fprintf(stderr, "FAIL: no spin was parked behind a poller\n");
    return 1;
  }
  // Exactness: the parked run must take every load of its plain-loop
  // reference, no more and no fewer.
  const Result& park = results[results.size() - 2];
  const Result& plain = results.back();
  if (park.ops != plain.ops) {
    std::fprintf(stderr,
                 "FAIL: spin_park took %llu polls, its plain-loop reference "
                 "spin_plain %llu\n",
                 (unsigned long long)park.ops, (unsigned long long)plain.ops);
    return 1;
  }

  const SelfCounters c = probe_counters();
  if (c.available) {
    std::printf(
        "engine_counters: scheduled=%llu executed=%llu spill_allocs=%llu "
        "heap_grows=%llu peak_depth=%llu stack_pool_hits=%llu\n",
        (unsigned long long)c.scheduled, (unsigned long long)c.executed,
        (unsigned long long)c.spill_allocs, (unsigned long long)c.heap_grows,
        (unsigned long long)c.peak_depth,
        (unsigned long long)c.stack_pool_hits);
    if (c.spill_allocs != 0) {
      std::fprintf(stderr, "FAIL: hot-path callbacks spilled to the heap\n");
      return 1;
    }
    if (c.heap_grows != 0) {
      std::fprintf(stderr,
                   "FAIL: pre-sized event heap grew %llu times in steady "
                   "state\n",
                   (unsigned long long)c.heap_grows);
      return 1;
    }
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::perror("fopen --json");
      return 1;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"ops\": %llu, \"seconds\": %.6f, "
                   "\"rate\": %.1f, \"unit\": \"%s\"}%s\n",
                   r.name, (unsigned long long)r.ops, r.seconds, r.rate(),
                   r.unit, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"engine_counters\": ");
    if (c.available) {
      std::fprintf(f,
                   "{\"scheduled\": %llu, \"executed\": %llu, "
                   "\"spill_allocs\": %llu, \"heap_grows\": %llu, "
                   "\"peak_depth\": %llu, \"stack_pool_hits\": %llu}\n",
                   (unsigned long long)c.scheduled,
                   (unsigned long long)c.executed,
                   (unsigned long long)c.spill_allocs,
                   (unsigned long long)c.heap_grows,
                   (unsigned long long)c.peak_depth,
                   (unsigned long long)c.stack_pool_hits);
    } else {
      std::fprintf(f, "null\n");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
  return 0;
}
