// Engine micro-benchmark: raw throughput of the simulation engine itself
// (no synchronization algorithms on top). Its workloads:
//
//   event_churn   — events executed/sec through the event queue, using
//                   callbacks with UDN-delivery-sized captures (24 bytes)
//   fiber_churn   — fiber resume/yield round trips/sec through the scheduler
//   udn_pingpong  — two-core message round trips/sec (send+receive both ways)
//   udn_flood     — many-to-one messages/sec with link contention modelled
//   spin_park     — local-spin polls/sec: 63 threads spin_until on private
//                   lines while one writer flips one line every 500 cycles,
//                   so nearly every poll is a cache hit run by a parked
//                   spin's poller (docs/ENGINE.md "Parked spins"), most of
//                   them by poll groups that move whole ("Poll groups";
//                   the run exits 1 if none did)
//   spin_plain    — the same run with a perturber that delays nothing, which
//                   makes spin_until run its plain fiber loop: the poller's
//                   reference (the two poll counts must match, or the run
//                   exits 1)
//   machine_setup — arch::Machine constructions/sec (and destructions) of
//                   a 2x2, a 6x6 and a 16x16 mesh: the set-up cost every
//                   short run pays (docs/ENGINE.md "Set-up cost"). Each row
//                   is the median of 5 repeats of at least 50 ms, and the
//                   bytes one build allocates are printed after the rows
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
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "arch/udn.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/scheduler.hpp"

using namespace hmps;
using sim::Cycle;
using sim::Tid;

// Bytes asked of operator new, for machine_setup's bytes per build. The
// nothrow and array forms reach these through their defaults; malloc and
// free pair up through out-of-line calls, so the compiler never sees a
// pointer from operator new reach free() (-Wmismatched-new-delete).
namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};

[[gnu::noinline]] void* counted_malloc(std::size_t n, std::size_t align) {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  // aligned_alloc wants a nonzero multiple of the alignment.
  const std::size_t padded = std::max((n + align - 1) / align, std::size_t{1});
  void* p = std::aligned_alloc(align, padded * align);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t n) { return counted_malloc(n, 1); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_malloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

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
volatile std::uint64_t g_sink;  // results the optimizer must keep

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
  g_sink = ctx.sink;  // defeat dead-code elimination
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

// Every poll of a spinning thread is one load; `*ec` (if given) receives
// the run's engine counters: `polled` counts the resume entries that parked
// spins' pollers consumed without a switch, `poll_blocks` and
// `block_members` the poll blocks that ran them, `moved_members` the ones
// that poll groups took whole.
Result spin_park(std::uint64_t flips, bool plain, sim::EngineCounters* ec) {
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
  if (ec != nullptr) *ec = ex.sched().engine_counters();
  return {plain ? "spin_plain" : "spin_park", "polls/s", polls, dt};
}

// ---- machine_setup ---------------------------------------------------------
// Builds machines in 5 repeats of at least `min_s` seconds each and returns
// the median repeat; `*bytes` gets what one build allocates (the first
// build of a shape, which fills process-wide tables, is left out).
Result machine_setup(const char* name, std::uint32_t w, std::uint32_t h,
                     double min_s, std::uint64_t* bytes) {
  const arch::MachineParams p = arch::MachineParams::tilegx_small(w, h);
  { arch::Machine warm(p); }
  const std::uint64_t before = g_alloc_bytes.load();
  { arch::Machine m(p); }
  *bytes = g_alloc_bytes.load() - before;
  std::vector<Result> reps;
  for (int r = 0; r < 5; ++r) {
    std::uint64_t cores = 0;
    const double t0 = now_sec();
    double dt = 0;
    do {
      for (int i = 0; i < 64; ++i) {
        arch::Machine m(p);
        cores += m.cores();
      }
      dt = now_sec() - t0;
    } while (dt < min_s);
    // Machines counted through their cores, so every build has a use.
    reps.push_back({name, "machines/s", cores / (w * h), dt});
  }
  std::sort(reps.begin(), reps.end(), [](const Result& a, const Result& b) {
    return a.rate() < b.rate();
  });
  return reps[2];
}

// ---- engine self-counters --------------------------------------------------
// Re-runs a short mixed workload on a fresh scheduler purely to report the
// allocation-escape counters (the seed engine has none — stubbed under
// ENGINE_MICRO_SEED so the same source builds against it for baselines).
// `steady_heap_grows` counts the event-queue growths after a warm-up of
// 200 rounds, by which the queue has reached its high-water mark.
struct SelfCounters {
  std::uint64_t scheduled = 0, executed = 0;
  std::uint64_t spill_allocs = 0, heap_grows = 0, steady_heap_grows = 0;
  std::uint64_t peak_depth = 0, stack_pool_hits = 0;
  bool available = false;
};

SelfCounters probe_counters() {
  SelfCounters out;
#ifndef ENGINE_MICRO_SEED
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::UdnModel udn(p, topo, s);
  std::uint64_t warm_grows = 0;
  s.spawn([&] {
    std::uint64_t w[3] = {7, 8, 9};
    for (int r = 0; r < 2000; ++r) {
      if (r == 200) warm_grows = s.engine_counters().heap_grows;
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
  out.steady_heap_grows = c.heap_grows - warm_grows;
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
  sim::EngineCounters park_ec;
  const Result park = spin_park(200 / scale, false, &park_ec);
  const Result plain = spin_park(200 / scale, true, nullptr);
  results.push_back(park);
  results.push_back(plain);
  const double setup_s = 0.05 / static_cast<double>(scale);
  std::uint64_t setup_bytes[3];
  results.push_back(
      machine_setup("machine_setup_2x2", 2, 2, setup_s, &setup_bytes[0]));
  results.push_back(
      machine_setup("machine_setup_6x6", 6, 6, setup_s, &setup_bytes[1]));
  results.push_back(
      machine_setup("machine_setup_16x16", 16, 16, setup_s, &setup_bytes[2]));

  for (const Result& r : results) {
    std::printf("%-19s %12llu ops  %8.3f s  %14.0f %s\n", r.name,
                (unsigned long long)r.ops, r.seconds, r.rate(), r.unit);
  }
  std::printf("machine_setup_bytes: 2x2=%llu 6x6=%llu 16x16=%llu\n",
              (unsigned long long)setup_bytes[0],
              (unsigned long long)setup_bytes[1],
              (unsigned long long)setup_bytes[2]);

  const double per_block =
      park_ec.poll_blocks == 0
          ? 0.0
          : static_cast<double>(park_ec.block_members) /
                static_cast<double>(park_ec.poll_blocks);
  // Poll steps that whole poll groups took without stepping the member.
  const double moved_share =
      park_ec.polled == 0 ? 0.0
                          : static_cast<double>(park_ec.moved_members) /
                                static_cast<double>(park_ec.polled);
  std::printf(
      "spin_park: polled=%llu poll_blocks=%llu members/block=%.1f "
      "moved_whole=%.3f\n",
      (unsigned long long)park_ec.polled,
      (unsigned long long)park_ec.poll_blocks, per_block, moved_share);
  if (park_ec.polled == 0) {
    std::fprintf(stderr, "FAIL: no spin was parked behind a poller\n");
    return 1;
  }
  if (park_ec.poll_blocks == 0) {
    std::fprintf(stderr, "FAIL: spin_park's pollers formed no poll block\n");
    return 1;
  }
  if (park_ec.moved_members == 0) {
    std::fprintf(stderr, "FAIL: no spin_park poll group moved whole\n");
    return 1;
  }
  // Exactness: the parked run must take every load of its plain-loop
  // reference, no more and no fewer.
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
        "heap_grows=%llu steady_heap_grows=%llu peak_depth=%llu "
        "stack_pool_hits=%llu\n",
        (unsigned long long)c.scheduled, (unsigned long long)c.executed,
        (unsigned long long)c.spill_allocs, (unsigned long long)c.heap_grows,
        (unsigned long long)c.steady_heap_grows,
        (unsigned long long)c.peak_depth,
        (unsigned long long)c.stack_pool_hits);
    if (c.spill_allocs != 0) {
      std::fprintf(stderr, "FAIL: hot-path callbacks spilled to the heap\n");
      return 1;
    }
    if (c.steady_heap_grows != 0) {
      std::fprintf(stderr,
                   "FAIL: the event queue grew %llu times after warm-up\n",
                   (unsigned long long)c.steady_heap_grows);
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
    std::fprintf(f,
                 "  ],\n  \"machine_setup_bytes\": {\"2x2\": %llu, "
                 "\"6x6\": %llu, \"16x16\": %llu},\n",
                 (unsigned long long)setup_bytes[0],
                 (unsigned long long)setup_bytes[1],
                 (unsigned long long)setup_bytes[2]);
    std::fprintf(f, "  \"engine_counters\": ");
    if (c.available) {
      std::fprintf(f,
                   "{\"scheduled\": %llu, \"executed\": %llu, "
                   "\"spill_allocs\": %llu, \"heap_grows\": %llu, "
                   "\"steady_heap_grows\": %llu, "
                   "\"peak_depth\": %llu, \"stack_pool_hits\": %llu}\n",
                   (unsigned long long)c.scheduled,
                   (unsigned long long)c.executed,
                   (unsigned long long)c.spill_allocs,
                   (unsigned long long)c.heap_grows,
                   (unsigned long long)c.steady_heap_grows,
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
