// Machine datasheet + timeline trace: probes the simulated TILE-Gx-like
// machine's primitive costs (the numbers everything in EXPERIMENTS.md rests
// on) and records a Chrome-trace timeline of a short contended run.
//
//   $ ./examples/machine_probe [trace.json]
//
// Open the JSON in chrome://tracing or https://ui.perfetto.dev: one row per
// core; thread 0 (the MP-SERVER) shows the dense receive/CS/send rhythm,
// clients show long receive-waits — the visual form of Fig. 2 of the paper.
#include <cstdio>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/delegation_server.hpp"

using namespace hmps;
using rt::SimCtx;
using sim::Cycle;

namespace {

struct alignas(rt::kCacheLine) ProbeLine {
  rt::Word w{0};
};

void datasheet() {
  std::printf("=== machine datasheet: %s ===\n",
              arch::MachineParams::tilegx36().name.c_str());
  rt::SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  static ProbeLine lines[8];
  static rt::Word atomic_word{0};

  ex.add_thread([&](SimCtx& ctx) {  // core 0: the prober
    auto timed = [&](auto&& fn) {
      const Cycle t0 = ctx.now();
      fn();
      return ctx.now() - t0;
    };
    // Warm a line, then hit it.
    (void)ctx.load(&lines[0].w);
    const Cycle hit = timed([&] { (void)ctx.load(&lines[0].w); });
    const Cycle cold = timed([&] { (void)ctx.load(&lines[1].w); });
    const Cycle store_posted = timed([&] {
      ctx.store(&lines[2].w, std::uint64_t{1});
    });
    const Cycle faa = timed([&] { (void)ctx.faa(&atomic_word, 1); });
    const Cycle cas_ok = timed([&] {
      (void)ctx.cas(&atomic_word, ctx.load(&atomic_word), std::uint64_t{9});
    });
    std::printf("  load hit            : %3llu cycles\n",
                static_cast<unsigned long long>(hit));
    std::printf("  load cold (at home) : %3llu cycles\n",
                static_cast<unsigned long long>(cold));
    std::printf("  store (posted)      : %3llu cycles at the core\n",
                static_cast<unsigned long long>(store_posted));
    std::printf("  fetch-and-add       : %3llu cycles (at mem controller)\n",
                static_cast<unsigned long long>(faa));
    std::printf("  CAS + hit load      : %3llu cycles\n",
                static_cast<unsigned long long>(cas_ok));
  });
  ex.run_until(sim::kCycleMax);

  // Message round trip by distance.
  std::printf("  message round trips (3-word request + 1-word reply):\n");
  for (rt::Tid peer : {1u, 5u, 35u}) {
    rt::SimExecutor ex2(arch::MachineParams::tilegx36(), 2);
    Cycle rtt = 0;
    ex2.add_thread([&](SimCtx& ctx) {  // echo server stand-in
      std::uint64_t m[3];
      ctx.receive(m, 3);
      ctx.send(static_cast<rt::Tid>(m[0]), {m[2]});
    });
    // Pad so the prober lands on thread/core `peer`.
    while (ex2.nthreads() < peer) {
      ex2.add_thread([](SimCtx&) {});
    }
    ex2.add_thread([&](SimCtx& ctx) {
      const Cycle t0 = ctx.now();
      ctx.send(0, {ctx.tid(), 1, 42});
      (void)ctx.receive1();
      rtt = ctx.now() - t0;
    });
    ex2.run_until(sim::kCycleMax);
    std::printf("    core 0 <-> core %-2u : %3llu cycles\n", peer,
                static_cast<unsigned long long>(rtt));
  }
}

void record_trace(const char* path) {
  rt::SimExecutor ex(arch::MachineParams::tilegx36(), 7);
  ex.machine().tracer().enable(200'000);
  static ds::SeqCounter counter;
  sync::MpServer<SimCtx> mp(0, &counter);
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  for (int i = 0; i < 8; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (;;) {
        mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
        ctx.compute(2 * ctx.rand_below(51));
      }
    });
  }
  ex.run_until(5'000);
  ex.machine().tracer().write_chrome_json(path);
  std::printf("wrote %zu trace events to %s (load in chrome://tracing)\n",
              ex.machine().tracer().size(), path);
}

}  // namespace

int main(int argc, char** argv) {
  datasheet();
  record_trace(argc > 1 ? argv[1] : "/tmp/hmps_trace.json");
  return 0;
}
