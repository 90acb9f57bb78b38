// Layer micro drivers of a traced run: host cost of one operation of each
// simulator layer, timed from outside through the layer's public calls.
// The sim loops are bench/engine_micro.cpp's event_churn and fiber_churn,
// so their numbers continue the BENCH_engine.json history.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/coherence.hpp"
#include "arch/machine.hpp"
#include "arch/noc.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "arch/udn.hpp"
#include "arch/vlink.hpp"
#include "bench.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace hmps::bench {

namespace {

using sim::Cycle;
using sim::Tid;

/// Results of the timed loops land here so the compiler cannot drop them.
volatile std::uint64_t g_sink = 0;

// ---- sim: event_churn (bench/engine_micro.cpp) -----------------------------
struct ChurnCtx {
  sim::Scheduler* s;
  std::uint64_t remaining;
  std::uint64_t sink;
};

void schedule_churn(ChurnCtx* c, std::uint64_t key, std::uint64_t salt) {
  c->s->at(c->s->now() + 1 + key % 7, [c, key, salt] {  // 24-byte capture
    c->sink += key ^ salt;
    if (c->remaining == 0) return;
    if (--c->remaining > 0)
      schedule_churn(c, key * 2654435761ull + 1, salt + 1);
  });
}

double event_ns(std::uint64_t events) {
  sim::Scheduler s;
  ChurnCtx ctx{&s, events, 0};
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < 64 && i < events; ++i)
    schedule_churn(&ctx, 0x9e3779b97f4a7c15ull * (i + 1), i);
  s.run();
  const double dt = now_s() - t0;
  g_sink = g_sink + ctx.sink;
  return dt / static_cast<double>(events) * 1e9;
}

// ---- sim: fiber_churn (bench/engine_micro.cpp) -----------------------------
double resume_ns(std::uint64_t resumes) {
  sim::Scheduler s;
  const std::uint64_t kFibers = 32;
  const std::uint64_t per = resumes / kFibers;
  for (std::uint64_t f = 0; f < kFibers; ++f) {
    s.spawn([&s, per] {
      for (std::uint64_t i = 0; i < per; ++i) s.wait_for(1);
    });
  }
  const double t0 = now_s();
  s.run();
  return (now_s() - t0) / static_cast<double>(per * kFibers) * 1e9;
}

// ---- arch: coherence read/write/atomic -------------------------------------
/// Random 6:3:1 read/write/atomic mix from random cores over `lines` lines,
/// timed after one warm-up sweep has created every line.
double coherence_ns(const arch::MachineParams& p, std::uint64_t lines,
                    std::uint64_t accesses) {
  arch::MeshTopology topo(p);
  arch::CoherenceModel coh(p, topo);
  const std::uint64_t base = 1ull << 32;
  Cycle now = 0, sink = 0;
  for (std::uint64_t l = 0; l < lines; ++l) {
    sink += coh.read(static_cast<Tid>(l % p.cores()), base + l * p.line_bytes,
                     now += 2)
                .latency;
  }
  sim::Xoshiro256 r(7);
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < accesses; ++i) {
    const Tid c = static_cast<Tid>(r.below(p.cores()));
    const std::uint64_t addr = base + r.below(lines) * p.line_bytes;
    const std::uint64_t op = r.below(10);
    now += 2;
    if (op < 6) {
      sink += coh.read(c, addr, now).latency;
    } else if (op < 9) {
      sink += coh.write(c, addr, now).latency;
    } else {
      sink += coh.atomic(c, addr, now, arch::AtomicKind::kFaa).latency;
    }
  }
  const double dt = now_s() - t0;
  g_sink = g_sink + sink;
  return dt / static_cast<double>(accesses) * 1e9;
}

// ---- arch: UDN ping-pong (bench/engine_micro.cpp udn_pingpong) ------------
double udn_msg_ns(std::uint64_t roundtrips) {
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
  const double t0 = now_s();
  s.run();
  return (now_s() - t0) / static_cast<double>(2 * roundtrips) * 1e9;
}

// ---- arch: NoC route on a 16x16 mesh with link contention -----------------
double noc_route_ns(std::uint64_t routes) {
  arch::MachineParams p = arch::MachineParams::tilegx36();
  p.mesh_w = p.mesh_h = 16;
  p.model_link_contention = true;
  arch::MeshTopology topo(p);
  arch::NocModel noc(p, topo);
  sim::Xoshiro256 r(11);
  Cycle t = 0, sink = 0;
  noc.route(0, p.cores() - 1, t, 3);  // builds the shared route table
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < routes; ++i) {
    const Tid src = static_cast<Tid>(r.below(p.cores()));
    const Tid dst = static_cast<Tid>(r.below(p.cores()));
    sink += noc.route(src, dst, t += 1, 3);
  }
  const double dt = now_s() - t0;
  g_sink = g_sink + sink;
  return dt / static_cast<double>(routes) * 1e9;
}

// ---- arch: vlink push/pop ping-pong ---------------------------------------
double vlink_frame_ns(std::uint64_t roundtrips) {
  arch::MachineParams p = arch::MachineParams::tilegx_small(4, 2);
  arch::MeshTopology topo(p);
  sim::Scheduler s;
  arch::NocModel noc(p, topo);
  arch::VlinkFabric fab(p, topo, s, noc);
  const auto req = fab.create_channel(5, 64);
  const auto rep = fab.create_channel(0, 64);
  s.spawn([&] {
    std::uint64_t w[3] = {1, 2, 3};
    for (std::uint64_t r = 0; r < roundtrips; ++r) {
      fab.push(0, req, w, 3);
      fab.pop(0, rep, w, 3);
    }
    s.stop();
  });
  s.spawn([&] {
    std::uint64_t w[3];
    for (;;) {
      fab.pop(5, req, w, 3);
      fab.push(5, rep, w, 3);
    }
  });
  const double t0 = now_s();
  s.run();
  return (now_s() - t0) / static_cast<double>(2 * roundtrips) * 1e9;
}

// ---- arch: machine set-up ---------------------------------------------------
/// Median construction time of `n` machines; the first builds the process's
/// shared route table for the mesh shape, the rest reuse it.
double setup_ms(const arch::MachineParams& p, int n) {
  std::vector<double> t;
  for (int i = 0; i < n; ++i) {
    const double t0 = now_s();
    { arch::Machine m(p); }
    t.push_back((now_s() - t0) * 1e3);
  }
  return median(t);
}

}  // namespace

std::map<std::string, double> run_probes(std::uint32_t scale) {
  const std::uint64_t k = scale;
  arch::MachineParams c36 = arch::MachineParams::tilegx36();
  arch::MachineParams c256 = c36;
  c256.mesh_w = c256.mesh_h = 16;
  std::map<std::string, double> m;
  m["sim.event_ns"] = event_ns(4'000'000 / k);
  m["sim.resume_ns"] = resume_ns(2'000'000 / k);
  m["arch.coh.access_ns.c36"] = coherence_ns(c36, 1024, 4'000'000 / k);
  m["arch.coh.access_ns.c256"] = coherence_ns(c256, 1024, 4'000'000 / k);
  m["arch.coh.access_ns.ws64k"] = coherence_ns(c36, 65536, 4'000'000 / k);
  m["arch.udn.msg_ns"] = udn_msg_ns(400'000 / k);
  m["arch.noc.route_ns"] = noc_route_ns(2'000'000 / k);
  m["arch.vlink.frame_ns"] = vlink_frame_ns(400'000 / k);
  m["arch.setup_ms.c36"] = setup_ms(c36, 9);
  m["arch.setup_ms.c256"] = setup_ms(c256, 9);
  return m;
}

}  // namespace hmps::bench
