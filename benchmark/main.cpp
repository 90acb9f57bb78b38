// hmps_bench: runs one benchmark workload for a fixed host-time budget and
// prints its metrics (benchmark/README.md).
//
//   hmps_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--scale N] [--out DIR]
//
// Set-up (input generation from the seed plus one cold machine per machine
// shape) runs first; then whole passes over the inputs repeat until
// --seconds of host time are spent, and host_s is the median pass. Three
// set-up samples follow each pass, and setup_s is their median. Every pass
// must reproduce the first pass's sim_digest. With --trace 1, traced passes
// (spans plus a metrics artifact) alternate with untraced ones, the layer
// micro drivers run first, and the per-layer metrics are reported instead
// of the end-to-end ones.
//
// Output: one `workload metric value unit` line per metric, a results JSON
// under --out, and as the last stdout line one JSON object with the keys
// correct, attempted, failed and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/json.hpp"

using namespace hmps;
using namespace hmps::bench;

namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "hmps_bench: %s\nusage: hmps_bench --workload "
               "{paper_tile36|svc_tile36|mesh256_noc|explore_fuzz} "
               "[--seed N] [--seconds S] [--trace 0|1] [--scale N] "
               "[--out DIR]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-layer metrics of a traced run (README "Per-layer metrics").
std::vector<Metric> layer_metrics(const Pass& w, const Tally& check_probe,
                                  const std::map<std::string, double>& probes,
                                  double overhead_pct) {
  const Tally& t = w.tally;
  std::vector<Metric> m;
  auto add = [&](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit});
  };
  auto count = [&](const char* name, std::uint64_t v) {
    add(name, static_cast<double>(v), "count");
  };
  auto share = [](std::uint64_t num, std::uint64_t den) {
    return ratio(static_cast<double>(num), static_cast<double>(den));
  };
  auto probe = [&](const char* name, const char* unit) {
    add(name, probes.at(name), unit);
  };
  count("sim.events", t.events);
  add("sim.host_ns_per_event",
      ratio(t.sim_run_s * 1e9, static_cast<double>(t.events)), "ns");
  add("sim.fast_forward_share",
      share(t.fast_forwards, t.events + t.fast_forwards), "ratio");
  probe("sim.event_ns", "ns");
  probe("sim.resume_ns", "ns");
  count("arch.coh.accesses", t.coh_accesses);
  add("arch.coh.rmr_share", share(t.coh_rmrs, t.coh_accesses), "ratio");
  count("arch.coh.invalidations", t.coh_invalidations);
  add("arch.coh.ctrl_wait_per_atomic", share(t.coh_ctrl_wait, t.coh_atomics),
      "cycles");
  probe("arch.coh.access_ns.c36", "ns");
  probe("arch.coh.access_ns.c256", "ns");
  probe("arch.coh.access_ns.ws64k", "ns");
  count("arch.udn.messages", t.udn_messages);
  count("arch.udn.sender_blocks", t.udn_sender_blocks);
  probe("arch.udn.msg_ns", "ns");
  count("arch.noc.hops", t.noc_hops);
  add("arch.noc.link_wait_per_msg", share(t.noc_link_wait, t.noc_messages),
      "cycles");
  probe("arch.noc.route_ns", "ns");
  count("arch.vlink.frames", t.vlink_frames);
  count("arch.vlink.consumer_waits", t.vlink_consumer_waits);
  probe("arch.vlink.frame_ns", "ns");
  probe("arch.setup_ms.c36", "ms");
  probe("arch.setup_ms.c256", "ms");
  for (const char* c : kConstructions) {
    const auto it = t.cons.find(c);
    const Tally::Cons x = it == t.cons.end() ? Tally::Cons{} : it->second;
    const std::string s = c;
    add("sync.host_ns_per_op." + s, ratio(x.host_s * 1e9, x.ops), "ns");
    add("sync.peak_mops." + s, x.peak_mops, "Mops/s");
    add("sync.serv_stall_share." + s, x.stall_share, "ratio");
    add("sync.slo_mops." + s, x.slo_mops, "Mops/s");
  }
  add("sync.fidelity_err_pct", t.fidelity_err_pct, "%");
  count("harness.runs", t.runs);
  add("harness.run_ms_p50", quantile(t.run_ms, 0.5), "ms");
  add("harness.run_ms_p90", quantile(t.run_ms, 0.9), "ms");
  add("harness.pool_efficiency",
      ratio(t.pool_busy_s, t.pool_jobs * t.pool_wall_s), "ratio");
  add("harness.svc.queue_delay_share",
      ratio(t.svc_queue_delay, t.svc_sojourn), "ratio");
  add("harness.svc.shed_frac", share(t.svc_shed, t.svc_offered), "ratio");
  double rec = 0, ver = 0;
  for (const double x : check_probe.record_ms) rec += x;
  for (const double x : check_probe.verify_ms) ver += x;
  add("check.record_ms_p50", median(check_probe.record_ms), "ms");
  add("check.verify_ms_p50", median(check_probe.verify_ms), "ms");
  add("check.verify_share", ratio(ver, rec + ver), "ratio");
  count("check.ops_checked", t.ops_checked);
  count("check.violations", t.violations);
  count("check.hangs", t.hangs);
  add("obs.trace_overhead_pct", overhead_pct, "%");
  add("obs.artifact_ms", t.artifact_ms, "ms");
  return m;
}

obs::JsonValue metrics_json(const std::vector<Metric>& ms) {
  obs::JsonValue o = obs::JsonValue::object();
  for (const Metric& m : ms) {
    obs::JsonValue v = obs::JsonValue::object();
    v["value"] = obs::JsonValue(m.value);
    v["unit"] = obs::JsonValue(m.unit);
    o[m.name] = std::move(v);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, out = "build-bench/out";
  std::uint64_t seed = 1, seconds = 10, trace = 0, scale = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    bool ok = true;
    if (a == "--workload") {
      name = v;
    } else if (a == "--out") {
      out = v;
    } else if (a == "--seed") {
      ok = parse_u64(v, &seed);
    } else if (a == "--seconds") {
      ok = parse_u64(v, &seconds) && seconds <= 600;
    } else if (a == "--trace") {
      ok = parse_u64(v, &trace) && trace <= 1;
    } else if (a == "--scale") {
      ok = parse_u64(v, &scale) && scale >= 1 && scale <= 1000;
    } else {
      return usage(("unknown option " + a).c_str());
    }
    if (!ok) return usage(("bad value for " + a).c_str());
  }
  const std::uint32_t sc = static_cast<std::uint32_t>(scale);
  std::unique_ptr<Workload> w = make_workload(name, sc);
  if (!w) return usage(("unknown workload '" + name + "'").c_str());
  std::error_code ec;
  std::filesystem::create_directories(out, ec);
  if (ec) {
    std::fprintf(stderr, "hmps_bench: cannot create %s\n", out.c_str());
    return 1;
  }

  SpanLog spans;
  SpanLog* log = trace ? &spans : nullptr;
  auto setup = [&] {
    Scope s(log, "arch.setup");
    const double t0 = now_s();
    w->setup(seed);
    return now_s() - t0;
  };
  setup();
  // A set-up sample averages enough consecutive set-ups to span 10 ms.
  const int per_sample = static_cast<int>(
      std::clamp(0.01 / std::max(setup(), 1e-9), 1.0, 1e5));
  std::vector<double> setup_s;
  auto sample_setup = [&] {
    double t = 0;
    for (int i = 0; i < per_sample; ++i) t += setup();
    setup_s.push_back(t / per_sample);
  };

  std::map<std::string, double> probes;
  Tally check_probe;
  if (trace) {
    probes = run_probes(sc);
    // The check layer's probe: one exploration scenario per (construction,
    // object) cell, recorded and verified with their own spans.
    SpanLog probe_spans;
    const TraceSink sink{&probe_spans, out + "/check_probe.artifact.json"};
    std::unique_ptr<Workload> fuzz = make_workload("explore_fuzz", 48);
    fuzz->setup(1);
    check_probe = fuzz->run(&sink).tally;
  }

  // Timed passes: untraced, alternating with traced under --trace 1.
  const TraceSink sink{&spans, out + "/" + name + ".artifact.json"};
  std::vector<double> plain_s, traced_s;
  Pass first, first_traced;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  auto account = [&](Pass p, std::vector<double>& times, double dt,
                     Pass& keep) {
    attempted += p.attempted;
    failed += p.failed;
    for (auto& f : p.failures) failures.push_back(std::move(f));
    if (!plain_s.empty() && p.digest.value() != first.digest.value()) {
      failed += p.attempted;
      failures.push_back("pass " +
                         std::to_string(plain_s.size() + traced_s.size() + 1) +
                         " changed sim_digest");
    }
    times.push_back(dt);
    if (times.size() == 1) keep = std::move(p);
  };
  const double start = now_s();
  do {
    double t0 = now_s();
    Pass p = w->run(nullptr);
    account(std::move(p), plain_s, now_s() - t0, first);
    if (trace) {
      t0 = now_s();
      Pass q = w->run(&sink);
      account(std::move(q), traced_s, now_s() - t0, first_traced);
    }
    // Set-up samples are spread between the passes: on a shared host a
    // process runs up to 2x slower for spells of a second or so, which a
    // sub-millisecond set-up timed in one burst would report whole.
    for (int i = 0; i < 3; ++i) sample_setup();
  } while (now_s() - start < static_cast<double>(seconds));

  std::vector<Metric> metrics;
  if (trace) {
    const double overhead =
        (ratio(median(traced_s), median(plain_s)) - 1) * 100;
    metrics = layer_metrics(first_traced, check_probe, probes, overhead);
  } else {
    metrics = {{"host_s", median(plain_s), "s"},
               {"setup_s", median(setup_s), "s"},
               {"peak_rss_mib", peak_rss_mib(), "MiB"},
               {"sim_mops", geomean(first.run_mops), "Mops/s"},
               {"p99_cycles", geomean(first.run_p99), "cycles"}};
  }
  std::vector<Metric> extra;
  for (const auto& [k, v] : first.extra) extra.push_back({k, v.value, v.unit});

  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(first.digest.value()));
  for (const auto& f : failures) {
    std::fprintf(stderr, "FAILED %s: %s\n", name.c_str(), f.c_str());
  }
  for (const auto* set : {&metrics, &extra}) {
    for (const Metric& m : *set) {
      std::printf("%s %s %.6g %s\n", name.c_str(), m.name.c_str(), m.value,
                  m.unit);
    }
  }
  std::printf("%s sim_digest %s\n", name.c_str(), digest);
  std::printf("%s passes %zu\n", name.c_str(), plain_s.size());

  // Results file: everything compare.py judges, one file per invocation.
  obs::JsonValue res = obs::JsonValue::object();
  res["workload"] = obs::JsonValue(name);
  res["seed"] = obs::JsonValue(seed);
  res["scale"] = obs::JsonValue(scale);
  res["seconds"] = obs::JsonValue(seconds);
  res["trace"] = obs::JsonValue(trace == 1);
  res["attempted"] = obs::JsonValue(attempted);
  res["failed"] = obs::JsonValue(failed);
  res["sim_digest"] = obs::JsonValue(digest);
  res["metrics"] = metrics_json(metrics);
  obs::JsonValue sim = metrics_json(extra);
  if (!trace) {
    sim["sim_mops"] = res["metrics"]["sim_mops"];
    sim["p99_cycles"] = res["metrics"]["p99_cycles"];
  }
  res["simulated"] = std::move(sim);
  obs::JsonValue passes = obs::JsonValue::array();
  for (const double t : plain_s) passes.push_back(obs::JsonValue(t));
  res["pass_s"] = std::move(passes);
  obs::JsonValue fl = obs::JsonValue::array();
  for (const auto& f : failures) fl.push_back(obs::JsonValue(f));
  res["failures"] = std::move(fl);
  if (trace) {
    obs::JsonValue self = obs::JsonValue::object();
    for (const auto& [k, v] : spans.self_seconds()) {
      self[k] = obs::JsonValue(v);
      std::printf("%s self_s.%s %.6g s\n", name.c_str(), k.c_str(), v);
    }
    res["span_self_s"] = std::move(self);
    const std::string path = out + "/" + name + ".spans.json";
    if (!spans.write_chrome(path)) {
      std::fprintf(stderr, "hmps_bench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  const std::string path = out + "/" + name + (trace ? "-traced" : "") +
                           "-s" + std::to_string(seed) + "-" +
                           std::to_string(ts.tv_sec) + "." +
                           std::to_string(ts.tv_nsec) + ".json";
  std::ofstream f(path);
  res.write(f, 0);
  f << '\n';
  if (!f.good()) {
    std::fprintf(stderr, "hmps_bench: cannot write %s\n", path.c_str());
    return 1;
  }

  // Last line: the machine-readable summary.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
