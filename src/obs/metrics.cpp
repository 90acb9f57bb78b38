#include "obs/metrics.hpp"

#include <fstream>

#include "arch/machine.hpp"
#include "arch/params.hpp"
#include "sim/trace.hpp"
#include "sync/cs.hpp"

// Reproducibility stamp, injected by the build (src/obs/CMakeLists.txt);
// fall back to placeholders for non-CMake builds.
#ifndef HMPS_GIT_DESCRIBE
#define HMPS_GIT_DESCRIBE "unknown"
#endif
#ifndef HMPS_BUILD_FLAGS
#define HMPS_BUILD_FLAGS "unknown"
#endif

namespace hmps::obs {

MetricsRegistry::MetricsRegistry() {
  root_ = JsonValue::object();
  // v2 (this PR): adds machine.noc counters and the optional per-run
  // telemetry block. Readers stay tolerant of v1 (docs/OBSERVABILITY.md).
  root_["schema"] = JsonValue("hmps-metrics-v2");
}

void MetricsRegistry::stamp(const std::string& bench, int argc, char** argv) {
  root_["bench"] = JsonValue(bench);
  JsonValue args = JsonValue::array();
  for (int i = 0; i < argc; ++i) args.push_back(JsonValue(argv[i]));
  root_["argv"] = std::move(args);
  root_["git"] = JsonValue(HMPS_GIT_DESCRIBE);
  root_["build_flags"] = JsonValue(HMPS_BUILD_FLAGS);
  root_["runs"] = JsonValue::array();
}

JsonValue& MetricsRegistry::add_run(const std::string& label) {
  JsonValue& runs = root_["runs"];
  JsonValue run = JsonValue::object();
  run["label"] = JsonValue(label);
  runs.push_back(std::move(run));
  return runs.items().back();
}

bool MetricsRegistry::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  root_.write(f, 0);
  f << '\n';
  return f.good();
}

JsonValue MetricsRegistry::params_json(const arch::MachineParams& p) {
  JsonValue j = JsonValue::object();
  j["name"] = JsonValue(p.name);
  j["mesh_w"] = JsonValue(p.mesh_w);
  j["mesh_h"] = JsonValue(p.mesh_h);
  j["n_mem_ctrls"] = JsonValue(p.n_mem_ctrls);
  j["line_bytes"] = JsonValue(p.line_bytes);
  j["l_hit"] = JsonValue(p.l_hit);
  j["issue_cost"] = JsonValue(p.issue_cost);
  j["posted_writes"] = JsonValue(p.posted_writes);
  j["wb_depth"] = JsonValue(p.wb_depth);
  j["allow_prefetch"] = JsonValue(p.allow_prefetch);
  j["hop"] = JsonValue(p.hop);
  j["router"] = JsonValue(p.router);
  j["dir_lookup"] = JsonValue(p.dir_lookup);
  j["home_mem"] = JsonValue(p.home_mem);
  j["fwd_cost"] = JsonValue(p.fwd_cost);
  j["xfer"] = JsonValue(p.xfer);
  j["inval_base"] = JsonValue(p.inval_base);
  j["inval_per_sharer"] = JsonValue(p.inval_per_sharer);
  j["line_occupancy"] = JsonValue(p.line_occupancy);
  j["atomics_at_ctrl"] = JsonValue(p.atomics_at_ctrl);
  j["ctrl_op_faa"] = JsonValue(p.ctrl_op_faa);
  j["ctrl_op_cas"] = JsonValue(p.ctrl_op_cas);
  j["ctrl_op_cas_fail"] = JsonValue(p.ctrl_op_cas_fail);
  j["atomic_local_extra"] = JsonValue(p.atomic_local_extra);
  j["noc_combining"] = JsonValue(p.noc_combining);
  j["has_udn"] = JsonValue(p.has_udn);
  j["udn_buf_words"] = JsonValue(p.udn_buf_words);
  j["udn_queues"] = JsonValue(p.udn_queues);
  j["udn_inject"] = JsonValue(p.udn_inject);
  j["udn_per_word_wire"] = JsonValue(p.udn_per_word_wire);
  j["udn_recv_word"] = JsonValue(p.udn_recv_word);
  j["model_link_contention"] = JsonValue(p.model_link_contention);
  j["fence_cost"] = JsonValue(p.fence_cost);
  j["chips_x"] = JsonValue(p.chips_x);
  j["chips_y"] = JsonValue(p.chips_y);
  j["chip_hop_extra"] = JsonValue(p.chip_hop_extra);
  return j;
}

JsonValue MetricsRegistry::machine_json(arch::Machine& m) {
  JsonValue j = JsonValue::object();

  const auto& ec = m.sched().engine_counters();
  JsonValue eng = JsonValue::object();
  eng["scheduled"] = JsonValue(ec.scheduled);
  eng["executed"] = JsonValue(ec.executed);
  eng["spill_allocs"] = JsonValue(ec.spill_allocs);
  eng["heap_grows"] = JsonValue(ec.heap_grows);
  eng["peak_depth"] = JsonValue(ec.peak_depth);
  eng["fast_forwards"] = JsonValue(ec.fast_forwards);
  eng["polled"] = JsonValue(ec.polled);
  j["engine"] = std::move(eng);

  const auto& cc = m.coherence().counters();
  JsonValue coh = JsonValue::object();
  coh["hits"] = JsonValue(cc.hits);
  coh["rmr_reads"] = JsonValue(cc.rmr_reads);
  coh["rmr_writes"] = JsonValue(cc.rmr_writes);
  coh["atomics"] = JsonValue(cc.atomics);
  coh["invalidations"] = JsonValue(cc.invalidations);
  coh["ctrl_wait_total"] = JsonValue(cc.ctrl_wait_total);
  j["coherence"] = std::move(coh);

  const auto& uc = m.udn().counters();
  JsonValue udn = JsonValue::object();
  udn["messages"] = JsonValue(uc.messages);
  udn["words"] = JsonValue(uc.words);
  udn["sender_blocks"] = JsonValue(uc.sender_blocks);
  udn["peak_occupancy"] = JsonValue(uc.peak_occupancy);
  j["udn"] = std::move(udn);

  const auto& vc = m.vlink().counters();
  JsonValue vl = JsonValue::object();
  vl["frames"] = JsonValue(vc.frames);
  vl["words"] = JsonValue(vc.words);
  vl["producer_blocks"] = JsonValue(vc.producer_blocks);
  vl["consumer_waits"] = JsonValue(vc.consumer_waits);
  vl["peak_occupancy"] = JsonValue(vc.peak_occupancy);
  j["vlink"] = std::move(vl);

  const auto& nc = m.udn().noc().counters();
  JsonValue noc = JsonValue::object();
  noc["messages"] = JsonValue(nc.messages);
  noc["hops"] = JsonValue(nc.hops);
  noc["link_wait"] = JsonValue(nc.link_wait);
  const auto& cmb = m.coherence().combining().counters();
  noc["combines"] = JsonValue(cmb.combines);
  noc["decombines"] = JsonValue(cmb.decombines);
  j["noc"] = std::move(noc);

  const auto& fc = m.faults().counters();
  JsonValue faults = JsonValue::object();
  faults["credit_windows"] = JsonValue(fc.credit_windows);
  faults["delayed_messages"] = JsonValue(fc.delayed_messages);
  faults["jittered"] = JsonValue(fc.jittered);
  faults["preemptions"] = JsonValue(fc.preemptions);
  j["faults"] = std::move(faults);

  if (arch::CoherenceProfiler* prof = m.coherence().profiler()) {
    JsonValue lines = JsonValue::array();
    for (const auto& ls : prof->top_lines(8)) {
      JsonValue l = JsonValue::object();
      l["line"] = JsonValue(ls.line);
      l["label"] = JsonValue(ls.label);
      l["hits"] = JsonValue(ls.hits);
      l["rmr_reads"] = JsonValue(ls.rmr_reads);
      l["rmr_writes"] = JsonValue(ls.rmr_writes);
      l["atomics"] = JsonValue(ls.atomics);
      l["latency_sum"] = JsonValue(ls.latency_sum);
      lines.push_back(std::move(l));
    }
    j["hot_lines"] = std::move(lines);
  }
  return j;
}

JsonValue MetricsRegistry::sync_stats_json(const sync::SyncStats& s) {
  JsonValue j = JsonValue::object();
  j["ops"] = JsonValue(s.ops);
  j["served"] = JsonValue(s.served);
  j["tenures"] = JsonValue(s.tenures);
  j["cas_attempts"] = JsonValue(s.cas_attempts);
  j["cas_failures"] = JsonValue(s.cas_failures);
  j["throttle_waits"] = JsonValue(s.throttle_waits);
  j["stall_timeouts"] = JsonValue(s.stall_timeouts);
  j["async_issued"] = JsonValue(s.async_issued);
  j["async_batched"] = JsonValue(s.async_batched);
  j["shed_ops"] = JsonValue(s.shed_ops);
  return j;
}

JsonValue MetricsRegistry::cycle_account_json(const CycleAccount& a) {
  JsonValue j = JsonValue::object();
  for (int b = 0; b < CycleAccount::kNumBuckets; ++b) {
    const auto bucket = static_cast<CycleAccount::Bucket>(b);
    j[CycleAccount::bucket_name(bucket)] = JsonValue(a.bucket(bucket));
  }
  j["total"] = JsonValue(a.total());
  return j;
}

JsonValue MetricsRegistry::tracer_json(const sim::Tracer& t) {
  JsonValue j = JsonValue::object();
  j["events"] = JsonValue(static_cast<std::uint64_t>(t.size()));
  j["dropped"] = JsonValue(t.dropped());
  return j;
}

}  // namespace hmps::obs
