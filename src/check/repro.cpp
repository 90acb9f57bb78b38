#include "check/repro.hpp"

#include <fstream>
#include <sstream>

#include "arch/coherence.hpp"
#include "arch/udn.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sync/sharded.hpp"

namespace hmps::check {

namespace {

using obs::JsonValue;

JsonValue faults_json(const sim::FaultPlan& f) {
  JsonValue j = JsonValue::object();
  j["seed"] = JsonValue(f.seed);
  j["credit_period"] = JsonValue(f.credit_period);
  j["credit_duration"] = JsonValue(f.credit_duration);
  j["credit_pct"] = JsonValue(f.credit_pct);
  j["credit_floor_words"] = JsonValue(f.credit_floor_words);
  j["delay_permille"] = JsonValue(f.delay_permille);
  j["delay_min"] = JsonValue(f.delay_min);
  j["delay_max"] = JsonValue(f.delay_max);
  j["jitter_permille"] = JsonValue(f.jitter_permille);
  j["jitter_max"] = JsonValue(f.jitter_max);
  j["preempt_period"] = JsonValue(f.preempt_period);
  j["preempt_duration"] = JsonValue(f.preempt_duration);
  JsonValue cores = JsonValue::array();
  for (auto c : f.preempt_cores) cores.push_back(JsonValue(c));
  j["preempt_cores"] = std::move(cores);
  return j;
}

JsonValue perturb_json(const PerturbPlan& p) {
  JsonValue j = JsonValue::object();
  j["seed"] = JsonValue(p.seed);
  j["nthreads"] = JsonValue(p.nthreads);
  j["change_points"] = JsonValue(p.change_points);
  j["change_interval"] = JsonValue(p.change_interval);
  j["resume_permille"] = JsonValue(p.resume_permille);
  j["delay_unit"] = JsonValue(p.delay_unit);
  j["point_permille"] = JsonValue(p.point_permille);
  j["point_delay_max"] = JsonValue(p.point_delay_max);
  return j;
}

// --- parsing helpers: missing fields keep the default already in *out ---

bool get_u64(const JsonValue& j, const char* key, std::uint64_t* out) {
  const JsonValue* v = j.find(key);
  if (v == nullptr || !v->is_number()) return v == nullptr;
  *out = v->as_uint();
  return true;
}

bool get_u32(const JsonValue& j, const char* key, std::uint32_t* out) {
  std::uint64_t v = *out;
  if (!get_u64(j, key, &v)) return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

bool get_bool(const JsonValue& j, const char* key, bool* out) {
  const JsonValue* v = j.find(key);
  if (v == nullptr) return true;
  if (v->kind() != JsonValue::Kind::kBool) return false;
  *out = v->as_bool();
  return true;
}

bool machine_from_json(const JsonValue& j, arch::MachineParams* p,
                       std::string* err) {
  auto fail = [&](const char* what) {
    if (err != nullptr) *err = std::string("machine: bad field ") + what;
    return false;
  };
  if (const JsonValue* n = j.find("name"); n != nullptr && n->is_string()) {
    p->name = n->as_string();
  }
  bool ok = true;
  ok &= get_u32(j, "mesh_w", &p->mesh_w);
  ok &= get_u32(j, "mesh_h", &p->mesh_h);
  ok &= get_u32(j, "n_mem_ctrls", &p->n_mem_ctrls);
  ok &= get_u32(j, "line_bytes", &p->line_bytes);
  ok &= get_u64(j, "l_hit", &p->l_hit);
  ok &= get_u64(j, "issue_cost", &p->issue_cost);
  ok &= get_bool(j, "posted_writes", &p->posted_writes);
  ok &= get_u32(j, "wb_depth", &p->wb_depth);
  ok &= get_bool(j, "allow_prefetch", &p->allow_prefetch);
  ok &= get_u64(j, "hop", &p->hop);
  ok &= get_u64(j, "router", &p->router);
  ok &= get_u64(j, "dir_lookup", &p->dir_lookup);
  ok &= get_u64(j, "home_mem", &p->home_mem);
  ok &= get_u64(j, "fwd_cost", &p->fwd_cost);
  ok &= get_u64(j, "xfer", &p->xfer);
  ok &= get_u64(j, "inval_base", &p->inval_base);
  ok &= get_u64(j, "inval_per_sharer", &p->inval_per_sharer);
  ok &= get_u64(j, "line_occupancy", &p->line_occupancy);
  ok &= get_bool(j, "atomics_at_ctrl", &p->atomics_at_ctrl);
  ok &= get_u64(j, "ctrl_op_faa", &p->ctrl_op_faa);
  ok &= get_u64(j, "ctrl_op_cas", &p->ctrl_op_cas);
  ok &= get_u64(j, "ctrl_op_cas_fail", &p->ctrl_op_cas_fail);
  ok &= get_u64(j, "atomic_local_extra", &p->atomic_local_extra);
  ok &= get_bool(j, "noc_combining", &p->noc_combining);
  ok &= get_bool(j, "has_udn", &p->has_udn);
  ok &= get_u32(j, "udn_buf_words", &p->udn_buf_words);
  ok &= get_u32(j, "udn_queues", &p->udn_queues);
  ok &= get_u64(j, "udn_inject", &p->udn_inject);
  ok &= get_u64(j, "udn_per_word_wire", &p->udn_per_word_wire);
  ok &= get_u64(j, "udn_recv_word", &p->udn_recv_word);
  ok &= get_bool(j, "model_link_contention", &p->model_link_contention);
  ok &= get_u64(j, "fence_cost", &p->fence_cost);
  ok &= get_u32(j, "chips_x", &p->chips_x);
  ok &= get_u32(j, "chips_y", &p->chips_y);
  ok &= get_u64(j, "chip_hop_extra", &p->chip_hop_extra);
  if (!ok) return fail("(type mismatch)");
  if (p->mesh_w == 0 || p->mesh_h == 0) {
    return fail("mesh_w/mesh_h (a mesh needs at least one core)");
  }
  if (p->n_mem_ctrls < 1 || p->n_mem_ctrls > arch::CoherenceModel::kMaxCtrls) {
    return fail("n_mem_ctrls (outside [1, 8])");
  }
  if (!arch::CoherenceModel::valid_line_bytes(p->line_bytes)) {
    return fail("line_bytes (not a power of two in [8, 64])");
  }
  if (p->udn_buf_words < arch::UdnModel::kMaxFrameWords) {
    return fail("udn_buf_words (below the 3-word largest message)");
  }
  if (p->udn_queues == 0) {
    return fail("udn_queues (every core needs a demux queue)");
  }
  return true;
}

bool faults_from_json(const JsonValue& j, sim::FaultPlan* f) {
  bool ok = true;
  ok &= get_u64(j, "seed", &f->seed);
  ok &= get_u64(j, "credit_period", &f->credit_period);
  ok &= get_u64(j, "credit_duration", &f->credit_duration);
  ok &= get_u32(j, "credit_pct", &f->credit_pct);
  ok &= get_u32(j, "credit_floor_words", &f->credit_floor_words);
  ok &= get_u32(j, "delay_permille", &f->delay_permille);
  ok &= get_u64(j, "delay_min", &f->delay_min);
  ok &= get_u64(j, "delay_max", &f->delay_max);
  ok &= get_u32(j, "jitter_permille", &f->jitter_permille);
  ok &= get_u64(j, "jitter_max", &f->jitter_max);
  ok &= get_u64(j, "preempt_period", &f->preempt_period);
  ok &= get_u64(j, "preempt_duration", &f->preempt_duration);
  if (const JsonValue* cores = j.find("preempt_cores");
      cores != nullptr && cores->is_array()) {
    f->preempt_cores.clear();
    for (const JsonValue& c : cores->items()) {
      f->preempt_cores.push_back(static_cast<sim::Tid>(c.as_uint()));
    }
  }
  return ok;
}

bool perturb_from_json(const JsonValue& j, PerturbPlan* p) {
  bool ok = true;
  ok &= get_u64(j, "seed", &p->seed);
  ok &= get_u32(j, "nthreads", &p->nthreads);
  ok &= get_u32(j, "change_points", &p->change_points);
  ok &= get_u64(j, "change_interval", &p->change_interval);
  ok &= get_u32(j, "resume_permille", &p->resume_permille);
  ok &= get_u64(j, "delay_unit", &p->delay_unit);
  ok &= get_u32(j, "point_permille", &p->point_permille);
  ok &= get_u64(j, "point_delay_max", &p->point_delay_max);
  return ok;
}

}  // namespace

std::string repro_to_json(const Scenario& s, const Violation& v) {
  JsonValue j = JsonValue::object();
  j["format"] = JsonValue(kReproFormat);
  JsonValue viol = JsonValue::object();
  viol["kind"] = JsonValue(v.kind);
  viol["detail"] = JsonValue(v.detail);
  j["violation"] = std::move(viol);

  JsonValue wl = JsonValue::object();
  wl["construction"] = JsonValue(harness::to_string(s.cfg.construction));
  wl["object"] = JsonValue(harness::to_string(s.cfg.object));
  wl["seed"] = JsonValue(s.cfg.seed);
  wl["threads"] = JsonValue(s.cfg.threads);
  wl["ops_each"] = JsonValue(s.cfg.ops_each);
  wl["max_ops"] = JsonValue(s.cfg.max_ops);
  wl["produce_permille"] = JsonValue(s.cfg.produce_permille);
  wl["think_max"] = JsonValue(s.cfg.think_max);
  wl["horizon"] = JsonValue(s.cfg.horizon);
  wl["hyb_bug_drop_every"] = JsonValue(s.cfg.hyb_bug_drop_every);
  wl["async_depth"] = JsonValue(s.cfg.async_depth);
  wl["shards"] = JsonValue(s.cfg.shards);
  j["workload"] = std::move(wl);

  j["machine"] = obs::MetricsRegistry::params_json(s.cfg.params);
  j["faults"] = faults_json(s.cfg.faults);
  j["perturb"] = perturb_json(s.perturb);
  return j.dump() + "\n";
}

bool repro_from_json(const std::string& text, Scenario* out,
                     Violation* expect, std::string* err) {
  JsonValue j;
  if (!JsonValue::parse(text, &j, err)) return false;
  auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = what;
    return false;
  };
  const JsonValue* fmt = j.find("format");
  if (fmt == nullptr || !fmt->is_string() ||
      fmt->as_string() != kReproFormat) {
    return fail("not an hmps-repro-v1 file");
  }

  Scenario s;
  const JsonValue* wl = j.find("workload");
  if (wl == nullptr || !wl->is_object()) return fail("missing workload");
  const JsonValue* cons = wl->find("construction");
  const JsonValue* obj = wl->find("object");
  if (cons == nullptr || !cons->is_string() ||
      !harness::construction_from_string(cons->as_string(),
                                         &s.cfg.construction)) {
    return fail("workload: unknown construction");
  }
  if (obj == nullptr || !obj->is_string() ||
      !harness::object_from_string(obj->as_string(), &s.cfg.object)) {
    return fail("workload: unknown object");
  }
  bool ok = true;
  ok &= get_u64(*wl, "seed", &s.cfg.seed);
  ok &= get_u32(*wl, "threads", &s.cfg.threads);
  ok &= get_u32(*wl, "ops_each", &s.cfg.ops_each);
  ok &= get_u64(*wl, "max_ops", &s.cfg.max_ops);
  ok &= get_u32(*wl, "produce_permille", &s.cfg.produce_permille);
  ok &= get_u64(*wl, "think_max", &s.cfg.think_max);
  ok &= get_u64(*wl, "horizon", &s.cfg.horizon);
  ok &= get_u64(*wl, "hyb_bug_drop_every", &s.cfg.hyb_bug_drop_every);
  ok &= get_u32(*wl, "async_depth", &s.cfg.async_depth);
  // Absent in pre-sharding repro files: the default (1) reproduces them
  // exactly (hmps-repro-v1 keeps defaults for missing fields).
  ok &= get_u32(*wl, "shards", &s.cfg.shards);
  if (!ok) return fail("workload: bad field type");
  if (s.cfg.shards > sync::kMaxShards) {
    return fail("workload: shards (above the 32-shard fleet bound)");
  }

  if (const JsonValue* m = j.find("machine"); m != nullptr && m->is_object()) {
    if (!machine_from_json(*m, &s.cfg.params, err)) return false;
  }
  if (const JsonValue* f = j.find("faults"); f != nullptr && f->is_object()) {
    if (!faults_from_json(*f, &s.cfg.faults)) return fail("faults: bad field");
  }
  if (const JsonValue* p = j.find("perturb"); p != nullptr && p->is_object()) {
    if (!perturb_from_json(*p, &s.perturb)) return fail("perturb: bad field");
  }
  if (expect != nullptr) {
    *expect = Violation{};
    if (const JsonValue* v = j.find("violation");
        v != nullptr && v->is_object()) {
      if (const JsonValue* k = v->find("kind"); k != nullptr && k->is_string()) {
        expect->kind = k->as_string();
        expect->found = !expect->kind.empty();
      }
      if (const JsonValue* d = v->find("detail");
          d != nullptr && d->is_string()) {
        expect->detail = d->as_string();
      }
    }
  }
  *out = s;
  return true;
}

bool write_repro_file(const std::string& path, const Scenario& s,
                      const Violation& v, std::string* err) {
  std::ofstream os(path);
  if (!os) {
    if (err != nullptr) *err = "cannot open " + path + " for writing";
    return false;
  }
  os << repro_to_json(s, v);
  return static_cast<bool>(os);
}

bool read_repro_file(const std::string& path, Scenario* out,
                     Violation* expect, std::string* err) {
  std::ifstream is(path);
  if (!is) {
    if (err != nullptr) *err = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return repro_from_json(ss.str(), out, expect, err);
}

}  // namespace hmps::check
