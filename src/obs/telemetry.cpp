#include "obs/telemetry.hpp"

#include <utility>

namespace hmps::obs {

Telemetry::Telemetry(arch::Machine& m, Config cfg) : m_(m), cfg_(cfg) {
  if (enabled()) {
    // Per-link accumulation is a read-side add on the routing loop; it
    // never changes a delivery time, so switching it on here keeps the
    // zero-observer-effect bar.
    m_.udn().noc().enable_link_stats();
  }
}

void Telemetry::add_gauge(std::string name, GaugeFn fn) {
  if (!enabled()) return;
  gauges_.push_back(Track{std::move(name), std::move(fn), nullptr, 0});
}

void Telemetry::add_counter(std::string name, GaugeFn fn) {
  if (!enabled()) return;
  counters_.push_back(Track{std::move(name), std::move(fn), nullptr, 0});
}

void Telemetry::record_completion(sim::Cycle sojourn) {
  if (!enabled() || !completion_stream_) return;
  ++win_completions_;
  sojourn_.add(sojourn);
  if (sojourn > win_max_sojourn_) win_max_sojourn_ = sojourn;
}

void Telemetry::start(sim::Cycle t0, sim::Cycle t_end) {
  if (!enabled() || started_) return;
  started_ = true;
  start_ = last_close_ = t0;
  end_ = t_end;

  const std::uint32_t n = m_.cores();
  prev_accounts_.clear();
  prev_accounts_.reserve(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    prev_accounts_.push_back(m_.core(c).account);
  }
  const auto& nc = m_.udn().noc().counters();
  prev_noc_messages_ = nc.messages;
  prev_noc_link_wait_ = nc.link_wait;
  prev_noc_combines_ = m_.coherence().combining().counters().combines;
  base_link_busy_ = m_.udn().noc().link_busy();
  base_link_wait_ = m_.udn().noc().link_wait();
  for (auto& c : counters_) c.prev = c.fn();
  sojourn_ = sim::Reservoir(cfg_.reservoir_cap);
  win_completions_ = 0;
  win_max_sojourn_ = 0;

  // Resolve every counter-track name once; ticks then record pointers only.
  sim::Tracer& tr = m_.tracer();
  for (int b = 0; b < CycleAccount::kNumBuckets; ++b) {
    trk_bucket_[b] = tr.intern(
        std::string("tel.bucket.") +
        CycleAccount::bucket_name(static_cast<CycleAccount::Bucket>(b)));
  }
  trk_rx_words_ = tr.intern("tel.udn.rx_words");
  trk_link_wait_ = tr.intern("tel.noc.link_wait");
  trk_throughput_ = tr.intern("tel.throughput");
  trk_p99_ = tr.intern("tel.sojourn.p99");
  for (auto& g : gauges_) g.track_name = tr.intern("tel.gauge." + g.name);
  for (auto& c : counters_) c.track_name = tr.intern("tel.ctr." + c.name);

  if (t0 + cfg_.window < end_) arm(t0 + cfg_.window);
}

void Telemetry::arm(sim::Cycle t) {
  m_.sched().at(t, [this, t] {
    close_window(t);
    const sim::Cycle next = t + cfg_.window;
    if (next < end_) arm(next);
  });
}

void Telemetry::flush(sim::Cycle t_end) {
  if (!enabled() || !started_ || flushed_) return;
  flushed_ = true;
  // The armed ticks stop strictly before end_, so the final (possibly
  // partial) window is always closed here — after the harness settled or
  // finalized the accounts, which is what makes the window sums telescope
  // to the run-level totals.
  if (t_end > last_close_) close_window(t_end);
}

void Telemetry::close_window(sim::Cycle t) {
  Window w;
  w.end = t;
  const std::uint32_t n = m_.cores();
  for (std::uint32_t c = 0; c < n; ++c) {
    // Snapshot as-is: no settle (see file comment in telemetry.hpp). The
    // wrapping unsigned diff is reinterpreted as signed, so retroactive
    // reclassification (service queue-delay carving) shows up as a
    // negative delta instead of a wrapped giant.
    const CycleAccount cur = m_.core(c).account;
    const CycleAccount d = cur.diff_since(prev_accounts_[c]);
    for (int b = 0; b < CycleAccount::kNumBuckets; ++b) {
      const auto v = static_cast<std::int64_t>(
          d.bucket(static_cast<CycleAccount::Bucket>(b)));
      w.buckets[b] += v;
      if (c == 0) w.core0[b] = v;
    }
    prev_accounts_[c] = cur;
    w.rx_words += m_.udn().buffer_occupancy(c);
  }

  const auto& nc = m_.udn().noc().counters();
  w.noc_messages = nc.messages - prev_noc_messages_;
  w.noc_link_wait = nc.link_wait - prev_noc_link_wait_;
  prev_noc_messages_ = nc.messages;
  prev_noc_link_wait_ = nc.link_wait;
  const std::uint64_t combines =
      m_.coherence().combining().counters().combines;
  w.noc_combines = combines - prev_noc_combines_;
  prev_noc_combines_ = combines;

  w.gauges.reserve(gauges_.size());
  for (auto& g : gauges_) w.gauges.push_back(g.fn());
  w.counters.reserve(counters_.size());
  for (auto& c : counters_) {
    const std::uint64_t cur = c.fn();
    w.counters.push_back(cur - c.prev);
    c.prev = cur;
  }

  if (completion_stream_) {
    w.completions = win_completions_;
    const auto [p50, p99] = sojourn_.quantiles({0.5, 0.99});
    w.p50 = p50;
    w.p99 = p99;
    w.max = win_max_sojourn_;
    win_completions_ = 0;
    win_max_sojourn_ = 0;
    sojourn_ = sim::Reservoir(cfg_.reservoir_cap);
  }

  // Perfetto counter samples, one per track per window (no-ops while the
  // tracer is disabled). tid 0 keeps the tracks under the run's process.
  sim::Tracer& tr = m_.tracer();
  for (int b = 0; b < CycleAccount::kNumBuckets; ++b) {
    tr.counter(0, trk_bucket_[b], t,
               static_cast<std::uint64_t>(w.buckets[b]));
  }
  tr.counter(0, trk_rx_words_, t, w.rx_words);
  tr.counter(0, trk_link_wait_, t, w.noc_link_wait);
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    tr.counter(0, gauges_[i].track_name, t, w.gauges[i]);
  }
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    tr.counter(0, counters_[i].track_name, t, w.counters[i]);
  }
  if (completion_stream_) {
    tr.counter(0, trk_throughput_, t, w.completions);
    tr.counter(0, trk_p99_, t, w.p99);
  }

  last_close_ = t;
  windows_.push_back(std::move(w));
}

JsonValue Telemetry::to_json() const {
  JsonValue out = JsonValue::object();
  out["window"] = JsonValue(cfg_.window);
  out["start"] = JsonValue(start_);
  out["end"] = JsonValue(last_close_);
  out["n_windows"] = JsonValue(static_cast<std::uint64_t>(windows_.size()));

  JsonValue ends = JsonValue::array();
  for (const Window& w : windows_) ends.push_back(JsonValue(w.end));
  out["ends"] = std::move(ends);

  auto bucket_series = [&](bool core0) {
    JsonValue obj = JsonValue::object();
    for (int b = 0; b < CycleAccount::kNumBuckets; ++b) {
      JsonValue arr = JsonValue::array();
      for (const Window& w : windows_) {
        arr.push_back(JsonValue(core0 ? w.core0[b] : w.buckets[b]));
      }
      obj[CycleAccount::bucket_name(static_cast<CycleAccount::Bucket>(b))] =
          std::move(arr);
    }
    return obj;
  };
  out["buckets"] = bucket_series(false);
  out["core0_buckets"] = bucket_series(true);

  JsonValue rx = JsonValue::array();
  for (const Window& w : windows_) rx.push_back(JsonValue(w.rx_words));
  out["udn_rx_words"] = std::move(rx);

  JsonValue noc = JsonValue::object();
  JsonValue msgs = JsonValue::array();
  JsonValue lw = JsonValue::array();
  JsonValue cmb = JsonValue::array();
  for (const Window& w : windows_) {
    msgs.push_back(JsonValue(w.noc_messages));
    lw.push_back(JsonValue(w.noc_link_wait));
    cmb.push_back(JsonValue(w.noc_combines));
  }
  noc["messages"] = std::move(msgs);
  noc["link_wait"] = std::move(lw);
  noc["combines"] = std::move(cmb);
  out["noc"] = std::move(noc);

  if (!gauges_.empty()) {
    JsonValue g = JsonValue::object();
    for (std::size_t i = 0; i < gauges_.size(); ++i) {
      JsonValue arr = JsonValue::array();
      for (const Window& w : windows_) arr.push_back(JsonValue(w.gauges[i]));
      g[gauges_[i].name] = std::move(arr);
    }
    out["gauges"] = std::move(g);
  }
  if (!counters_.empty()) {
    JsonValue c = JsonValue::object();
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      JsonValue arr = JsonValue::array();
      for (const Window& w : windows_) arr.push_back(JsonValue(w.counters[i]));
      c[counters_[i].name] = std::move(arr);
    }
    out["counters"] = std::move(c);
  }

  if (completion_stream_) {
    JsonValue th = JsonValue::array();
    JsonValue p50 = JsonValue::array();
    JsonValue p99 = JsonValue::array();
    JsonValue mx = JsonValue::array();
    for (const Window& w : windows_) {
      th.push_back(JsonValue(w.completions));
      p50.push_back(JsonValue(w.p50));
      p99.push_back(JsonValue(w.p99));
      mx.push_back(JsonValue(w.max));
    }
    out["throughput"] = std::move(th);
    out["sojourn_p50"] = std::move(p50);
    out["sojourn_p99"] = std::move(p99);
    out["sojourn_max"] = std::move(mx);
  }

  // Run-level per-link utilization grid for plot_ascii.py --heatmap:
  // hold (busy) and wait cycles per directed link since start(), indexed
  // link = (y * mesh_w + x) * 4 + dir (E,W,N,S). All zeros unless the run
  // models link contention (--noc / MachineParams::model_link_contention).
  const auto& nm = m_.udn().noc();
  JsonValue grid = JsonValue::object();
  grid["mesh_w"] = JsonValue(nm.mesh_w());
  grid["mesh_h"] = JsonValue(nm.mesh_h());
  grid["elapsed"] = JsonValue(last_close_ - start_);
  JsonValue busy = JsonValue::array();
  JsonValue wait = JsonValue::array();
  const auto& lb = nm.link_busy();
  const auto& lww = nm.link_wait();
  for (std::size_t i = 0; i < lb.size(); ++i) {
    busy.push_back(JsonValue(lb[i] - base_link_busy_[i]));
    wait.push_back(JsonValue(lww[i] - base_link_wait_[i]));
  }
  grid["busy"] = std::move(busy);
  grid["wait"] = std::move(wait);

  // Multi-chip machines additionally get a per-chip aggregate: chip (cx,
  // cy) at index cy * chips_x + cx sums the busy/wait of every directed
  // link whose source router sits on that chip, so the chip series
  // telescopes exactly to the sums of the global grid
  // (tests/test_telemetry.cpp pins the invariant).
  const arch::MachineParams& mp = m_.params();
  grid["chips_x"] = JsonValue(mp.chips_x);
  grid["chips_y"] = JsonValue(mp.chips_y);
  if (mp.chips() > 1) {
    const std::uint32_t cw = mp.chip_w(), ch = mp.chip_h();
    std::vector<std::uint64_t> cb(mp.chips(), 0), cwt(mp.chips(), 0);
    const auto& lb2 = nm.link_busy();
    const auto& lw2 = nm.link_wait();
    for (std::size_t i = 0; i < lb2.size(); ++i) {
      const std::size_t router = i / 4;  // link = router * kDirs + dir
      const std::uint32_t x = static_cast<std::uint32_t>(router % mp.mesh_w);
      const std::uint32_t y = static_cast<std::uint32_t>(router / mp.mesh_w);
      const std::size_t chip = (y / ch) * mp.chips_x + (x / cw);
      cb[chip] += lb2[i] - base_link_busy_[i];
      cwt[chip] += lw2[i] - base_link_wait_[i];
    }
    JsonValue cbj = JsonValue::array();
    JsonValue cwj = JsonValue::array();
    for (std::size_t c = 0; c < cb.size(); ++c) {
      cbj.push_back(JsonValue(cb[c]));
      cwj.push_back(JsonValue(cwt[c]));
    }
    grid["chip_busy"] = std::move(cbj);
    grid["chip_wait"] = std::move(cwj);
  }
  out["link_grid"] = std::move(grid);

  return out;
}

}  // namespace hmps::obs
