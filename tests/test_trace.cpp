// Tests for the execution tracer.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "obs/json.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/trace.hpp"
#include "sync/delegation_server.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

// Renders a tracer to its Chrome JSON and parses it back; fails the test on
// invalid JSON.
obs::JsonValue parse_trace(const sim::Tracer& t) {
  std::stringstream ss;
  t.write_chrome_json(ss);
  obs::JsonValue doc;
  std::string err;
  EXPECT_TRUE(obs::JsonValue::parse(ss.str(), &doc, &err)) << err;
  return doc;
}

TEST(Tracer, DisabledCollectsNothing) {
  sim::Tracer t;
  t.event(0, "x", 0, 5);
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tracer, CollectsAndCaps) {
  sim::Tracer t;
  t.enable(3);
  for (int i = 0; i < 10; ++i) t.event(0, "e", i, 1);
  EXPECT_EQ(t.size(), 3u);
}

TEST(Tracer, WritesValidChromeJson) {
  sim::Tracer t;
  t.enable();
  t.event(2, "load-miss", 100, 40);
  t.event(3, "compute", 140, 7);
  const std::string path = "/tmp/hmps_tracer_test.json";
  t.write_chrome_json(path);
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string s = ss.str();
  EXPECT_NE(s.find("\"name\":\"load-miss\""), std::string::npos);
  EXPECT_NE(s.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(s.find("\"ts\":100"), std::string::npos);
  // The file is one JSON object: {"traceEvents": [...], "hmps": {...}}.
  obs::JsonValue doc;
  std::string err;
  ASSERT_TRUE(obs::JsonValue::parse(s, &doc, &err)) << err;
  ASSERT_TRUE(doc.is_object());
  const obs::JsonValue* ev = doc.find("traceEvents");
  ASSERT_NE(ev, nullptr);
  ASSERT_TRUE(ev->is_array());
  const obs::JsonValue* footer = doc.find("hmps");
  ASSERT_NE(footer, nullptr);
  EXPECT_EQ(footer->find("events")->as_uint(), 2u);
  EXPECT_EQ(footer->find("dropped")->as_uint(), 0u);
  EXPECT_FALSE(footer->has("warning"));
}

TEST(Tracer, ZeroEventsIsValidJson) {
  sim::Tracer t;  // never enabled, nothing recorded
  const obs::JsonValue doc = parse_trace(t);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("traceEvents")->size(), 0u);
  EXPECT_EQ(doc.find("hmps")->find("events")->as_uint(), 0u);
}

TEST(Tracer, EscapesNamesInJson) {
  sim::Tracer t;
  t.enable();
  t.set_process(0, "run \"A\"\\1\n");
  t.event(0, "ev\"il\\name\t", 0, 1);
  const obs::JsonValue doc = parse_trace(t);
  bool found_event = false, found_proc = false;
  for (const obs::JsonValue& e : doc.find("traceEvents")->items()) {
    const std::string& name = e.find("args") && e.find("args")->has("name")
                                  ? e.find("args")->find("name")->as_string()
                                  : e.find("name")->as_string();
    if (name == "ev\"il\\name\t") found_event = true;
    if (name == "run \"A\"\\1\n") found_proc = true;
  }
  EXPECT_TRUE(found_event);
  EXPECT_TRUE(found_proc);
}

TEST(Tracer, CountsDropsAndWarnsInFooter) {
  sim::Tracer t;
  t.enable(/*max_events=*/2);
  for (int i = 0; i < 7; ++i) t.event(0, "e", i, 1);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dropped(), 5u);
  const obs::JsonValue doc = parse_trace(t);
  const obs::JsonValue* footer = doc.find("hmps");
  EXPECT_EQ(footer->find("dropped")->as_uint(), 5u);
  ASSERT_TRUE(footer->has("warning"));
  EXPECT_NE(footer->find("warning")->as_string().find("dropped"),
            std::string::npos);
}

TEST(Tracer, MergeRemapsFlowIdsWithoutCollisions) {
  sim::Tracer a, b;
  a.enable();
  b.enable();
  const std::uint64_t fa = a.next_flow_id();
  a.flow_start(0, "m", 10, fa);
  a.flow_end(1, "m", 20, fa);
  const std::uint64_t fb = b.next_flow_id();  // same numeric id as fa
  EXPECT_EQ(fa, fb);
  b.flow_start(2, "m", 30, fb);
  b.flow_end(3, "m", 45, fb);

  sim::Tracer sink;
  sink.merge_from(a);
  sink.merge_from(b);
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(a.size(), 0u);  // drained
  const obs::JsonValue doc = parse_trace(sink);
  std::map<std::uint64_t, int> starts, ends;
  for (const obs::JsonValue& e : doc.find("traceEvents")->items()) {
    const obs::JsonValue* ph = e.find("ph");
    if (ph && ph->as_string() == "s") starts[e.find("id")->as_uint()]++;
    if (ph && ph->as_string() == "f") ends[e.find("id")->as_uint()]++;
  }
  EXPECT_EQ(starts.size(), 2u);  // distinct ids after the remap
  EXPECT_EQ(starts, ends);
}

TEST(Tracer, SimulationEmitsEventsWhenEnabled) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  ex.machine().tracer().enable();
  ds::SeqCounter c;
  sync::MpServer<SimCtx> mp(0, &c);
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) {
    for (int k = 0; k < 10; ++k) mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
    mp.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_GT(ex.machine().tracer().size(), 40u);  // sends/receives/loads...
}

TEST(Tracer, EverySimulatedFlowStartHasMatchingEnd) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  ex.machine().tracer().enable();
  ds::SeqCounter c;
  sync::MpServer<SimCtx> mp(0, &c);
  ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) {
    for (int k = 0; k < 10; ++k) mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
    mp.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  const obs::JsonValue doc = parse_trace(ex.machine().tracer());
  std::map<std::uint64_t, int> starts, ends;
  std::uint64_t client_to_server = 0;
  for (const obs::JsonValue& e : doc.find("traceEvents")->items()) {
    const obs::JsonValue* ph = e.find("ph");
    if (!ph) continue;
    if (ph->as_string() == "s") {
      starts[e.find("id")->as_uint()]++;
      EXPECT_EQ(e.find("cat")->as_string(), "udn");
      // Client (core 1) -> server (core 0) requests show up as flows.
      if (e.find("tid")->as_uint() == 1) ++client_to_server;
    } else if (ph->as_string() == "f") {
      ends[e.find("id")->as_uint()]++;
    }
  }
  EXPECT_GE(starts.size(), 10u);  // one per UDN message, >= one per apply
  EXPECT_GE(client_to_server, 10u);
  EXPECT_EQ(starts, ends);  // every "s" paired with exactly one "f"
  for (const auto& [id, n] : starts) EXPECT_EQ(n, 1) << "flow id " << id;
}

TEST(Tracer, NoOverheadPathWhenDisabled) {
  // Behavioral check: identical op counts with tracer on/off.
  auto run = [](bool trace) {
    SimExecutor ex(arch::MachineParams::tilegx36(), 1);
    if (trace) ex.machine().tracer().enable();
    ds::SeqCounter c;
    sync::MpServer<SimCtx> mp(0, &c);
    ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
    ex.add_thread([&](SimCtx& ctx) {
      for (int k = 0; k < 25; ++k) mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
      mp.request_stop(ctx);
    });
    ex.run_until(sim::kCycleMax);
    return std::pair<std::uint64_t, sim::Cycle>(c.value.load(),
                                                ex.sched().now());
  };
  const auto a = run(false);
  const auto b = run(true);
  EXPECT_EQ(a.first, b.first);
  // Timing identical: tracing must not perturb the simulation.
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace hmps
