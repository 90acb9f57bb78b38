// Tests for the extension components: flat combining, DSM-Synch, and the
// elimination back-off stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "arch/params.hpp"
#include "check/explore.hpp"
#include "check/gen.hpp"
#include "ds/counter.hpp"
#include "ds/elim_stack.hpp"
#include "harness/history.hpp"
#include "harness/record.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/ccsynch.hpp"
#include "sync/flat_combining.hpp"
#include "sync/oyama.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

struct MutexProbe {
  ds::SeqCounter counter;
  int inside = 0;
  int max_inside = 0;
};

std::uint64_t probe_cs(SimCtx& ctx, void* obj, std::uint64_t /*arg*/) {
  auto* p = static_cast<MutexProbe*>(obj);
  ++p->inside;
  if (p->inside > p->max_inside) p->max_inside = p->inside;
  const std::uint64_t v = ctx.load(&p->counter.value);
  ctx.compute(7);
  ctx.store(&p->counter.value, v + 1);
  --p->inside;
  return v;
}

enum class Kind { kFlatCombining, kDsmSynch, kHSynch, kOyama };

struct Outcome {
  std::uint64_t final_count = 0;
  int max_inside = 0;
  bool unique_returns = true;
  std::uint64_t tenures = 0;
  std::uint64_t served = 0;
};

Outcome run(Kind kind, std::uint32_t nthreads, std::uint64_t ops_each,
            std::uint64_t seed, std::uint32_t max_ops = 16) {
  SimExecutor ex(arch::MachineParams::tilegx36(), seed);
  MutexProbe probe;
  sync::FlatCombining<SimCtx> fc(&probe);
  sync::DsmSynch<SimCtx> dsm(&probe, max_ops);
  sync::HSynch<SimCtx> hs(&probe, max_ops);
  sync::OyamaComb<SimCtx> oy(&probe);
  std::vector<std::uint64_t> all;

  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&](SimCtx& ctx) {
      for (std::uint64_t k = 0; k < ops_each; ++k) {
        std::uint64_t r = 0;
        switch (kind) {
          case Kind::kFlatCombining: r = fc.apply(ctx, probe_cs, 0); break;
          case Kind::kDsmSynch: r = dsm.apply(ctx, probe_cs, 0); break;
          case Kind::kHSynch: r = hs.apply(ctx, probe_cs, 0); break;
          case Kind::kOyama: r = oy.apply(ctx, probe_cs, 0); break;
        }
        all.push_back(r);
        ctx.compute(ctx.rand_below(25));
      }
    });
  }
  ex.run_until(sim::kCycleMax);

  Outcome o;
  o.final_count = probe.counter.value.load();
  o.max_inside = probe.max_inside;
  std::sort(all.begin(), all.end());
  o.unique_returns =
      std::adjacent_find(all.begin(), all.end()) == all.end();
  for (std::uint32_t t = 0; t < 64; ++t) {
    const sync::SyncStats* s = nullptr;
    switch (kind) {
      case Kind::kFlatCombining: s = &fc.stats(t); break;
      case Kind::kDsmSynch: s = &dsm.stats(t); break;
      case Kind::kHSynch: s = &hs.stats(t); break;
      case Kind::kOyama: s = &oy.stats(t); break;
    }
    o.tenures += s->tenures;
    o.served += s->served;
  }
  return o;
}

class ExtUc
    : public ::testing::TestWithParam<std::tuple<Kind, std::uint32_t,
                                                 std::uint64_t>> {};

TEST_P(ExtUc, MutualExclusionAndCompleteness) {
  const auto [kind, nthreads, seed] = GetParam();
  const std::uint64_t ops_each = 60;
  const Outcome o = run(kind, nthreads, ops_each, seed);
  EXPECT_EQ(o.final_count, static_cast<std::uint64_t>(nthreads) * ops_each);
  EXPECT_EQ(o.max_inside, 1);
  EXPECT_TRUE(o.unique_returns);
  EXPECT_EQ(o.served, o.final_count) << "every CS execution is accounted";
}

std::string ExtName(
    const ::testing::TestParamInfo<std::tuple<Kind, std::uint32_t,
                                              std::uint64_t>>& info) {
  static const char* names[] = {"FlatCombining", "DsmSynch", "HSynch",
                                "Oyama"};
  return std::string(names[static_cast<int>(std::get<0>(info.param))]) +
         "_t" + std::to_string(std::get<1>(info.param)) + "_s" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Exts, ExtUc,
    ::testing::Combine(::testing::Values(Kind::kFlatCombining,
                                         Kind::kDsmSynch, Kind::kHSynch,
                                         Kind::kOyama),
                       ::testing::Values(1u, 2u, 8u, 24u, 35u),
                       ::testing::Values(1u, 42u)),
    ExtName);

TEST(HSynchBehavior, ClusterCombinersCombine) {
  const Outcome o = run(Kind::kHSynch, 24, 80, 9, /*max_ops=*/32);
  EXPECT_GT(static_cast<double>(o.served) / static_cast<double>(o.tenures),
            1.2);
}

TEST(OyamaBehavior, OwnerDrainsPendingList) {
  const Outcome o = run(Kind::kOyama, 24, 80, 9);
  EXPECT_GT(static_cast<double>(o.served) / static_cast<double>(o.tenures),
            1.5);
}

TEST(DsmSynchBehavior, CombinesUnderLoad) {
  const Outcome o = run(Kind::kDsmSynch, 24, 80, 9, /*max_ops=*/32);
  EXPECT_GT(o.served, 0u);
  EXPECT_GT(static_cast<double>(o.served) / static_cast<double>(o.tenures),
            1.5)
      << "DSM-Synch should combine multiple requests per tenure under load";
}

TEST(FlatCombiningBehavior, CombinesUnderLoad) {
  const Outcome o = run(Kind::kFlatCombining, 24, 80, 9);
  EXPECT_GT(static_cast<double>(o.served) / static_cast<double>(o.tenures),
            1.5);
}

// ---- elimination stack ----

TEST(ElimStack, SequentialLifo) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 1);
  ds::ElimStack<SimCtx> st;
  std::vector<std::uint64_t> got;
  ex.add_thread([&](SimCtx& ctx) {
    EXPECT_EQ(st.pop(ctx), ds::kStackEmpty);
    for (std::uint32_t v = 1; v <= 50; ++v) st.push(ctx, v);
    for (int i = 0; i < 50; ++i) got.push_back(st.pop(ctx));
    EXPECT_EQ(st.pop(ctx), ds::kStackEmpty);
  });
  ex.run_until(sim::kCycleMax);
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(got[i], static_cast<std::uint64_t>(50 - i));
  }
}

class ElimStackConc
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint64_t>> {};

TEST_P(ElimStackConc, NoLossNoDupUnderContention) {
  const auto [nthreads, seed] = GetParam();
  SimExecutor ex(arch::MachineParams::tilegx36(), seed);
  ds::ElimStack<SimCtx> st(512);
  const std::uint32_t ops = 60;
  std::vector<std::vector<std::uint64_t>> popped(nthreads);
  std::uint32_t done = 0;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < ops; ++k) {
        st.push(ctx, (i << 20) | k);
        const std::uint64_t v = st.pop(ctx);
        if (v != ds::kStackEmpty) popped[i].push_back(v);
        ctx.compute(ctx.rand_below(20));
      }
      ++done;
      if (done == nthreads) {
        for (;;) {
          const std::uint64_t v = st.pop(ctx);
          if (v == ds::kStackEmpty) break;
          popped[i].push_back(v);
        }
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  std::vector<std::uint64_t> all;
  for (auto& v : popped) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(nthreads) * ops);
  EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end());
}

INSTANTIATE_TEST_SUITE_P(
    Contention, ElimStackConc,
    ::testing::Combine(::testing::Values(2u, 8u, 24u),
                       ::testing::Values(3u, 77u)),
    [](const auto& info) {
      return "t" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ---- schedule-exploration coverage (src/check, docs/TESTING.md) ----
//
// Drive each extension construction through the exploration harness with an
// aggressive perturbation plan (rank delays + point preemptions at the
// sync-layer yield points) and require the recorded history to pass both the
// fast sound checks and — for these small windows — the complete checker.

check::Scenario perturbed_scenario(harness::Construction c,
                                   harness::Object o, std::uint64_t seed) {
  check::Scenario s;
  s.cfg.construction = c;
  s.cfg.object = o;
  s.cfg.seed = seed;
  s.cfg.threads = 4;
  s.cfg.ops_each = 6;
  s.cfg.max_ops = 4;
  s.cfg.think_max = 20;
  s.perturb.seed = seed ^ 0xBEEF;
  s.perturb.nthreads =
      s.cfg.threads + (harness::uses_server(c) ? 1 : 0);
  s.perturb.change_points = 3;
  s.perturb.change_interval = 50'000;
  s.perturb.resume_permille = 200;
  s.perturb.delay_unit = 400;
  s.perturb.point_permille = 300;
  s.perturb.point_delay_max = 5'000;
  check::clamp_cfg(s.cfg);
  return s;
}

class ExtExplore
    : public ::testing::TestWithParam<
          std::tuple<harness::Construction, harness::Object, std::uint64_t>> {
};

TEST_P(ExtExplore, PerturbedHistoriesStayLinearizable) {
  const auto [c, o, seed] = GetParam();
  const check::Violation v =
      check::run_scenario(perturbed_scenario(c, o, seed));
  EXPECT_FALSE(v.found) << "[" << v.kind << "] " << v.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Exts, ExtExplore,
    ::testing::Combine(
        ::testing::Values(harness::Construction::kOyama,
                          harness::Construction::kHSynch,
                          harness::Construction::kDsmSynch,
                          harness::Construction::kFlatCombining),
        ::testing::Values(harness::Object::kCounter, harness::Object::kQueue,
                          harness::Object::kStack),
        ::testing::Values(11u, 97u)),
    [](const auto& info) {
      return std::string(harness::to_string(std::get<0>(info.param))) + "_" +
             harness::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(ExtExploreElim, PerturbedElimStackStaysSound) {
  // The construction field is ignored for direct concurrent objects; the
  // elimination stack runs lock-free against the perturbed schedule.
  for (const std::uint64_t seed : {7u, 131u}) {
    const check::Violation v = check::run_scenario(perturbed_scenario(
        harness::Construction::kCcSynch, harness::Object::kElimStack, seed));
    EXPECT_FALSE(v.found) << "[" << v.kind << "] " << v.detail;
  }
}

// ---- fixed-pool capacity aborts (sync::check_tid) ----

TEST(ExtCapacityDeath, StatsIndexBeyondPoolAborts) {
  ds::SeqCounter c;
  sync::OyamaComb<SimCtx> oy(&c);
  sync::HSynch<SimCtx> hs(&c, 8);
  sync::DsmSynch<SimCtx> dsm(&c, 8);
  sync::FlatCombining<SimCtx> fc(&c);
  ds::ElimStack<SimCtx> st;
  EXPECT_DEATH(oy.stats(64), "exceeds the construction's fixed capacity");
  EXPECT_DEATH(hs.stats(64), "exceeds the construction's fixed capacity");
  EXPECT_DEATH(dsm.stats(100), "exceeds the construction's fixed capacity");
  EXPECT_DEATH(fc.stats(64), "exceeds the construction's fixed capacity");
  EXPECT_DEATH(st.stats(64), "exceeds the construction's fixed capacity");
}

TEST(ElimStack, EliminationActuallyHappens) {
  // Heavy symmetric push/pop traffic with no think time should see some
  // operations eliminated without touching the top pointer.
  SimExecutor ex(arch::MachineParams::tilegx36(), 5);
  ds::ElimStack<SimCtx> st(512, /*slots=*/8, /*wait=*/96);
  const std::uint32_t nthreads = 32;
  for (std::uint32_t i = 0; i < nthreads; ++i) {
    ex.add_thread([&, i](SimCtx& ctx) {
      for (std::uint32_t k = 0; k < 200; ++k) {
        st.push(ctx, (i << 20) | k);
        (void)st.pop(ctx);
      }
    });
  }
  ex.run_until(sim::kCycleMax);
  std::uint64_t elims = 0;
  for (std::uint32_t t = 0; t < 64; ++t) elims += st.stats(t).eliminations;
  EXPECT_GT(elims, 0u);
}

}  // namespace
}  // namespace hmps
