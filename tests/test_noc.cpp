// Tests for the optional link-contention NoC model and its integration
// with the UDN.
#include <gtest/gtest.h>

#include "arch/machine.hpp"
#include "arch/noc.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "ds/counter.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/delegation_server.hpp"

namespace hmps::arch {
namespace {

class NocTest : public ::testing::Test {
 protected:
  NocTest() : p_(MachineParams::tilegx36()), topo_(p_), noc_(p_, topo_) {}
  MachineParams p_;
  MeshTopology topo_;
  NocModel noc_;
};

TEST_F(NocTest, UncontendedMatchesWireFormula) {
  // A lone message's route time equals router + hop * distance.
  const Cycle t = noc_.route(0, 35, 1000, 3);
  EXPECT_EQ(t, 1000 + topo_.wire(0, 35));
  EXPECT_EQ(noc_.counters().link_wait, 0u);
  EXPECT_EQ(noc_.counters().hops, topo_.hops(0, 35));
}

TEST_F(NocTest, SameSourceBackToBackQueues) {
  // Two messages leaving core 0 eastward at the same time share the first
  // link: the second one waits for the first one's flits.
  const Cycle a = noc_.route(0, 5, 1000, 3);
  const Cycle b = noc_.route(0, 5, 1000, 3);
  EXPECT_GT(b, a);
  EXPECT_GT(noc_.counters().link_wait, 0u);
}

TEST_F(NocTest, DisjointPathsDoNotInterfere) {
  // Rows 0 and 5 never share a link under XY routing.
  const Cycle a = noc_.route(0, 5, 1000, 3);   // row 0 eastward
  const Cycle b = noc_.route(30, 35, 1000, 3); // row 5 eastward
  EXPECT_EQ(a, 1000 + topo_.wire(0, 5));
  EXPECT_EQ(b, 1000 + topo_.wire(30, 35));
  EXPECT_EQ(noc_.counters().link_wait, 0u);
}

TEST_F(NocTest, XyRoutingGoesXFirst) {
  // 0 -> 35 takes 5 east hops then 5 south hops; the east links of row 0
  // must be reserved (observable by a second message through them).
  noc_.route(0, 35, 1000, 4);
  const Cycle t = noc_.route(0, 5, 1000, 1);  // same row-0 east links
  EXPECT_GT(t, 1000 + topo_.wire(0, 5));
}

TEST_F(NocTest, ZeroHopRouteIsRouterOnly) {
  const Cycle t = noc_.route(7, 7, 500, 3);
  EXPECT_EQ(t, 500 + p_.router);
}

TEST(NocIntegration, ManyToOneSlowsDeliveryUnderContention) {
  using rt::SimCtx;
  // 35 clients hammer one server with and without link modeling; with the
  // wormhole model enabled, total served throughput must not increase and
  // the NoC must report queueing.
  auto run = [](bool contention) {
    arch::MachineParams p = arch::MachineParams::tilegx36();
    p.model_link_contention = contention;
    rt::SimExecutor ex(p, 17);
    static ds::SeqCounter counter;  // fresh value below
    counter.value.store(0);
    sync::MpServer<SimCtx> mp(0, &counter);
    ex.add_thread([&](SimCtx& ctx) { mp.serve(ctx); });
    for (int i = 0; i < 35; ++i) {
      ex.add_thread([&](SimCtx& ctx) {
        for (;;) mp.apply(ctx, ds::counter_inc<SimCtx>, 0);
      });
    }
    ex.run_until(150'000);
    return std::pair<std::uint64_t, Cycle>(
        counter.value.load(),
        ex.machine().udn().noc().counters().link_wait);
  };
  const auto [ops_plain, wait_plain] = run(false);
  const auto [ops_noc, wait_noc] = run(true);
  EXPECT_EQ(wait_plain, 0u);        // model off: never consulted
  EXPECT_GT(wait_noc, 0u);          // model on: real queueing observed
  EXPECT_LE(ops_noc, ops_plain);    // contention cannot speed things up
  EXPECT_GT(ops_noc, ops_plain / 2);  // ...and is a second-order effect
}

}  // namespace
}  // namespace hmps::arch
