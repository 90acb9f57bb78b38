// Tests for MP-SERVER-HUB: one server core serving many objects through
// the Section 5.2 opcode interface.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "arch/params.hpp"
#include "ds/counter.hpp"
#include "ds/queue.hpp"
#include "runtime/sim_context.hpp"
#include "runtime/sim_executor.hpp"
#include "sync/delegation_server.hpp"

namespace hmps {
namespace {

using rt::SimCtx;
using rt::SimExecutor;

TEST(MpServerHub, ServesMultipleCountersExactly) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 3);
  constexpr std::uint32_t kObjects = 5, kClients = 12;
  constexpr std::uint64_t kOps = 60;
  std::vector<std::unique_ptr<ds::SeqCounter>> objs;
  sync::MpServerHub<SimCtx> hub(0);
  std::vector<std::uint64_t> opcodes;
  for (std::uint32_t i = 0; i < kObjects; ++i) {
    objs.push_back(std::make_unique<ds::SeqCounter>());
    opcodes.push_back(hub.add_op(&ds::counter_inc<SimCtx>, objs[i].get()));
  }
  std::uint32_t done = 0;
  ex.add_thread([&](SimCtx& ctx) { hub.serve(ctx); });
  for (std::uint32_t c = 0; c < kClients; ++c) {
    ex.add_thread([&, c](SimCtx& ctx) {
      for (std::uint64_t k = 0; k < kOps; ++k) {
        hub.apply(ctx, opcodes[(c + k) % kObjects], 0);
      }
      if (++done == kClients) hub.request_stop(ctx);
    });
  }
  ex.run_until(sim::kCycleMax);
  std::uint64_t total = 0;
  for (auto& o : objs) total += o->value.load();
  EXPECT_EQ(total, kClients * kOps);
  // Every object saw traffic.
  for (auto& o : objs) EXPECT_GT(o->value.load(), 0u);
  EXPECT_EQ(hub.stats(0).served, kClients * kOps);
}

TEST(MpServerHub, MixedObjectTypesThroughOneServer) {
  // A counter and a queue behind the same server core: opcodes dispatch to
  // different CS bodies and objects.
  SimExecutor ex(arch::MachineParams::tilegx36(), 5);
  ds::SeqCounter counter;
  ds::SeqQueue queue(512);
  sync::MpServerHub<SimCtx> hub(0);
  const auto op_inc = hub.add_op(&ds::counter_inc<SimCtx>, &counter);
  const auto op_enq = hub.add_op(&ds::q_enqueue<SimCtx>, &queue);
  const auto op_deq = hub.add_op(&ds::q_dequeue<SimCtx>, &queue);

  ex.add_thread([&](SimCtx& ctx) { hub.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) {
    for (std::uint64_t k = 0; k < 50; ++k) {
      hub.apply(ctx, op_inc, 0);
      hub.apply(ctx, op_enq, 100 + k);
      EXPECT_EQ(hub.apply(ctx, op_deq, 0), 100 + k);
    }
    hub.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
  EXPECT_EQ(counter.value.load(), 50u);
}

TEST(MpServerHub, OpcodeBoundsAssertedInDebug) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 7);
  sync::MpServerHub<SimCtx> hub(0);
  ds::SeqCounter c;
  const auto op = hub.add_op(&ds::counter_inc<SimCtx>, &c);
  EXPECT_EQ(op, 1u);
  EXPECT_EQ(hub.op_count(), 1u);
}

// The opcode check must survive NDEBUG builds: an opcode past op_count()
// would index past the table in serve(), and opcode 0 (the stop word) would
// silently shut the server down.
using MpServerHubDeathTest = ::testing::Test;

void apply_opcode(std::uint64_t opcode, bool async) {
  SimExecutor ex(arch::MachineParams::tilegx36(), 7);
  ds::SeqCounter c;
  sync::MpServerHub<SimCtx> hub(0);
  hub.add_op(&ds::counter_inc<SimCtx>, &c);
  ex.add_thread([&](SimCtx& ctx) { hub.serve(ctx); });
  ex.add_thread([&](SimCtx& ctx) {
    if (async) {
      sync::Ticket t = hub.apply_async(ctx, opcode, 0);
      hub.wait(ctx, t);
    } else {
      hub.apply(ctx, opcode, 0);
    }
    hub.request_stop(ctx);
  });
  ex.run_until(sim::kCycleMax);
}

TEST(MpServerHubDeathTest, UnregisteredOpcodeAborts) {
  apply_opcode(1, false);  // the registered opcode runs normally
  apply_opcode(1, true);
  EXPECT_DEATH(apply_opcode(2, false),
               "MpServerHub::apply: opcode 2 is not registered");
  EXPECT_DEATH(apply_opcode(0, false),
               "MpServerHub::apply: opcode 0 is not registered");
  EXPECT_DEATH(apply_opcode(9, true),
               "MpServerHub::apply_async: opcode 9 is not registered");
}

}  // namespace
}  // namespace hmps
