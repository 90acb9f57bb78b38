// Unit tests for the machine model: topology, coherence cost structure,
// memory-controller atomics, and the UDN message-passing model.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "arch/coherence.hpp"
#include "arch/machine.hpp"
#include "arch/params.hpp"
#include "arch/topology.hpp"
#include "arch/udn.hpp"
#include "sim/stats.hpp"

namespace hmps::arch {
namespace {

TEST(Topology, CoordsAndDistances) {
  MachineParams p = MachineParams::tilegx36();
  MeshTopology topo(p);
  EXPECT_EQ(topo.cores(), 36u);
  EXPECT_EQ(topo.hops(0, 0), 0u);
  EXPECT_EQ(topo.hops(0, 5), 5u);    // same row, far end
  EXPECT_EQ(topo.hops(0, 35), 10u);  // opposite corner of the 6x6 mesh
  EXPECT_EQ(topo.hops(7, 7), 0u);
  EXPECT_EQ(topo.hops(3, 9), 1u);    // vertical neighbors
}

TEST(Topology, WireLatencyMonotoneInDistance) {
  MachineParams p = MachineParams::tilegx36();
  MeshTopology topo(p);
  EXPECT_LT(topo.wire(0, 1), topo.wire(0, 35));
  EXPECT_EQ(topo.wire(4, 4), p.router);
}

TEST(Topology, HomesAreDistributed) {
  MachineParams p = MachineParams::tilegx36();
  MeshTopology topo(p);
  std::vector<int> counts(topo.cores(), 0);
  for (std::uint64_t line = 0; line < 10000; ++line) {
    ++counts[topo.home_tile(line)];
  }
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(Topology, CtrlAssignmentCoversAll) {
  MachineParams p = MachineParams::tilegx36();
  MeshTopology topo(p);
  ASSERT_EQ(topo.n_ctrls(), 2u);
  int seen[2] = {0, 0};
  for (std::uint64_t line = 0; line < 1000; ++line) {
    ++seen[topo.home_ctrl(line)];
  }
  EXPECT_GT(seen[0], 200);
  EXPECT_GT(seen[1], 200);
}

// The coherence model keeps one busy timeline per memory controller in a
// fixed table; a machine with more controllers than the table holds must
// abort instead of folding two controllers onto one timeline.
using CoherenceDeathTest = ::testing::Test;

TEST(CoherenceDeathTest, ControllerCountOutsideTableAborts) {
  for (std::uint32_t n : {1u, 4u, CoherenceModel::kMaxCtrls}) {
    MachineParams p = MachineParams::tilegx36();
    p.n_mem_ctrls = n;
    MeshTopology topo(p);
    CoherenceModel coh(p, topo);
    EXPECT_EQ(topo.n_ctrls(), n);
  }
  for (std::uint32_t n : {0u, CoherenceModel::kMaxCtrls + 1, 64u}) {
    MachineParams p = MachineParams::tilegx36();
    p.n_mem_ctrls = n;
    MeshTopology topo(p);
    EXPECT_DEATH(CoherenceModel(p, topo),
                 "n_mem_ctrls = [0-9]+ is outside the supported range");
  }
}

// line_of() is a shift, and simulated arenas are aligned to 64 bytes only:
// a line size that is not a power of two in [8, 64] must abort instead of
// dividing by zero or packing lines by the host allocation base.
TEST(CoherenceDeathTest, LineSizeOutsideModelAborts) {
  for (std::uint32_t b : {8u, 32u, 64u}) {
    MachineParams p = MachineParams::tilegx36();
    p.line_bytes = b;
    MeshTopology topo(p);
    CoherenceModel coh(p, topo);
    EXPECT_EQ(coh.line_of(5 * b + b - 1), 5u);
  }
  for (std::uint32_t b : {0u, 48u, 128u}) {
    MachineParams p = MachineParams::tilegx36();
    p.line_bytes = b;
    MeshTopology topo(p);
    EXPECT_DEATH(CoherenceModel(p, topo),
                 "hmps fatal: CoherenceModel: line_bytes = [0-9]+ is not a "
                 "power of two in \\[8, 64\\]");
  }
}

class CoherenceTest : public ::testing::Test {
 protected:
  CoherenceTest() : p_(MachineParams::tilegx36()), topo_(p_), coh_(p_, topo_) {}
  MachineParams p_;
  MeshTopology topo_;
  CoherenceModel coh_;
};

TEST_F(CoherenceTest, FirstReadMissesThenHits) {
  const std::uint64_t a = 0x1000;
  auto miss = coh_.read(0, a, 0);
  EXPECT_TRUE(miss.remote);
  EXPECT_GT(miss.latency, p_.l_hit);
  auto hit = coh_.read(0, a, 100);
  EXPECT_FALSE(hit.remote);
  EXPECT_EQ(hit.latency, p_.l_hit);
}

TEST_F(CoherenceTest, WriteInvalidatesReaders) {
  const std::uint64_t a = 0x2000;
  coh_.read(0, a, 0);
  coh_.read(1, a, 100);
  auto w = coh_.write(2, a, 200);
  EXPECT_TRUE(w.remote);
  // The new owner hits on both reads and further writes...
  EXPECT_FALSE(coh_.write(2, a, 250).remote);
  EXPECT_FALSE(coh_.read(2, a, 260).remote);
  // ...while both prior readers must now miss.
  EXPECT_TRUE(coh_.read(0, a, 300).remote);
  EXPECT_TRUE(coh_.read(1, a, 400).remote);
  // Readers took shared copies, so even the former owner's next write is an
  // upgrade RMR (invalidation round).
  EXPECT_TRUE(coh_.write(2, a, 600).remote);
}

TEST_F(CoherenceTest, DirtyReadDowngradesOwner) {
  const std::uint64_t a = 0x3000;
  coh_.write(0, a, 0);
  auto r = coh_.read(1, a, 100);
  EXPECT_TRUE(r.remote);
  // Both now share read-only.
  EXPECT_FALSE(coh_.read(0, a, 200).remote);
  EXPECT_FALSE(coh_.read(1, a, 300).remote);
  // Former owner must re-upgrade to write.
  EXPECT_TRUE(coh_.write(0, a, 400).remote);
}

TEST_F(CoherenceTest, DirtyRemoteReadCostsRoughlyOneRmr) {
  // Calibration guard: a dirty remote fetch should be in the ~25-60 cycle
  // band that makes SHM-SERVER spend ~30+ stall cycles per op (Fig. 4a).
  sim::Summary s;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = 0x100000 + 0x40 * i;
    coh_.write(i % 35, a, 0);
    s.add(static_cast<double>(coh_.read(35, a, 1000).latency));
  }
  EXPECT_GT(s.mean(), 25.0);
  EXPECT_LT(s.mean(), 60.0);
}

TEST_F(CoherenceTest, LineOccupancySerializesHotLine) {
  // Run the identical transaction sequence (same cores, same line) twice:
  // packed into one instant vs spread out in time. The packed run must pay
  // the line-occupancy queueing on top of otherwise equal path latencies.
  const std::uint64_t a = 0x4000;
  coh_.write(0, a, 0);
  coh_.read(1, a, 100);
  coh_.write(2, a, 100);                      // queues behind the read
  const auto packed = coh_.read(3, a, 100);   // queues behind both

  CoherenceModel fresh(p_, topo_);
  fresh.write(0, a, 0);
  fresh.read(1, a, 100);
  fresh.write(2, a, 300);
  const auto spread = fresh.read(3, a, 600);  // no queueing

  EXPECT_EQ(packed.latency, spread.latency + 2 * p_.line_occupancy);
}

TEST_F(CoherenceTest, AtomicsGoHomeAndInvalidate) {
  const std::uint64_t a = 0x5000;
  coh_.write(0, a, 0);
  auto at = coh_.atomic(1, a, 100);
  EXPECT_TRUE(at.remote);
  EXPECT_GT(at.latency, p_.l_hit);
  // The old owner's copy is gone.
  EXPECT_TRUE(coh_.read(0, a, 200).remote);
}

TEST_F(CoherenceTest, ControllerOccupancyQueuesAtomics) {
  // Many atomics to lines on the same controller issued at the same time
  // must observe growing controller queueing delay. Controllers are
  // assigned by first-touch order (the i-th distinct line touched maps to
  // home_ctrl(i)), so touch 32 fresh lines in order and measure the ones
  // landing on controller 0.
  int measured = 0;
  Cycle first_wait = ~Cycle{0}, last_wait = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    Cycle w = 0;
    coh_.atomic(static_cast<Tid>(i % 35), 0x100000 + i * 64, 1000,
                AtomicKind::kCasSuccess, &w);
    if (topo_.home_ctrl(i) == 0) {
      if (measured++ == 0) first_wait = w;
      last_wait = w;
    }
  }
  ASSERT_GT(measured, 4);
  EXPECT_EQ(first_wait, 0u);
  EXPECT_GT(last_wait, 0u);
  EXPECT_GT(coh_.counters().ctrl_wait_total, 0u);
}

TEST_F(CoherenceTest, XeonPresetExecutesAtomicsInCache) {
  MachineParams xp = MachineParams::xeon10();
  MeshTopology xt(xp);
  CoherenceModel xc(xp, xt);
  const std::uint64_t a = 0x6000;
  xc.atomic(0, a, 0);
  // In-cache atomics leave the line owned by the executing core.
  EXPECT_FALSE(xc.read(0, a, 100).remote);
}

TEST_F(CoherenceTest, CountersTrackEvents) {
  coh_.reset_counters();
  coh_.read(0, 0x7000, 0);
  coh_.read(0, 0x7000, 10);
  coh_.write(1, 0x7000, 20);
  coh_.atomic(2, 0x7000, 30);
  const auto& c = coh_.counters();
  EXPECT_EQ(c.rmr_reads, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.rmr_writes, 1u);
  EXPECT_EQ(c.atomics, 1u);
}

// Lines whose numbers differ by the memo size share one entry of the
// direct-mapped lookup memo, and table growth moves every line to a new
// slot. Neither may mix up two lines' states, and a hint taken before the
// growth must find its line again.
TEST_F(CoherenceTest, MemoAliasingAndGrowthKeepLineState) {
  const std::uint64_t a = 0x9000;
  const std::uint64_t b = a + CoherenceModel::kMemoLines * p_.line_bytes;
  ASSERT_EQ(coh_.line_of(b) - coh_.line_of(a), CoherenceModel::kMemoLines);
  coh_.reset_counters();
  EXPECT_TRUE(coh_.read(0, a, 0).remote);      // a: S{0}
  EXPECT_TRUE(coh_.write(1, b, 100).remote);   // b: M(1)
  EXPECT_FALSE(coh_.read(0, a, 200).remote);
  EXPECT_FALSE(coh_.write(1, b, 300).remote);
  EXPECT_TRUE(coh_.read(1, a, 400).remote);    // a: S{0,1}
  EXPECT_TRUE(coh_.read(0, b, 500).remote);    // b: S{0,1}, owner downgraded
  EXPECT_TRUE(coh_.write(0, a, 600).remote);   // a: M(0), invalidates 1
  EXPECT_TRUE(coh_.write(1, b, 700).remote);   // b: M(1), invalidates 0
  EXPECT_FALSE(coh_.read(0, a, 800).remote);
  EXPECT_FALSE(coh_.read(1, b, 900).remote);
  EXPECT_EQ(coh_.counters().hits, 4u);
  EXPECT_EQ(coh_.counters().rmr_reads, 3u);
  EXPECT_EQ(coh_.counters().rmr_writes, 3u);
  EXPECT_EQ(coh_.counters().invalidations, 2u);

  // Enough first touches to grow the table (it starts at 1024 slots and
  // grows at half load).
  CoherenceModel::LineHint ha = coh_.hint(a);
  CoherenceModel::LineHint hb = coh_.hint(b);
  for (std::uint64_t i = 0; i < 600; ++i) {
    coh_.read(2, 0x100000 + i * p_.line_bytes, 1000);
  }
  EXPECT_NE(coh_.hint(a).gen, ha.gen);
  coh_.reset_counters();
  EXPECT_TRUE(coh_.read_hit(0, a));
  EXPECT_FALSE(coh_.read_hit(1, a));
  EXPECT_TRUE(coh_.read_hit(1, b));
  EXPECT_FALSE(coh_.read_hit(0, b));
  EXPECT_TRUE(coh_.read_hit(0, ha));  // stale hints are refreshed
  EXPECT_FALSE(coh_.read_hit(0, hb));
  EXPECT_EQ(ha.gen, coh_.hint(a).gen);
  EXPECT_EQ(ha.slot, coh_.hint(a).slot);
  EXPECT_EQ(coh_.counters().hits, 3u);
  EXPECT_EQ(coh_.counters().rmr_reads, 0u);
  // The owners still write without a transaction.
  EXPECT_FALSE(coh_.write(0, a, 2000).remote);
  EXPECT_FALSE(coh_.write(1, b, 2000).remote);
}

// ---- UDN ----

class UdnTest : public ::testing::Test {
 protected:
  UdnTest() : m_(MachineParams::tilegx36()) {}
  Machine m_;
};

TEST_F(UdnTest, DeliversInFifoOrder) {
  auto& udn = m_.udn();
  auto& sched = m_.sched();
  std::vector<std::uint64_t> got;
  sched.spawn([&] {
    std::uint64_t w;
    for (int i = 0; i < 6; ++i) {
      udn.receive(0, 0, &w, 1);
      got.push_back(w);
    }
  });
  sched.spawn([&] {
    const std::uint64_t words[3] = {1, 2, 3};
    udn.send(5, 0, 0, words, 3);
    const std::uint64_t more[3] = {4, 5, 6};
    udn.send(5, 0, 0, more, 3);
  });
  sched.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
}

TEST_F(UdnTest, ReceiveBlocksUntilEnoughWords) {
  auto& udn = m_.udn();
  auto& sched = m_.sched();
  sim::Cycle received_at = 0;
  sched.spawn([&] {
    std::uint64_t w[3];
    udn.receive(0, 0, w, 3);
    received_at = sched.now();
  });
  sched.spawn([&] {
    std::uint64_t one = 7;
    udn.send(1, 0, 0, &one, 1);
    sched.wait_for(500);
    std::uint64_t two[2] = {8, 9};
    udn.send(1, 0, 0, two, 2);
  });
  sched.run();
  EXPECT_GE(received_at, 500u);
}

TEST_F(UdnTest, SendIsAsynchronousAndCheap) {
  auto& udn = m_.udn();
  auto& sched = m_.sched();
  sim::Cycle send_cost = 0;
  sched.spawn([&] {
    const std::uint64_t w[3] = {1, 2, 3};
    const sim::Cycle t0 = sched.now();
    udn.send(0, 35, 0, w, 3);  // corner to corner: long wire
    send_cost = sched.now() - t0;
  });
  sched.run();
  const auto& p = m_.params();
  // Sender pays injection + word serialization only, not the wire latency.
  EXPECT_EQ(send_cost, p.udn_inject + 3 * p.udn_per_word_wire);
}

TEST_F(UdnTest, BackpressureBlocksSender) {
  auto& udn = m_.udn();
  auto& sched = m_.sched();
  const auto cap = m_.params().udn_buf_words;
  bool receiver_started = false;
  std::uint64_t sent = 0;
  sched.spawn([&] {
    std::uint64_t w = 0;
    // Fill the destination buffer beyond capacity.
    for (std::uint64_t i = 0; i < cap + 10; ++i) {
      udn.send(1, 0, 0, &w, 1);
      ++sent;
    }
  });
  sched.spawn([&] {
    sched.wait_for(100000);
    receiver_started = true;
    std::uint64_t w;
    for (std::uint64_t i = 0; i < cap + 10; ++i) udn.receive(0, 0, &w, 1);
  });
  sched.run();
  EXPECT_TRUE(receiver_started);
  EXPECT_EQ(sent, cap + 10);
  EXPECT_GT(udn.counters().sender_blocks, 0u);
}

TEST_F(UdnTest, QueuesAreIndependent) {
  auto& udn = m_.udn();
  auto& sched = m_.sched();
  std::uint64_t got_q0 = 0, got_q1 = 0;
  sched.spawn([&] {
    const std::uint64_t a = 11, b = 22;
    udn.send(2, 0, 1, &b, 1);
    udn.send(2, 0, 0, &a, 1);
  });
  sched.spawn([&] { udn.receive(0, 0, &got_q0, 1); });
  sched.spawn([&] { udn.receive(0, 1, &got_q1, 1); });
  sched.run();
  EXPECT_EQ(got_q0, 11u);
  EXPECT_EQ(got_q1, 22u);
}

TEST_F(UdnTest, PeakOccupancyTracked) {
  auto& udn = m_.udn();
  auto& sched = m_.sched();
  sched.spawn([&] {
    const std::uint64_t w[3] = {1, 2, 3};
    for (int i = 0; i < 5; ++i) udn.send(1, 0, 0, w, 3);
  });
  sched.run();
  EXPECT_EQ(udn.counters().peak_occupancy, 15u);
  EXPECT_EQ(udn.counters().messages, 5u);
  EXPECT_EQ(udn.counters().words, 15u);
}

}  // namespace
}  // namespace hmps::arch
