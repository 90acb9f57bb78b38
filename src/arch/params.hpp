// Machine timing/structure parameters with presets for the platforms the
// paper discusses.
//
// All latencies are in core clock cycles. The TILE-Gx preset is calibrated
// against the cycle numbers reported in the paper (PPoPP'14, Section 5):
//   - MP-SERVER executes a counter CS in ~11 cycles at the server
//     (110 Mops/s @ 1.2 GHz, Fig. 3a),
//   - SHM-SERVER/CC-SYNCH spend ~30 of ~50+ cycles per op stalled on
//     coherence misses (Fig. 4a),
//   - a typical remote-dirty cache-line fetch (RMR) therefore costs ~40
//     cycles on the 6x6 mesh,
//   - atomics execute at one of two memory controllers (Section 5.4), with
//     moderate issue occupancy, so independent atomics can falsely
//     serialize.
#pragma once

#include <cstdint>
#include <string>

#include "sim/types.hpp"

namespace hmps::arch {

using sim::Cycle;

struct MachineParams {
  std::string name = "tilegx36";

  // --- structure ---
  std::uint32_t mesh_w = 6;
  std::uint32_t mesh_h = 6;
  std::uint32_t n_mem_ctrls = 2;
  /// Coherence line size: a power of two in [8, 64] (line lookup is a
  /// shift, and simulated arenas are aligned to 64 host bytes only);
  /// CoherenceModel aborts on anything else.
  std::uint32_t line_bytes = 64;

  // --- core ---
  Cycle l_hit = 2;           ///< private-cache hit latency
  Cycle issue_cost = 1;      ///< base cost of issuing any memory op
  bool posted_writes = true; ///< weak ordering: stores retire via write buffer
  std::uint32_t wb_depth = 1;     ///< outstanding posted store misses
  bool allow_prefetch = true;     ///< non-binding software prefetch slot

  // --- interconnect ---
  Cycle hop = 2;             ///< per-mesh-hop latency
  Cycle router = 2;          ///< fixed per-message router/injection overhead

  // --- coherence (directory at the line's home tile) ---
  Cycle dir_lookup = 6;      ///< directory access at the home tile
  Cycle home_mem = 8;        ///< data access at home (distributed L3-like)
  Cycle fwd_cost = 4;        ///< forwarding a request to the dirty owner
  Cycle xfer = 4;            ///< cache-line payload transfer serialization
  Cycle inval_base = 2;      ///< invalidation round base cost
  Cycle inval_per_sharer = 1;
  Cycle line_occupancy = 4;  ///< min spacing of transactions on one line

  // --- atomics ---
  bool atomics_at_ctrl = true; ///< TILE-Gx: RMW ops execute at mem ctrls
  /// Controller occupancy per unconditional RMW (fetch-and-add, exchange):
  /// a pipelined ALU update at the controller; fast and scalable (paper
  /// Section 5.5 singles FAA out).
  Cycle ctrl_op_faa = 6;
  /// Controller occupancy per successful CAS: the read-compare-write holds
  /// the controller slot through the update, the source of the false
  /// serialization that caps LCRQ and Treiber (paper Section 5.4).
  Cycle ctrl_op_cas = 40;
  /// Controller occupancy per failed CAS: the compare misses, no write
  /// stage, the slot frees early.
  Cycle ctrl_op_cas_fail = 6;
  Cycle atomic_local_extra = 4; ///< x86-style in-cache RMW extra cost
  /// In-network combining of unconditional RMWs (NYU-Ultracomputer style):
  /// fetch-and-add/exchange messages to the same word that overlap at a
  /// router on the way to the memory controller merge into one downstream
  /// message, and the combined reply fans back out on the return path
  /// (docs/MODEL.md §11). Requires atomics_at_ctrl; off by default — every
  /// knob-off trace stays bit-identical.
  bool noc_combining = false;

  // --- hardware message passing (UDN) ---
  bool has_udn = true;
  std::uint32_t udn_buf_words = 118; ///< per-core hardware buffer capacity
  std::uint32_t udn_queues = 4;      ///< demux queues per core buffer
  Cycle udn_inject = 1;              ///< sender-side cost per message
  Cycle udn_per_word_wire = 1;       ///< per-word serialization on the wire
  Cycle udn_recv_word = 1;           ///< receiver cost to pop one word
  /// Model per-link occupancy along the XY route of every message (wormhole
  /// approximation); off by default — destination-port serialization
  /// already captures the paper's effects.
  bool model_link_contention = false;
  Cycle fence_cost = 3;              ///< local cost of a full memory fence

  // --- multi-chip topology ---
  // Beyond one die: the global mesh_w × mesh_h mesh is tiled by a grid of
  // chips_x × chips_y chips, each chip owning an equal rectangle of tiles.
  // Links that cross a chip boundary (SerDes + package crossing) pay
  // chip_hop_extra cycles on top of the normal per-hop latency. The
  // defaults (1×1 grid) describe a single chip and add nothing, keeping
  // every single-chip trace and artifact bit-identical. A chip grid that
  // does not evenly divide the mesh is treated as 1×1 on that axis.
  std::uint32_t chips_x = 1;   ///< chip-grid columns (must divide mesh_w)
  std::uint32_t chips_y = 1;   ///< chip-grid rows (must divide mesh_h)
  Cycle chip_hop_extra = 20;   ///< extra latency per inter-chip link crossing

  std::uint32_t cores() const { return mesh_w * mesh_h; }
  std::uint32_t chips() const { return chips_x * chips_y; }

  /// Tiles per chip along X, honoring the divisibility rule.
  std::uint32_t chip_w() const {
    return (chips_x > 1 && mesh_w % chips_x == 0) ? mesh_w / chips_x : mesh_w;
  }
  /// Tiles per chip along Y.
  std::uint32_t chip_h() const {
    return (chips_y > 1 && mesh_h % chips_y == 0) ? mesh_h / chips_y : mesh_h;
  }

  /// Tilera TILE-Gx8036: the paper's platform. 36 cores, hybrid.
  static MachineParams tilegx36() { return MachineParams{}; }

  /// A small TILE-Gx-like hybrid machine, handy for fast tests.
  static MachineParams tilegx_small(std::uint32_t w = 4, std::uint32_t h = 2) {
    MachineParams p;
    p.name = "tilegx_small";
    p.mesh_w = w;
    p.mesh_h = h;
    return p;
  }

  /// Intel Xeon E7-L8867-like preset (Section 5.5 discussion): no hardware
  /// message passing, in-cache atomics, pricier coherence misses (bigger
  /// uncore round trips relative to the core clock), stronger ordering.
  static MachineParams xeon10() {
    MachineParams p;
    p.name = "xeon10";
    p.mesh_w = 5;
    p.mesh_h = 2;
    p.has_udn = false;
    p.atomics_at_ctrl = false;
    p.atomic_local_extra = 12;
    p.hop = 3;
    p.dir_lookup = 12;
    p.home_mem = 14;
    p.fwd_cost = 8;
    p.xfer = 6;
    p.line_occupancy = 14;
    p.posted_writes = false;  // TSO retirement: store misses stall sooner
    p.fence_cost = 20;
    return p;
  }

  /// AMD Opteron 6176-like preset (Section 5.5 discussion).
  static MachineParams opteron6() {
    MachineParams p = xeon10();
    p.name = "opteron6";
    p.mesh_w = 3;
    p.mesh_h = 2;
    p.dir_lookup = 16;
    p.home_mem = 18;
    p.line_occupancy = 18;
    return p;
  }
};

}  // namespace hmps::arch
