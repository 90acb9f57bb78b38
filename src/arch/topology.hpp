// 2D mesh topology with XY (dimension-ordered) routing distances.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "arch/params.hpp"
#include "sim/types.hpp"

namespace hmps::arch {

struct Coord {
  std::int32_t x = 0;
  std::int32_t y = 0;
};

class MeshTopology {
 public:
  explicit MeshTopology(const MachineParams& p)
      : w_(p.mesh_w),
        h_(p.mesh_h),
        hop_(p.hop),
        router_(p.router),
        chip_w_(p.chip_w()),
        chip_h_(p.chip_h()),
        chip_extra_(p.chips() > 1 ? p.chip_hop_extra : 0) {
    assert(w_ > 0 && h_ > 0);
    // Memory controllers sit at the vertical midpoints of the left and
    // right mesh edges (mirroring the TILE-Gx's edge-attached controllers);
    // extra controllers (if configured) spread along the top edge.
    const std::int32_t midy = static_cast<std::int32_t>(h_) / 2;
    ctrls_.reserve(p.n_mem_ctrls);
    ctrls_.push_back(Coord{0, midy});
    if (p.n_mem_ctrls > 1)
      ctrls_.push_back(Coord{static_cast<std::int32_t>(w_) - 1, midy});
    for (std::uint32_t i = 2; i < p.n_mem_ctrls; ++i)
      ctrls_.push_back(Coord{static_cast<std::int32_t>(i % w_), 0});
    // Tile coordinates, precomputed: wire() runs several times per remote
    // memory access, and the div/mod pair per endpoint is measurable there.
    coords_.reserve(static_cast<std::size_t>(w_) * h_);
    for (std::uint32_t c = 0; c < w_ * h_; ++c) {
      coords_.push_back(Coord{static_cast<std::int32_t>(c % w_),
                              static_cast<std::int32_t>(c / w_)});
    }
  }

  std::uint32_t cores() const { return w_ * h_; }
  std::uint32_t n_ctrls() const {
    return static_cast<std::uint32_t>(ctrls_.size());
  }

  Coord coord(sim::Tid core) const {
    assert(core < cores());
    return coords_[core];
  }

  static std::uint32_t manhattan(Coord a, Coord b) {
    return static_cast<std::uint32_t>(std::abs(a.x - b.x) +
                                      std::abs(a.y - b.y));
  }

  std::uint32_t hops(sim::Tid a, sim::Tid b) const {
    return manhattan(coord(a), coord(b));
  }

  std::uint32_t hops_to_ctrl(sim::Tid core, std::uint32_t ctrl) const {
    return manhattan(coord(core), ctrls_[ctrl % ctrls_.size()]);
  }

  /// Chip-boundary crossings on the XY route between two coordinates.
  /// Dimension-ordered routing walks X then Y, so the crossing count is
  /// exactly the chip-grid Manhattan distance — independent of which
  /// boundary column/row the route threads through.
  std::uint32_t chip_crossings(Coord a, Coord b) const {
    if (chip_extra_ == 0) return 0;
    return static_cast<std::uint32_t>(
        std::abs(a.x / static_cast<std::int32_t>(chip_w_) -
                 b.x / static_cast<std::int32_t>(chip_w_)) +
        std::abs(a.y / static_cast<std::int32_t>(chip_h_) -
                 b.y / static_cast<std::int32_t>(chip_h_)));
  }

  std::uint32_t chip_crossings(sim::Tid a, sim::Tid b) const {
    return chip_crossings(coord(a), coord(b));
  }

  /// One-way message latency between two tiles.
  Cycle wire(sim::Tid a, sim::Tid b) const {
    const Coord ca = coord(a), cb = coord(b);
    return router_ + hop_ * manhattan(ca, cb) +
           chip_extra_ * chip_crossings(ca, cb);
  }

  /// One-way latency from a tile to a memory controller.
  Cycle wire_to_ctrl(sim::Tid core, std::uint32_t ctrl) const {
    const Coord ca = coord(core), cb = ctrls_[ctrl % ctrls_.size()];
    return router_ + hop_ * manhattan(ca, cb) +
           chip_extra_ * chip_crossings(ca, cb);
  }

  /// Mesh coordinate of a memory controller's attach point (the combining
  /// model walks routes toward it router by router).
  Coord ctrl_coord(std::uint32_t ctrl) const {
    return ctrls_[ctrl % ctrls_.size()];
  }

  /// One-way latency between two coordinates (same formula as wire(), for
  /// callers that already hold Coords mid-route).
  Cycle wire_coord(Coord a, Coord b) const {
    return router_ + hop_ * manhattan(a, b) + chip_extra_ * chip_crossings(a, b);
  }

  /// Home tile of a cache line: lines are hash-distributed over all tiles
  /// (TILE-Gx "hash-for-home" distributed directory).
  sim::Tid home_tile(std::uint64_t line) const {
    // Fibonacci hash to decorrelate adjacent lines.
    return static_cast<sim::Tid>(((line * 0x9e3779b97f4a7c15ULL) >> 24) %
                                 cores());
  }

  /// Memory controller owning a line (for atomics and off-chip traffic).
  std::uint32_t home_ctrl(std::uint64_t line) const {
    return static_cast<std::uint32_t>((line * 0x2545f4914f6cdd1dULL) >> 33) %
           n_ctrls();
  }

 private:
  std::uint32_t w_, h_;
  Cycle hop_, router_;
  std::uint32_t chip_w_ = 0, chip_h_ = 0;  ///< tiles per chip per axis
  Cycle chip_extra_ = 0;  ///< per-boundary-crossing latency (0 = one chip)
  std::vector<Coord> ctrls_;
  std::vector<Coord> coords_;  ///< coord(c) for every core, precomputed
};

}  // namespace hmps::arch
