#ifndef TOUCH_GEOM_GRID_H_
#define TOUCH_GEOM_GRID_H_

#include <cstdint>

#include "geom/box.h"

namespace touch {

/// Integer cell coordinates of a uniform grid.
struct CellCoord {
  int x = 0;
  int y = 0;
  int z = 0;
};

/// Inclusive 3D range of grid cells covered by a box.
struct CellRange {
  CellCoord lo;
  CellCoord hi;

  /// Number of cells in the range.
  uint64_t Count() const {
    return static_cast<uint64_t>(hi.x - lo.x + 1) *
           static_cast<uint64_t>(hi.y - lo.y + 1) *
           static_cast<uint64_t>(hi.z - lo.z + 1);
  }
};

/// Maps boxes to cells of an equi-width grid laid over a rectangular domain.
///
/// This is the space-oriented partitioning primitive shared by PBSM (one grid
/// over the whole space), S3 (one grid per hierarchy level) and TOUCH's local
/// join (one grid per inner node). It only does geometry; callers own the
/// per-cell containers.
///
/// Cells at the domain boundary absorb anything outside the domain: boxes are
/// clamped into the valid cell range so no object is ever lost.
class GridMapper {
 public:
  /// Grid over `domain` with `resolution[axis]` cells per axis (>= 1 each).
  GridMapper(const Box& domain, int res_x, int res_y, int res_z);

  /// Convenience: cubic resolution.
  GridMapper(const Box& domain, int resolution)
      : GridMapper(domain, resolution, resolution, resolution) {}

  int res_x() const { return res_[0]; }
  int res_y() const { return res_[1]; }
  int res_z() const { return res_[2]; }

  /// Total number of cells (may overflow 32 bits for fine grids).
  uint64_t TotalCells() const {
    return static_cast<uint64_t>(res_[0]) * res_[1] * res_[2];
  }

  /// Cell containing a point (clamped into the grid).
  CellCoord CellOf(const Vec3& p) const;

  /// Index along `axis` (0 = x) of the cells holding coordinate `v` on
  /// that axis (clamped into the grid): CellOf's per-axis step.
  int AxisCell(int axis, float v) const;

  /// Inclusive range of cells a box overlaps (clamped into the grid).
  CellRange RangeOf(const Box& box) const;

  /// Geometric bounds of one cell.
  Box CellBounds(const CellCoord& c) const;

  /// Packs a cell coordinate into a 64-bit key (21 bits per axis) for use in
  /// hash maps of occupied cells.
  static uint64_t PackKey(const CellCoord& c) {
    return (static_cast<uint64_t>(c.x) << 42) |
           (static_cast<uint64_t>(c.y) << 21) | static_cast<uint64_t>(c.z);
  }

  /// Inverse of PackKey.
  static CellCoord UnpackKey(uint64_t key) {
    return CellCoord{static_cast<int>(key >> 42),
                     static_cast<int>((key >> 21) & 0x1fffff),
                     static_cast<int>(key & 0x1fffff)};
  }

 private:
  Box domain_;
  int res_[3];
  float cell_w_[3];   // cell width per axis
  float inv_w_[3];    // 1 / cell width
};

/// The reference point of an intersection region: its minimum corner. PBSM
/// uses it to report each result pair exactly once — only the grid cell that
/// contains the reference point reports the pair.
inline Vec3 ReferencePoint(const Box& a, const Box& b) {
  return Vec3(std::max(a.lo.x, b.lo.x), std::max(a.lo.y, b.lo.y),
              std::max(a.lo.z, b.lo.z));
}

}  // namespace touch

#endif  // TOUCH_GEOM_GRID_H_
