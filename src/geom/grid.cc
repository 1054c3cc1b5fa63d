#include "geom/grid.h"

#include <algorithm>
#include <cmath>

namespace touch {

GridMapper::GridMapper(const Box& domain, int res_x, int res_y, int res_z)
    : domain_(domain) {
  res_[0] = std::max(1, res_x);
  res_[1] = std::max(1, res_y);
  res_[2] = std::max(1, res_z);
  const Vec3 extent = domain.Extent();
  const float ext[3] = {extent.x, extent.y, extent.z};
  for (int axis = 0; axis < 3; ++axis) {
    // Degenerate domains (flat along an axis) still get one valid cell.
    cell_w_[axis] = ext[axis] > 0 ? ext[axis] / static_cast<float>(res_[axis]) : 1.0f;
    inv_w_[axis] = 1.0f / cell_w_[axis];
  }
}

int GridMapper::AxisCell(int axis, float v) const {
  const int idx =
      static_cast<int>(std::floor((v - domain_.lo[axis]) * inv_w_[axis]));
  return std::clamp(idx, 0, res_[axis] - 1);
}

CellCoord GridMapper::CellOf(const Vec3& p) const {
  return CellCoord{AxisCell(0, p.x), AxisCell(1, p.y), AxisCell(2, p.z)};
}

CellRange GridMapper::RangeOf(const Box& box) const {
  return CellRange{CellOf(box.lo), CellOf(box.hi)};
}

Box GridMapper::CellBounds(const CellCoord& c) const {
  const Vec3 lo(domain_.lo.x + static_cast<float>(c.x) * cell_w_[0],
                domain_.lo.y + static_cast<float>(c.y) * cell_w_[1],
                domain_.lo.z + static_cast<float>(c.z) * cell_w_[2]);
  return Box(lo, Vec3(lo.x + cell_w_[0], lo.y + cell_w_[1], lo.z + cell_w_[2]));
}

}  // namespace touch
