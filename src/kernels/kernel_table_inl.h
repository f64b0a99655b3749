// Internal: the per-element expression trees shared by every backend.
//
// Bit-identity across backends hinges on both evaluating exactly these
// operations in exactly this order. The AVX2 translation unit mirrors each
// helper with one intrinsic per arithmetic node (mul/add/sub only — never
// FMA) and runs these same scalar helpers on its tail elements, so there is
// a single source of truth for the math.

#ifndef COMX_KERNELS_KERNEL_TABLE_INL_H_
#define COMX_KERNELS_KERNEL_TABLE_INL_H_

namespace comx {
namespace kernels {
namespace internal {

/// (x - cx)^2 + (y - cy)^2 — the exact expression GridIndex and
/// geo::SquaredDistance evaluate, node for node.
inline double SquaredDistanceExpr(double x, double y, double cx, double cy) {
  const double dx = x - cx;
  const double dy = y - cy;
  return dx * dx + dy * dy;
}

}  // namespace internal
}  // namespace kernels
}  // namespace comx

#endif  // COMX_KERNELS_KERNEL_TABLE_INL_H_
