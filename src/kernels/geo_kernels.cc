// Public kernel entry points (dispatch trampolines) and the scalar
// backend. The scalar loops below are the reference semantics: the AVX2
// backend mirrors them lane for lane and calls them on its tails.

#include "kernels/geo_kernels.h"

#include "kernels/backends.h"
#include "kernels/kernel_table_inl.h"

namespace comx {
namespace kernels {
namespace internal {

void ScalarBatchSquaredDistance(const double* xs, const double* ys, size_t n,
                                double cx, double cy, double* d2_out) {
  for (size_t i = 0; i < n; ++i) {
    d2_out[i] = SquaredDistanceExpr(xs[i], ys[i], cx, cy);
  }
}

size_t ScalarFilterInRange(const double* xs, const double* ys,
                           const double* radius2, size_t n, double cx,
                           double cy, double range2, int32_t* idx_out,
                           double* d2_out) {
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const double d2 = SquaredDistanceExpr(xs[i], ys[i], cx, cy);
    if (d2 <= range2 && (radius2 == nullptr || d2 <= radius2[i])) {
      idx_out[out] = static_cast<int32_t>(i);
      d2_out[out] = d2;
      ++out;
    }
  }
  return out;
}

}  // namespace internal

void BatchSquaredDistance(const double* xs, const double* ys, size_t n,
                          double cx, double cy, double* d2_out) {
  internal::Active().batch_squared_distance(xs, ys, n, cx, cy, d2_out);
}

size_t FilterInRange(const double* xs, const double* ys,
                     const double* radius2, size_t n, double cx, double cy,
                     double range2, int32_t* idx_out, double* d2_out) {
  return internal::Active().filter_in_range(xs, ys, radius2, n, cx, cy,
                                            range2, idx_out, d2_out);
}

}  // namespace kernels
}  // namespace comx
