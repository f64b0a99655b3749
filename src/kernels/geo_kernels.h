// Batched distance / eligibility kernels over SoA coordinate arrays — the
// matchers' hot path (grid-index candidate scoring), evaluated a whole
// array at a time instead of one pointer-chased record per call.
//
// Every kernel dispatches through kernels/dispatch.h (scalar or AVX2,
// chosen once at startup) and every backend is bit-identical: same IEEE
// expression tree per element, no FMA contraction, results in ascending
// index order. See DESIGN.md §10 for the determinism contract.

#ifndef COMX_KERNELS_GEO_KERNELS_H_
#define COMX_KERNELS_GEO_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "kernels/dispatch.h"

namespace comx {
namespace kernels {

/// d2_out[i] = (xs[i] - cx)^2 + (ys[i] - cy)^2 for i in [0, n).
void BatchSquaredDistance(const double* xs, const double* ys, size_t n,
                          double cx, double cy, double* d2_out);

/// Fused score-and-filter: writes the indices (ascending) and squared
/// distances of every point within sqrt(range2) of (cx, cy) — and, when
/// `radius2` is non-null, also within that point's own service radius
/// (d2 <= radius2[i]) — into idx_out / d2_out. Returns the survivor count.
/// Buffers must hold n entries.
size_t FilterInRange(const double* xs, const double* ys,
                     const double* radius2, size_t n, double cx, double cy,
                     double range2, int32_t* idx_out, double* d2_out);

}  // namespace kernels
}  // namespace comx

#endif  // COMX_KERNELS_GEO_KERNELS_H_
