// AVX2 backend. Compiled with -mavx2 only (no -mfma): every arithmetic
// node of the scalar reference in kernel_table_inl.h maps to exactly one
// vmulpd/vaddpd/vsubpd, so each lane evaluates the identical IEEE
// expression tree and results are bit-identical to the scalar backend.
// Tails (< 4 elements) run the scalar reference loops directly.

#if defined(COMX_KERNELS_HAVE_AVX2)

#include <immintrin.h>

#include "kernels/backends.h"

namespace comx {
namespace kernels {
namespace internal {

namespace {
constexpr size_t kLanes = 4;  // doubles per __m256d
}  // namespace

void Avx2BatchSquaredDistance(const double* xs, const double* ys, size_t n,
                              double cx, double cy, double* d2_out) {
  const __m256d vcx = _mm256_set1_pd(cx);
  const __m256d vcy = _mm256_set1_pd(cy);
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), vcx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), vcy);
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    _mm256_storeu_pd(d2_out + i, d2);
  }
  ScalarBatchSquaredDistance(xs + i, ys + i, n - i, cx, cy, d2_out + i);
}

size_t Avx2FilterInRange(const double* xs, const double* ys,
                         const double* radius2, size_t n, double cx,
                         double cy, double range2, int32_t* idx_out,
                         double* d2_out) {
  const __m256d vcx = _mm256_set1_pd(cx);
  const __m256d vcy = _mm256_set1_pd(cy);
  const __m256d vr2 = _mm256_set1_pd(range2);
  size_t out = 0;
  size_t i = 0;
  alignas(32) double d2_lane[kLanes];
  for (; i + kLanes <= n; i += kLanes) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), vcx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), vcy);
    const __m256d d2 =
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    __m256d keep = _mm256_cmp_pd(d2, vr2, _CMP_LE_OQ);
    if (radius2 != nullptr) {
      keep = _mm256_and_pd(
          keep, _mm256_cmp_pd(d2, _mm256_loadu_pd(radius2 + i), _CMP_LE_OQ));
    }
    int mask = _mm256_movemask_pd(keep);
    if (mask == 0) continue;
    _mm256_store_pd(d2_lane, d2);
    // Append survivors in ascending lane order (determinism contract).
    while (mask != 0) {
      const int lane = __builtin_ctz(static_cast<unsigned>(mask));
      idx_out[out] = static_cast<int32_t>(i + static_cast<size_t>(lane));
      d2_out[out] = d2_lane[lane];
      ++out;
      mask &= mask - 1;
    }
  }
  if (i < n) {
    const size_t tail = ScalarFilterInRange(
        xs + i, ys + i, radius2 == nullptr ? nullptr : radius2 + i, n - i,
        cx, cy, range2, idx_out + out, d2_out + out);
    for (size_t t = 0; t < tail; ++t) {
      idx_out[out + t] += static_cast<int32_t>(i);
    }
    out += tail;
  }
  return out;
}

}  // namespace internal
}  // namespace kernels
}  // namespace comx

#endif  // COMX_KERNELS_HAVE_AVX2
