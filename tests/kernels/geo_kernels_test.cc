#include "kernels/geo_kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "kernels/dispatch.h"
#include "util/rng.h"

namespace comx {
namespace kernels {
namespace {

using internal::KernelTable;
using internal::TableFor;

constexpr size_t kPoints = 10000;

struct PlanarInputs {
  std::vector<double> xs, ys, radius2;
};

// Randomized planar coordinates (city-scale km offsets) with per-point
// service radii, the shape the grid-index scan feeds the kernels.
PlanarInputs MakePlanar(uint64_t seed) {
  Rng rng(seed);
  PlanarInputs in;
  in.xs.reserve(kPoints);
  in.ys.reserve(kPoints);
  in.radius2.reserve(kPoints);
  for (size_t i = 0; i < kPoints; ++i) {
    in.xs.push_back(rng.Uniform(-15.0, 15.0));
    in.ys.push_back(rng.Uniform(-15.0, 15.0));
    const double r = rng.Uniform(0.5, 8.0);
    in.radius2.push_back(r * r);
  }
  return in;
}

TEST(GeoKernelsTest, BatchSquaredDistanceBitIdenticalAcrossBackends) {
  const KernelTable* avx2 = TableFor(Backend::kAvx2);
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const KernelTable* scalar = TableFor(Backend::kScalar);
  const PlanarInputs in = MakePlanar(2020);
  std::vector<double> a(kPoints), b(kPoints);
  scalar->batch_squared_distance(in.xs.data(), in.ys.data(), kPoints, 0.3,
                                 -0.2, a.data());
  avx2->batch_squared_distance(in.xs.data(), in.ys.data(), kPoints, 0.3,
                               -0.2, b.data());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), kPoints * sizeof(double)), 0);
}

TEST(GeoKernelsTest, FilterInRangeBitIdenticalAcrossBackends) {
  const KernelTable* avx2 = TableFor(Backend::kAvx2);
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 unavailable on this host";
  const KernelTable* scalar = TableFor(Backend::kScalar);
  const PlanarInputs in = MakePlanar(7);
  std::vector<int32_t> idx_a(kPoints), idx_b(kPoints);
  std::vector<double> d2_a(kPoints), d2_b(kPoints);
  for (const double* radius2 : {in.radius2.data(),
                                static_cast<const double*>(nullptr)}) {
    const size_t na =
        scalar->filter_in_range(in.xs.data(), in.ys.data(), radius2,
                                kPoints, 0.3, -0.2, 36.0, idx_a.data(),
                                d2_a.data());
    const size_t nb =
        avx2->filter_in_range(in.xs.data(), in.ys.data(), radius2, kPoints,
                              0.3, -0.2, 36.0, idx_b.data(), d2_b.data());
    ASSERT_EQ(na, nb);
    ASSERT_GT(na, 0u);
    EXPECT_EQ(std::memcmp(idx_a.data(), idx_b.data(), na * sizeof(int32_t)),
              0);
    EXPECT_EQ(std::memcmp(d2_a.data(), d2_b.data(), na * sizeof(double)),
              0);
  }
}

TEST(GeoKernelsTest, FilterInRangeMatchesNaiveReference) {
  const PlanarInputs in = MakePlanar(99);
  std::vector<int32_t> idx(kPoints);
  std::vector<double> d2(kPoints);
  const double cx = 1.0, cy = -2.0, range2 = 25.0;
  const size_t n = FilterInRange(in.xs.data(), in.ys.data(),
                                 in.radius2.data(), kPoints, cx, cy, range2,
                                 idx.data(), d2.data());
  size_t k = 0;
  int32_t last = -1;
  for (size_t i = 0; i < kPoints; ++i) {
    const double dx = in.xs[i] - cx;
    const double dy = in.ys[i] - cy;
    const double dd = dx * dx + dy * dy;
    if (dd <= range2 && dd <= in.radius2[i]) {
      ASSERT_LT(k, n);
      EXPECT_EQ(idx[k], static_cast<int32_t>(i));
      EXPECT_GT(idx[k], last);  // ascending index order
      last = idx[k];
      EXPECT_EQ(d2[k], dd);  // exact, not approximate
      ++k;
    }
  }
  EXPECT_EQ(k, n);
}

}  // namespace
}  // namespace kernels
}  // namespace comx
