#include "datagen/real_like.h"

#include <algorithm>
#include <cmath>

namespace comx {
namespace {

int64_t Scaled(int64_t n, double scale) {
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(
                                  static_cast<double>(n) * scale)));
}

}  // namespace

RealDatasetSpec Rdc10Ryc10() {
  // Table III, RDC10 / RYC10 columns.
  return RealDatasetSpec{"RDC10+RYC10", 91'321, 9'145, 90'589, 7'038, 1.0,
                         /*xian=*/false};
}

RealDatasetSpec Rdc11Ryc11() {
  return RealDatasetSpec{"RDC11+RYC11", 100'973, 11'199, 100'448, 9'333, 1.0,
                         /*xian=*/false};
}

RealDatasetSpec Rdx11Ryx11() {
  return RealDatasetSpec{"RDX11+RYX11", 57'611, 2'441, 57'638, 2'686, 1.0,
                         /*xian=*/true};
}

Result<Instance> GenerateRealLike(const RealDatasetSpec& spec, double scale,
                                  uint64_t seed) {
  if (!(scale > 0.0) || scale > 1.0) {
    return Status::InvalidArgument("scale must be in (0, 1]");
  }
  SyntheticConfig config;
  config.platforms = 2;
  config.requests_per_platform = {Scaled(spec.didi_requests, scale),
                                  Scaled(spec.yueche_requests, scale)};
  config.workers_per_platform = {Scaled(spec.didi_workers, scale),
                                 Scaled(spec.yueche_workers, scale)};
  config.radius_km = spec.radius_km;
  config.city = spec.xian ? CityModel::XianLike() : CityModel::ChengduLike();
  // The Xi'an datasets are markedly supply-starved (25:1); keep the default
  // anti-alignment so cooperative borrowing has headroom in both cities.
  config.imbalance = spec.xian ? 0.8 : 0.7;
  config.seed = seed;
  return GenerateSynthetic(config);
}

}  // namespace comx
