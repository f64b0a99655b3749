// Clones of the paper's six real datasets (Table III). The originals are
// gated (DiDi GAIA program; Yueche link is a private share), so we generate
// synthetic equivalents matched on everything the algorithms consume: the
// per-day request/worker counts, the 1 km service radius, the city layout
// (Chengdu vs Xi'an), and the request:worker imbalance (~10:1 in Chengdu,
// ~25:1 in Xi'an). See DESIGN.md section 2 for the substitution rationale.

#ifndef COMX_DATAGEN_REAL_LIKE_H_
#define COMX_DATAGEN_REAL_LIKE_H_

#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "model/instance.h"
#include "util/result.h"

namespace comx {

/// One row of Table III, pairing the DiDi-like and Yueche-like platforms
/// that co-exist in a city/month.
struct RealDatasetSpec {
  std::string name;           // e.g. "RDC10+RYC10"
  int64_t didi_requests = 0;  // |R| of the DiDi-like platform (platform 0)
  int64_t didi_workers = 0;
  int64_t yueche_requests = 0;  // platform 1
  int64_t yueche_workers = 0;
  double radius_km = 1.0;
  bool xian = false;  // Chengdu layout when false
};

/// The three Table III pairings.
RealDatasetSpec Rdc10Ryc10();  // Chengdu, Oct 2016
RealDatasetSpec Rdc11Ryc11();  // Chengdu, Nov 2016
RealDatasetSpec Rdx11Ryx11();  // Xi'an,   Nov 2016

/// Materializes a spec into an Instance. `scale` in (0, 1] shrinks every
/// count proportionally (e.g. 0.1 for a quick run); counts round to >= 1.
Result<Instance> GenerateRealLike(const RealDatasetSpec& spec,
                                  double scale = 1.0, uint64_t seed = 2016);

}  // namespace comx

#endif  // COMX_DATAGEN_REAL_LIKE_H_
