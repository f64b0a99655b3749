#include "core/matcher_factory.h"

#include "core/cost_aware.h"
#include "core/dem_com.h"
#include "core/greedy_rt.h"
#include "core/ram_com.h"
#include "core/ranking.h"
#include "core/tota_greedy.h"
#include "core/window_greedy.h"

namespace comx {

std::unique_ptr<OnlineMatcher> MakeMatcherByName(std::string_view name) {
  if (name == "tota") return std::make_unique<TotaGreedy>();
  if (name == "ranking") return std::make_unique<Ranking>();
  if (name == "greedyrt") return std::make_unique<GreedyRt>();
  if (name == "demcom") return std::make_unique<DemCom>();
  if (name == "ramcom") return std::make_unique<RamCom>();
  if (name == "costdem") return std::make_unique<CostAwareDemCom>();
  // Batch-mode runs never consult the per-platform matchers, but the engine
  // still Reset()s one per platform; WindowGreedy is the window=0 twin.
  if (name == "batch") return std::make_unique<WindowGreedy>();
  return nullptr;
}

}  // namespace comx
