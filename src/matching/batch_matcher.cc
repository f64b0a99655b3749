#include "matching/batch_matcher.h"

#include "matching/greedy_offline.h"
#include "util/string_util.h"

namespace comx {

const char* BatchAlgoName(BatchAlgo algo) {
  switch (algo) {
    case BatchAlgo::kGreedy:
      return "greedy";
    case BatchAlgo::kIncrementalKm:
      return "incremental_km";
  }
  return "unknown";
}

Result<BatchAlgo> ParseBatchAlgo(std::string_view name) {
  if (name == "greedy") return BatchAlgo::kGreedy;
  if (name == "incremental_km") return BatchAlgo::kIncrementalKm;
  return Status::InvalidArgument(
      StrFormat("unknown batch algo '%.*s'",
                static_cast<int>(name.size()), name.data()));
}

BatchMatcher::BatchMatcher(BatchMatchConfig config)
    : config_(config) {}

Result<BipartiteMatching> BatchMatcher::SolveWindow(
    const BipartiteGraph& graph,
    const std::vector<WorkerId>& worker_of_column) {
  if (worker_of_column.size() !=
      static_cast<size_t>(graph.right_count())) {
    return Status::InvalidArgument(StrFormat(
        "worker_of_column has %zu entries for %d columns",
        worker_of_column.size(), graph.right_count()));
  }
  last_dual_gap_ = 0.0;
  if (config_.algo == BatchAlgo::kGreedy) return GreedyMaxWeight(graph);

  IncrementalKuhnMunkres km(graph.right_count(), config_.km);
  if (!worker_potential_.empty()) {
    std::vector<double> seed(worker_of_column.size(), 0.0);
    for (size_t j = 0; j < worker_of_column.size(); ++j) {
      const auto it = worker_potential_.find(worker_of_column[j]);
      if (it != worker_potential_.end()) seed[j] = it->second;
    }
    COMX_RETURN_IF_ERROR(km.WarmStart(seed));
  }
  COMX_RETURN_IF_ERROR(AddGraphRows(graph, &km));
  last_dual_gap_ = km.DualFeasibilityGap();
  const std::vector<double>& v = km.column_potentials();
  for (size_t j = 0; j < worker_of_column.size(); ++j) {
    worker_potential_[worker_of_column[j]] = v[j];
  }
  return km.Extract();
}

}  // namespace comx
