// Exhaustive maximum-weight bipartite matching: the O(right-degree^left)
// reference the correctness harness (src/check/) checks the production
// offline solvers against. Deliberately structure-free — plain recursion
// over the left vertices with a used-right mask, no potentials, no flows —
// so a bug in the Hungarian/incremental-KM machinery cannot hide in a shared
// assumption. Only usable on tiny graphs; SolveOfflineBruteForce mirrors
// SolveOffline (Section II-B's OFF) over the identical offline graph and
// reservation draws, so equal revenue is the expected outcome, not a
// tolerance game.

#ifndef COMX_CORE_BRUTE_FORCE_H_
#define COMX_CORE_BRUTE_FORCE_H_

#include "core/offline_opt.h"
#include "matching/bipartite_graph.h"
#include "model/instance.h"
#include "util/result.h"

namespace comx {

/// Hard size gates: the search is exponential by design.
struct BruteForceLimits {
  int32_t max_left = 10;
  int32_t max_right = 20;
};

/// Exhaustive maximum-total-weight matching. Requires every edge weight
/// >= 0 (matching HungarianMaxWeight's contract) and the graph to be within
/// `limits`; errors with OutOfRange otherwise. Ties are broken towards the
/// lexicographically smallest match_of_left vector, so the result is
/// deterministic (the total weight is what callers should compare).
Result<BipartiteMatching> BruteForceMaxWeight(const BipartiteGraph& graph,
                                              const BruteForceLimits& limits = {});

/// OFF solved by exhaustive search: builds the exact same offline graph as
/// SolveOffline (same reservation draws, same time/range feasibility edges)
/// and brute-forces it. Requires worker_capacity == 1 and an instance small
/// enough for `limits`. The returned solver tag is "brute_force".
Result<OfflineSolution> SolveOfflineBruteForce(
    const Instance& instance, PlatformId target,
    const OfflineConfig& config = {}, const BruteForceLimits& limits = {});

}  // namespace comx

#endif  // COMX_CORE_BRUTE_FORCE_H_
