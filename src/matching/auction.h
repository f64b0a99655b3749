// Bertsekas auction algorithm for maximum-weight bipartite matching with
// free disposal (vertices may stay unmatched). A third independent solver
// for the OFF baseline: it agrees with Hungarian / incremental KM within
// left_count * epsilon, runs on sparse graphs without densification, and
// parallels how real dispatch systems price-match (workers "bid" for
// requests).
//
// Implementation note: one cold auction round at a fixed epsilon. The
// classic epsilon-scaling warm start is unsound under free disposal —
// carrying prices across rounds leaves unowned objects with stale positive
// prices, so bidders wrongly settle for the null option. A cold round
// guarantees: every unowned object has price 0, every null-settled bidder
// truly had no profitable edge, and the assignment is within
// left_count * epsilon of optimal (standard epsilon-CS argument).

#ifndef COMX_MATCHING_AUCTION_H_
#define COMX_MATCHING_AUCTION_H_

#include "matching/bipartite_graph.h"
#include "util/result.h"

namespace comx {

/// Tuning for the auction.
struct AuctionConfig {
  /// Bid increment as a fraction of the max edge weight; the result is
  /// within left_count * epsilon_fraction * max_weight of optimal.
  double epsilon_fraction = 1e-4;
  /// Safety cap on total bids.
  int64_t max_bids = 50'000'000;
  /// Exact mode for integer weights: requires every edge weight to be an
  /// integer and overrides the epsilon with 1 / (left_count + 1), the
  /// epsilon-scaling termination point. The left_count * epsilon
  /// suboptimality bound then drops below 1, and since every matching
  /// total is an integer the auction total equals the Hungarian optimum
  /// exactly. Errors with InvalidArgument on non-integer weights.
  bool integer_exact = false;
};

/// Runs the auction. Requirements: edge weights >= 0. Errors on negative
/// weights or bid-cap blowout.
Result<BipartiteMatching> AuctionMaxWeight(const BipartiteGraph& graph,
                                           const AuctionConfig& config = {});

}  // namespace comx

#endif  // COMX_MATCHING_AUCTION_H_
