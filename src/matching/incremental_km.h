// Incremental Kuhn–Munkres (Jonker–Volgenant style shortest augmenting
// paths) for maximum-weight bipartite matching with free disposal. Rows
// (requests) arrive one at a time; each AddRow runs a single Dijkstra over
// reduced costs and augments, reusing the dual potentials built by all
// previous rows. This is the one exact assignment solver behind the
// offline optimum OFF (paper Section II-B) and every exact batch window: it
// touches only the grid-pruned candidate edges of each arriving request,
// so it scales to 100k-request instances where the dense Hungarian
// referee (hungarian.h) would have to build an L×R matrix.
//
// Internally we solve the equivalent min-cost assignment on costs
// c(i,j) = -w(i,j) with an explicit null sink T: every row may exit
// unmatched at cost 0 (free disposal), every unmatched column connects to T
// at reduced cost v[j]. Invariants maintained after every AddRow, with
// u[i] the row potential and v[j] the column potential:
//
//   * every edge of a MATCHED row: -w + u[i] - v[j] >= 0 (dual feasibility)
//   * every matched edge:          -w + u[i] - v[j] == 0 (tightness)
//   * rows matched to a column: u[i] >= 0; unmatched rows: u[i] == 0
//   * unmatched columns: v[j] >= 0
//
// Unmatched (disposed) rows sit at u[i] == 0 with no feasibility claim on
// their edges: their certificate is the nonnegative shortest-exit cost
// established when they were added, and augmenting paths only get more
// expensive as later rows consume columns, so "null stays null" remains
// optimal. The matched-row invariant is exactly what keeps every Dijkstra
// arc (matched row -> column) at nonnegative reduced cost, warm-started or
// not.
//
// Satellite convention: with u_i := -u[i], v_j := v[j], c_ij := -w the
// first invariant reads u_i + v_j <= c_ij — see DualFeasibilityGap().

#ifndef COMX_MATCHING_INCREMENTAL_KM_H_
#define COMX_MATCHING_INCREMENTAL_KM_H_

#include <cstdint>
#include <vector>

#include "matching/bipartite_graph.h"
#include "util/result.h"
#include "util/status.h"

namespace comx {

/// Tuning for IncrementalKuhnMunkres.
struct IncrementalKmConfig {
  /// Upper bound on edge relaxations summed over all AddRow calls; the
  /// solver errors with OutOfRange instead of stalling a sweep. The
  /// R100k/W20k grid-pruned stress instance consumes ~3.1e9 relaxations
  /// per platform (~50 s single-core), so the default leaves ~2.5x
  /// headroom while still bounding a runaway solve to a couple minutes.
  int64_t max_relaxations = 8'000'000'000;
};

/// Online maximum-weight assignment with dual reuse across row arrivals.
class IncrementalKuhnMunkres {
 public:
  using Config = IncrementalKmConfig;

  /// One candidate edge of an arriving row.
  struct RowEdge {
    int32_t column = 0;
    double weight = 0.0;
  };

  explicit IncrementalKuhnMunkres(int32_t column_count,
                                  Config config = IncrementalKmConfig());

  /// Seeds the column potentials before any row is added (warm start from a
  /// previous window's duals). Values are clamped to >= 0 because the fresh
  /// empty matching leaves every column unmatched. Errors with
  /// FailedPrecondition after AddRow and InvalidArgument on size mismatch
  /// or non-finite values.
  Status WarmStart(const std::vector<double>& column_potentials);

  /// Adds one row with its candidate edges and re-optimizes. Edges with
  /// weight <= 0 are dropped (free disposal makes them worthless), parallel
  /// edges collapse to their maximum weight. Returns the new row's id.
  /// Errors with OutOfRange on bad columns or an exhausted relaxation
  /// budget and InvalidArgument on non-finite weights.
  Result<int32_t> AddRow(const std::vector<RowEdge>& edges);

  int32_t row_count() const { return static_cast<int32_t>(u_.size()); }
  int32_t column_count() const { return static_cast<int32_t>(v_.size()); }

  /// Matched column of `row` (-1 when unmatched / out of range).
  int32_t MatchOfRow(int32_t row) const;
  /// Matched row of `column` (-1 when unmatched / out of range).
  int32_t MatchOfColumn(int32_t column) const;

  /// Current duals. Row potentials are >= 0; column potentials of
  /// unmatched columns are >= 0.
  const std::vector<double>& row_potentials() const { return u_; }
  const std::vector<double>& column_potentials() const { return v_; }

  /// max(0, max over edges of matched rows of w - u[row] + v[column]) —
  /// 0 when the duals are feasible (see the invariant list above; disposed
  /// rows make no feasibility claim). Exposed for the dual-feasibility
  /// oracle; the dual updates accumulate rounding, so tests compare
  /// against an ulp-scale bound (1e-9), and anything beyond that is a
  /// solver bug.
  double DualFeasibilityGap() const;

  /// Snapshot of the current matching. The total sums matched weights in
  /// ascending column order, the same order HungarianMaxWeight uses, so a
  /// unique-optimum instance reproduces the dense total bit for bit.
  BipartiteMatching Extract() const;

  /// Relaxations consumed so far (monotone across AddRow calls).
  int64_t relaxations_used() const { return relax_ops_; }

 private:
  double EdgeWeight(int32_t row, int32_t column) const;

  Config config_;
  std::vector<double> v_;          // column potentials
  std::vector<double> u_;          // row potentials, grows with AddRow
  std::vector<int32_t> match_col_; // column -> row or -1
  std::vector<int32_t> match_row_; // row -> column or -1

  // Retained row edges (CSR): later Dijkstras relax through matched rows.
  std::vector<size_t> row_start_;  // size row_count()+1
  std::vector<int32_t> edge_col_;
  std::vector<double> edge_w_;

  // Generation-stamped Dijkstra scratch (no O(columns) clear per row).
  std::vector<double> d_;
  std::vector<int32_t> pred_col_;
  std::vector<uint32_t> d_gen_;
  std::vector<uint32_t> done_gen_;
  uint32_t gen_ = 0;
  int64_t relax_ops_ = 0;
};

/// Feeds the graph's left vertices to `km` as rows, in index order, each
/// with its edges in insertion order. Requires every weight >= 0 (checked
/// up front, before any row is added) and
/// km->column_count() == graph.right_count(). Errors with InvalidArgument
/// on negative weights and propagates AddRow's errors.
Status AddGraphRows(const BipartiteGraph& graph, IncrementalKuhnMunkres* km);

/// Solves the whole graph from cold duals: AddGraphRows then Extract. The
/// contract matches the dense HungarianMaxWeight referee: every weight
/// >= 0, parallel edges collapse to their maximum. Errors with
/// InvalidArgument on negative weights and OutOfRange when the relaxation
/// budget is exhausted.
Result<BipartiteMatching> IncrementalKmMaxWeight(
    const BipartiteGraph& graph, IncrementalKmConfig config = {});

}  // namespace comx

#endif  // COMX_MATCHING_INCREMENTAL_KM_H_
