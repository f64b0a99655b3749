#include "matching/incremental_km.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "util/string_util.h"

namespace comx {
namespace {

// Min-heap entry: (tentative distance, column). Lazy deletion — stale
// entries are skipped when popped. Ties break toward the smaller column so
// every run is deterministic.
using HeapEntry = std::pair<double, int32_t>;

}  // namespace

IncrementalKuhnMunkres::IncrementalKuhnMunkres(int32_t column_count,
                                               Config config)
    : config_(config) {
  const size_t m = column_count > 0 ? static_cast<size_t>(column_count) : 0;
  v_.assign(m, 0.0);
  match_col_.assign(m, -1);
  d_.assign(m, 0.0);
  pred_col_.assign(m, -1);
  d_gen_.assign(m, 0);
  done_gen_.assign(m, 0);
  row_start_.push_back(0);
}

Status IncrementalKuhnMunkres::WarmStart(
    const std::vector<double>& column_potentials) {
  if (!u_.empty()) {
    return Status::FailedPrecondition(
        "WarmStart must precede the first AddRow");
  }
  if (column_potentials.size() != v_.size()) {
    return Status::InvalidArgument(
        StrFormat("warm-start size %zu != column count %zu",
                  column_potentials.size(), v_.size()));
  }
  for (size_t j = 0; j < v_.size(); ++j) {
    const double vj = column_potentials[j];
    if (!std::isfinite(vj)) {
      return Status::InvalidArgument("warm-start potential not finite");
    }
    // The fresh matching leaves every column unmatched, and unmatched
    // columns need v >= 0 (their arc to the null sink has reduced cost v).
    v_[j] = std::max(vj, 0.0);
  }
  return Status::OK();
}

Result<int32_t> IncrementalKuhnMunkres::AddRow(
    const std::vector<RowEdge>& edges) {
  const int32_t row = row_count();
  const int32_t m = column_count();

  // Collapse the row's edges to max weight per column, dropping weights
  // <= 0 (free disposal makes them worthless, matching the dense solver's
  // extraction filter).
  const size_t first = edge_col_.size();
  for (const RowEdge& e : edges) {
    if (!std::isfinite(e.weight)) {
      return Status::InvalidArgument("edge weight not finite");
    }
    if (e.column < 0 || e.column >= m) {
      return Status::OutOfRange(
          StrFormat("edge column %d outside [0, %d)", e.column, m));
    }
    if (!(e.weight > 0.0)) continue;
    bool merged = false;
    for (size_t k = first; k < edge_col_.size(); ++k) {
      if (edge_col_[k] == e.column) {
        edge_w_[k] = std::max(edge_w_[k], e.weight);
        merged = true;
        break;
      }
    }
    if (!merged) {
      edge_col_.push_back(e.column);
      edge_w_.push_back(e.weight);
    }
  }
  row_start_.push_back(edge_col_.size());
  u_.push_back(0.0);
  match_row_.push_back(-1);
  if (edge_col_.size() == first) return row;  // no useful edge; stays null

  // Dijkstra over reduced costs from the new row. d(j) is the cheapest
  // alternating-path cost from the row to column j; the path may exit to
  // the null sink T (at p(T) = 0) three ways, tracked in best_T:
  //   * the new row itself stays unmatched (cost 0, the initial value),
  //   * an unmatched column j exits via its j->T arc (d(j) + v[j]),
  //   * a matched row i' gives up its column and exits (d(j) + u[i']).
  ++gen_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  for (size_t k = first; k < edge_col_.size(); ++k) {
    const int32_t j = edge_col_[k];
    const double dj = -edge_w_[k] - v_[j];
    if (d_gen_[j] != gen_ || dj < d_[j]) {
      d_[j] = dj;
      d_gen_[j] = gen_;
      pred_col_[j] = -1;  // reached directly from the new row
      heap.emplace(dj, j);
    }
    ++relax_ops_;
  }

  double best_T = 0.0;
  enum class Exit { kSource, kColumn, kNull };
  Exit exit_kind = Exit::kSource;
  int32_t exit_col = -1;   // kColumn: the unmatched column; kNull: the
  int32_t exit_row = -1;   // column entered / the row giving up its column
  std::vector<int32_t> finalized;

  while (!heap.empty()) {
    const auto [dj, j] = heap.top();
    heap.pop();
    if (done_gen_[j] == gen_) continue;
    if (d_gen_[j] != gen_ || dj > d_[j]) continue;  // stale entry
    if (dj >= best_T) break;  // no exit can improve on best_T
    done_gen_[j] = gen_;
    finalized.push_back(j);

    const int32_t owner = match_col_[j];
    if (owner < 0) {
      const double tj = dj + v_[j];  // reduced cost of the j->T arc
      if (tj < best_T) {
        best_T = tj;
        exit_kind = Exit::kColumn;
        exit_col = j;
      }
      continue;  // unmatched columns have no matched-row arc to relax
    }
    const double null_exit = dj + u_[owner];
    if (null_exit < best_T) {
      best_T = null_exit;
      exit_kind = Exit::kNull;
      exit_col = j;
      exit_row = owner;
    }
    for (size_t k = row_start_[owner]; k < row_start_[owner + 1]; ++k) {
      if (++relax_ops_ > config_.max_relaxations) {
        return Status::OutOfRange(StrFormat(
            "incremental KM relaxation budget exhausted (%lld)",
            static_cast<long long>(config_.max_relaxations)));
      }
      const int32_t j2 = edge_col_[k];
      if (done_gen_[j2] == gen_) continue;
      const double rc = -edge_w_[k] + u_[owner] - v_[j2];
      const double nd = dj + rc;
      if (d_gen_[j2] != gen_ || nd < d_[j2]) {
        d_[j2] = nd;
        d_gen_[j2] = gen_;
        pred_col_[j2] = j;
        heap.emplace(nd, j2);
      }
    }
  }

  const double D = best_T;  // <= 0: augmenting never loses revenue
  if (exit_kind == Exit::kSource) return row;  // D == 0, row stays null

  // Dual update before touching the matching: shift every finalized label
  // by -D so the sink keeps potential 0. Rows are updated through their
  // (pre-augment) matched columns.
  for (const int32_t j : finalized) {
    const double delta = d_[j] - D;
    v_[j] += delta;
    const int32_t owner = match_col_[j];
    if (owner >= 0) u_[owner] += delta;
  }
  u_[row] = -D;

  // Augment along the predecessor chain. A null exit first releases the
  // row that gives up its column.
  int32_t jcur = exit_col;
  if (exit_kind == Exit::kNull) match_row_[exit_row] = -1;
  while (true) {
    const int32_t jprev = pred_col_[jcur];
    const int32_t chain_row = jprev < 0 ? row : match_col_[jprev];
    match_col_[jcur] = chain_row;
    match_row_[chain_row] = jcur;
    if (jprev < 0) break;
    jcur = jprev;
  }
  return row;
}

int32_t IncrementalKuhnMunkres::MatchOfRow(int32_t row) const {
  if (row < 0 || row >= row_count()) return -1;
  return match_row_[static_cast<size_t>(row)];
}

int32_t IncrementalKuhnMunkres::MatchOfColumn(int32_t column) const {
  if (column < 0 || column >= column_count()) return -1;
  return match_col_[static_cast<size_t>(column)];
}

double IncrementalKuhnMunkres::DualFeasibilityGap() const {
  double gap = 0.0;
  for (int32_t i = 0; i < row_count(); ++i) {
    // Disposed rows carry no dual claim (header invariant list): their
    // edges' slack is certified by the exit costs at insertion time.
    if (match_row_[static_cast<size_t>(i)] < 0) continue;
    for (size_t k = row_start_[i]; k < row_start_[i + 1]; ++k) {
      gap = std::max(gap, edge_w_[k] - u_[i] + v_[edge_col_[k]]);
    }
  }
  return gap;
}

double IncrementalKuhnMunkres::EdgeWeight(int32_t row, int32_t column) const {
  double best = 0.0;
  for (size_t k = row_start_[row]; k < row_start_[row + 1]; ++k) {
    if (edge_col_[k] == column) best = std::max(best, edge_w_[k]);
  }
  return best;
}

BipartiteMatching IncrementalKuhnMunkres::Extract() const {
  BipartiteMatching result;
  result.match_of_left.assign(static_cast<size_t>(row_count()), -1);
  for (int32_t j = 0; j < column_count(); ++j) {
    const int32_t i = match_col_[static_cast<size_t>(j)];
    if (i < 0) continue;
    result.match_of_left[static_cast<size_t>(i)] = j;
    result.total_weight += EdgeWeight(i, j);
    ++result.size;
  }
  return result;
}

Status AddGraphRows(const BipartiteGraph& graph, IncrementalKuhnMunkres* km) {
  for (const BipartiteEdge& e : graph.edges()) {
    if (e.weight < 0.0) {
      return Status::InvalidArgument(
          StrFormat("negative edge weight %g", e.weight));
    }
  }
  const auto& adj = graph.LeftAdjacency();
  std::vector<IncrementalKuhnMunkres::RowEdge> row_edges;
  for (int32_t l = 0; l < graph.left_count(); ++l) {
    row_edges.clear();
    for (const int32_t ei : adj[static_cast<size_t>(l)]) {
      const BipartiteEdge& e = graph.edges()[static_cast<size_t>(ei)];
      row_edges.push_back({e.right, e.weight});
    }
    COMX_ASSIGN_OR_RETURN(const int32_t row, km->AddRow(row_edges));
    (void)row;
  }
  return Status::OK();
}

Result<BipartiteMatching> IncrementalKmMaxWeight(
    const BipartiteGraph& graph, IncrementalKmConfig config) {
  IncrementalKuhnMunkres km(graph.right_count(), config);
  COMX_RETURN_IF_ERROR(AddGraphRows(graph, &km));
  return km.Extract();
}

}  // namespace comx
