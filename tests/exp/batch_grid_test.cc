#include "exp/batch_grid.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "matching/batch_matcher.h"
#include "sim/simulator.h"

namespace comx {
namespace exp {
namespace {

Instance SmallInstance() {
  SyntheticConfig config;
  config.requests_per_platform = {120};
  config.workers_per_platform = {30};
  config.seed = 7;
  auto instance = GenerateSynthetic(config);
  EXPECT_TRUE(instance.ok()) << instance.status();
  return std::move(*instance);
}

BatchGridConfig SmallConfig(int jobs) {
  BatchGridConfig config;
  config.seeds = 3;
  config.jobs = jobs;
  config.windows = {0.0, 30.0, 120.0};
  config.algos = {BatchAlgo::kGreedy, BatchAlgo::kIncrementalKm};
  config.sim.workers_recycle = true;
  return config;
}

TEST(BatchGridTest, WindowZeroRowsHaveExactlyZeroGap) {
  // The window-0 cell of any solver is the engine's online path
  // bit-for-bit, and the grid accumulates revenue in the same seed order
  // as the baseline cell — so the gap is 0.0 exactly, not just small.
  const Instance instance = SmallInstance();
  auto rows = RunBatchGrid(instance, SmallConfig(1));
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 6u);  // 3 windows x 2 algos
  int zero_rows = 0;
  for (const BatchGridRow& row : *rows) {
    if (row.window_seconds != 0.0) continue;
    ++zero_rows;
    EXPECT_EQ(row.gap, 0.0) << BatchAlgoName(row.algo);
    EXPECT_EQ(row.revenue, row.online_revenue) << BatchAlgoName(row.algo);
  }
  EXPECT_EQ(zero_rows, 2);
}

TEST(BatchGridTest, BatchRevenueAtLeastOnlineOnSweptGrid) {
  // The acceptance criterion of the batch experiment: a window solve sees
  // strictly more options than per-request dispatch, so on the swept grid
  // the best batch row must not lose revenue against the online baseline.
  const Instance instance = SmallInstance();
  auto rows = RunBatchGrid(instance, SmallConfig(1));
  ASSERT_TRUE(rows.ok()) << rows.status();
  double best_gap = -1e300;
  for (const BatchGridRow& row : *rows) {
    best_gap = best_gap > row.gap ? best_gap : row.gap;
  }
  EXPECT_GE(best_gap, 0.0);
  // Positive windows actually wait: the mean wait must exceed the online
  // row's (which records in-window waits of 0 for window = 0).
  for (const BatchGridRow& row : *rows) {
    if (row.window_seconds > 0.0) EXPECT_GT(row.mean_wait_seconds, 0.0);
  }
}

TEST(BatchGridTest, ParallelRowsAreBitIdenticalToSerial) {
  const Instance instance = SmallInstance();
  auto serial = RunBatchGrid(instance, SmallConfig(1));
  auto parallel = RunBatchGrid(instance, SmallConfig(8));
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    const BatchGridRow& a = (*serial)[i];
    const BatchGridRow& b = (*parallel)[i];
    EXPECT_EQ(a.window_seconds, b.window_seconds);
    EXPECT_EQ(a.algo, b.algo);
    EXPECT_EQ(a.revenue, b.revenue);  // exact doubles
    EXPECT_EQ(a.online_revenue, b.online_revenue);
    EXPECT_EQ(a.gap, b.gap);
    EXPECT_EQ(a.mean_wait_seconds, b.mean_wait_seconds);
    EXPECT_EQ(a.completed, b.completed);
  }
  EXPECT_EQ(RenderBatchGridTable("T", *serial),
            RenderBatchGridTable("T", *parallel));
  EXPECT_EQ(RenderBatchGridCsvRows("tag", *serial),
            RenderBatchGridCsvRows("tag", *parallel));
}

TEST(BatchGridTest, RendersTableAndCsv) {
  std::vector<BatchGridRow> rows(1);
  rows[0].window_seconds = 30.0;
  rows[0].algo = BatchAlgo::kIncrementalKm;
  rows[0].revenue = 12.5;
  rows[0].online_revenue = 10.0;
  rows[0].gap = 2.5;
  const std::string table = RenderBatchGridTable("batch", rows);
  EXPECT_NE(table.find("incremental_km"), std::string::npos) << table;
  const std::string csv =
      BatchGridCsvHeader() + RenderBatchGridCsvRows("t", rows);
  EXPECT_NE(csv.find("t,30.000,incremental_km,12.50,10.00,2.50"),
            std::string::npos)
      << csv;
}

TEST(BatchGridTest, RejectsBadConfigs) {
  const Instance instance = SmallInstance();
  BatchGridConfig config = SmallConfig(1);
  config.seeds = 0;
  EXPECT_EQ(RunBatchGrid(instance, config).status().code(),
            StatusCode::kInvalidArgument);
  config = SmallConfig(1);
  config.windows = {-1.0};
  EXPECT_EQ(RunBatchGrid(instance, config).status().code(),
            StatusCode::kInvalidArgument);
  config = SmallConfig(1);
  config.algos.clear();
  EXPECT_EQ(RunBatchGrid(instance, config).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace exp
}  // namespace comx
