// Tests of the ablation knobs on the core matchers: TOTA's random-choice
// variant and RamCOM's fixed threshold exponent.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/ram_com.h"
#include "core/tota_greedy.h"
#include "testing/builders.h"
#include "testing/fake_view.h"

namespace comx {
namespace {

using testing_fixtures::FakeView;
using testing_fixtures::MakeRequest;
using testing_fixtures::MakeWorker;
using testing_fixtures::PaperExample;

Instance ThreeInnerWorkers() {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0.1, 0, 2.0));
  ins.AddWorker(MakeWorker(0, 1, 0.5, 0, 2.0));
  ins.AddWorker(MakeWorker(0, 1, 0.9, 0, 2.0));
  ins.BuildEvents();
  return ins;
}

TEST(TotaRandomChoiceTest, NameReflectsVariant) {
  EXPECT_EQ(TotaGreedy(false).name(), "TOTA");
  EXPECT_EQ(TotaGreedy(true).name(), "TOTA-rand");
}

TEST(TotaRandomChoiceTest, NearestVariantIsDeterministic) {
  const Instance ins = ThreeInnerWorkers();
  FakeView view(ins, 0);
  TotaGreedy tota(false);
  tota.Reset(ins, 0, 1);
  for (int i = 0; i < 10; ++i) {
    const Decision d = tota.OnRequest(MakeRequest(0, 2, 0, 0, 5), view);
    EXPECT_EQ(d.worker, 0);  // nearest to (0, 0)
  }
}

TEST(TotaRandomChoiceTest, RandomVariantCoversAllWorkers) {
  const Instance ins = ThreeInnerWorkers();
  std::set<WorkerId> chosen;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    FakeView view(ins, 0);
    TotaGreedy tota(true);
    tota.Reset(ins, 0, seed);
    const Decision d = tota.OnRequest(MakeRequest(0, 2, 0, 0, 5), view);
    ASSERT_EQ(d.kind, Decision::Kind::kInner);
    chosen.insert(d.worker);
  }
  EXPECT_EQ(chosen.size(), 3u);
}

TEST(TotaRandomChoiceTest, RandomVariantDeterministicPerSeed) {
  const Instance ins = ThreeInnerWorkers();
  auto pick = [&](uint64_t seed) {
    FakeView view(ins, 0);
    TotaGreedy tota(true);
    tota.Reset(ins, 0, seed);
    return tota.OnRequest(MakeRequest(0, 2, 0, 0, 5), view).worker;
  };
  EXPECT_EQ(pick(5), pick(5));
}

TEST(TotaRandomChoiceTest, StillRejectsWhenNothingFeasible) {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 50, 50, 1.0));
  ins.BuildEvents();
  FakeView view(ins, 0);
  TotaGreedy tota(true);
  tota.Reset(ins, 0, 1);
  EXPECT_EQ(tota.OnRequest(MakeRequest(0, 2, 0, 0, 5), view).kind,
            Decision::Kind::kReject);
}

TEST(RamComFixedExponentTest, FreezesThreshold) {
  const Instance ins = PaperExample();
  for (int k = 0; k <= 2; ++k) {
    for (uint64_t seed = 0; seed < 5; ++seed) {
      RamCom ram(k);
      ram.Reset(ins, 0, seed);
      EXPECT_DOUBLE_EQ(ram.threshold(), std::exp(k));
    }
  }
}

TEST(RamComFixedExponentTest, NegativeMeansDraw) {
  const Instance ins = PaperExample();
  std::set<double> seen;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    RamCom ram(-1);
    ram.Reset(ins, 0, seed);
    seen.insert(ram.threshold());
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST(RamComFixedExponentTest, ZeroExponentKeepsEverythingInner) {
  // Threshold e^0 = 1 < every request value (values >= 2), so all requests
  // take the inner path while inner workers remain.
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0, 0, 2.0));
  ins.AddWorker(MakeWorker(1, 1, 0, 0, 2.0, {0.01}));
  ins.AddRequest(MakeRequest(0, 2, 0, 0, 5.0));
  ins.BuildEvents();
  FakeView view(ins, 0);
  RamCom ram(0);
  ram.Reset(ins, 0, 1);
  const Decision d = ram.OnRequest(MakeRequest(0, 2, 0, 0, 5.0), view);
  EXPECT_EQ(d.kind, Decision::Kind::kInner);
}

TEST(RamComFixedExponentTest, HugeExponentDivertsEverything) {
  Instance ins;
  ins.AddWorker(MakeWorker(0, 1, 0, 0, 2.0));           // free inner
  ins.AddWorker(MakeWorker(1, 1, 0, 0, 2.0, {0.01}));   // eager outer
  ins.AddRequest(MakeRequest(0, 2, 0, 0, 5.0));
  ins.BuildEvents();
  FakeView view(ins, 0);
  RamCom ram(10);  // threshold e^10 >> 5
  ram.Reset(ins, 0, 1);
  const Decision d = ram.OnRequest(MakeRequest(0, 2, 0, 0, 5.0), view);
  EXPECT_NE(d.kind, Decision::Kind::kInner);
}

}  // namespace
}  // namespace comx
