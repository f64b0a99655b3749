#include "model/arrival_stream.h"

#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "testing/builders.h"

namespace comx {
namespace {

using testing_fixtures::PaperExample;

TEST(RandomOrderCopyTest, PreservesEntities) {
  const Instance ins = PaperExample();
  Rng rng(5);
  const Instance shuffled = RandomOrderCopy(ins, &rng);
  EXPECT_EQ(shuffled.workers().size(), ins.workers().size());
  EXPECT_EQ(shuffled.requests().size(), ins.requests().size());
  // Values/locations/platforms unchanged.
  for (size_t i = 0; i < ins.requests().size(); ++i) {
    EXPECT_EQ(shuffled.requests()[i].value, ins.requests()[i].value);
    EXPECT_EQ(shuffled.requests()[i].location, ins.requests()[i].location);
    EXPECT_EQ(shuffled.requests()[i].platform, ins.requests()[i].platform);
  }
}

TEST(RandomOrderCopyTest, ProducesValidInstance) {
  const Instance ins = PaperExample();
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const Instance shuffled = RandomOrderCopy(ins, &rng);
    EXPECT_TRUE(shuffled.Validate().ok()) << "seed " << seed;
  }
}

TEST(RandomOrderCopyTest, TimesAreMonotoneDense) {
  const Instance ins = PaperExample();
  Rng rng(11);
  const Instance shuffled = RandomOrderCopy(ins, &rng);
  for (size_t i = 0; i < shuffled.events().size(); ++i) {
    EXPECT_EQ(shuffled.events()[i].time, static_cast<double>(i));
  }
}

TEST(RandomOrderCopyTest, DifferentSeedsGiveDifferentOrders) {
  const Instance ins = PaperExample();
  std::set<std::vector<std::pair<EventKind, int64_t>>> orders;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const Instance shuffled = RandomOrderCopy(ins, &rng);
    std::vector<std::pair<EventKind, int64_t>> order;
    for (const Event& e : shuffled.events()) {
      order.emplace_back(e.kind, e.entity_id);
    }
    orders.insert(std::move(order));
  }
  EXPECT_GT(orders.size(), 5u);
}

}  // namespace
}  // namespace comx
