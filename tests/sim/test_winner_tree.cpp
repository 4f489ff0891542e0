// Property test for the DES run/park queues: the winner tree must yield
// exactly what a (clock, tid) min-heap yields, for strand counts that are and
// are not powers of two (uneven leaf depths) and under set / park / unpark /
// retire sequences with many equal clocks.

#include "sim/winner_tree.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "util/prng.h"

namespace mcopt::sim {
namespace {

/// Reference: the lexicographic pair heap, with lazy deletion of stale
/// entries (a strand's latest state is authoritative).
class ReferenceQueue {
 public:
  explicit ReferenceQueue(unsigned n) : clock_(n, kOff) {}

  void schedule(unsigned tid, std::uint64_t clock) {
    clock_[tid] = clock;
    heap_.emplace(clock, tid);
  }
  void idle(unsigned tid) { clock_[tid] = kOff; }

  /// Earliest live (clock, tid), or {kOff, 0} when none is runnable.
  std::pair<std::uint64_t, unsigned> top() {
    while (!heap_.empty() && clock_[heap_.top().second] != heap_.top().first)
      heap_.pop();
    return heap_.empty() ? std::pair<std::uint64_t, unsigned>{kOff, 0}
                         : heap_.top();
  }

 private:
  static constexpr std::uint64_t kOff = ~std::uint64_t{0};
  std::vector<std::uint64_t> clock_;
  std::priority_queue<std::pair<std::uint64_t, unsigned>,
                      std::vector<std::pair<std::uint64_t, unsigned>>,
                      std::greater<>>
      heap_;
};

class WinnerTreeProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(WinnerTreeProperty, MatchesPairHeap) {
  const unsigned n = GetParam();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Xoshiro256 rng(seed * 7919 + n);
    WinnerTree tree;
    ReferenceQueue ref(n);
    std::vector<bool> retired;
    unsigned alive = 0;
    // A fresh run: every strand runnable at cycle 0.
    const auto start = [&] {
      tree.reset(n);
      ref = ReferenceQueue(n);
      retired.assign(n, false);
      alive = n;
      for (unsigned t = 0; t < n; ++t) {
        tree.set(t, 0);
        ref.schedule(t, 0);
      }
    };
    start();
    // Small clock range: ties between strands are the common case.
    const std::uint64_t clock_range = seed % 2 == 0 ? 4 : 1000;
    const std::uint64_t limit = tree.value_limit();
    for (int op = 0; op < 2000; ++op) {
      const auto expect = ref.top();
      ASSERT_EQ(tree.empty(), expect.first == ~std::uint64_t{0})
          << "n=" << n << " seed=" << seed << " op=" << op;
      if (!tree.empty()) {
        ASSERT_EQ(tree.top_value(), expect.first)
            << "n=" << n << " seed=" << seed << " op=" << op;
        ASSERT_EQ(tree.top_slot(), expect.second)
            << "n=" << n << " seed=" << seed << " op=" << op;
      }
      const unsigned tid = static_cast<unsigned>(rng() % n);
      if (retired[tid]) continue;
      const std::uint64_t clock =
          op % 97 == 0 ? limit - 1 - rng() % 3 : rng() % clock_range;
      const std::uint64_t action = rng() % 64;
      if (action < 8) {  // park (or retire, rarely: never comes back)
        tree.erase(tid);
        ref.idle(tid);
        if (action == 0) {
          retired[tid] = true;
          if (--alive == 0) {
            ASSERT_TRUE(tree.empty());
            start();
          }
        }
      } else {  // re-schedule a running strand or unpark a parked one
        tree.set(tid, clock);
        ref.schedule(tid, clock);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StrandCounts, WinnerTreeProperty,
                         ::testing::Values(1u, 2u, 3u, 7u, 8u, 33u, 64u));

TEST(WinnerTree, TiesGoToLowestTid) {
  WinnerTree tree;
  tree.reset(5);
  for (unsigned t : {4u, 2u, 3u}) tree.set(t, 10);
  EXPECT_EQ(tree.top_slot(), 2u);
  EXPECT_EQ(tree.top_value(), 10u);
  tree.set(0, 11);
  EXPECT_EQ(tree.top_slot(), 2u);
  tree.erase(2);
  EXPECT_EQ(tree.top_slot(), 3u);
}

TEST(WinnerTree, EmptyWhenAllIdle) {
  WinnerTree tree;
  tree.reset(3);
  EXPECT_TRUE(tree.empty());
  tree.set(1, 5);
  EXPECT_FALSE(tree.empty());
  tree.erase(1);
  EXPECT_TRUE(tree.empty());
}

TEST(WinnerTree, ValueLimitShrinksWithSlotCount) {
  WinnerTree tree;
  tree.reset(1);
  EXPECT_EQ(tree.value_limit(), ~std::uint64_t{0});
  tree.reset(64);
  EXPECT_EQ(tree.value_limit(), (std::uint64_t{1} << 58) - 1);
  tree.reset(65);
  EXPECT_EQ(tree.value_limit(), (std::uint64_t{1} << 57) - 1);
  // The largest legal clock still orders correctly against a smaller one.
  tree.reset(64);
  tree.set(63, tree.value_limit() - 1);
  tree.set(0, tree.value_limit() - 1);
  EXPECT_EQ(tree.top_slot(), 0u);
  tree.erase(0);
  EXPECT_EQ(tree.top_slot(), 63u);
  EXPECT_FALSE(tree.empty());
}

}  // namespace
}  // namespace mcopt::sim
