#include "kernels/triad.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

namespace mcopt::kernels {
namespace {

seg::LayoutSpec spec512() {
  seg::LayoutSpec spec;
  spec.base_align = 8192;
  spec.segment_align = 512;
  return spec;
}

TEST(TriadLocal, ComputesMulAdd) {
  std::vector<double> a(8, 0.0), b(8, 1.0), c(8, 2.0), d(8, 3.0);
  triad_local(a.data(), b.data(), c.data(), d.data(), 8);
  for (double v : a) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(TriadInit, MatchesPerElementFormulaBitForBit) {
  for (const std::size_t n : {1u, 2u, 3u, 7u, 16384u}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    // b, c and d back to back with a guard word around each, all 0xA5 bytes.
    const std::size_t stride = n + 2;
    std::vector<double> got(3 * stride);
    std::memset(got.data(), 0xA5, got.size() * sizeof(double));
    std::vector<double> want = got;
    init_triad(got.data() + 1, got.data() + stride + 1,
               got.data() + 2 * stride + 1, n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto x = static_cast<double>(i);
      want[1 + i] = 1.0 + 0.5 * x;
      want[stride + 1 + i] = 2.0 - 1e-3 * x;
      want[2 * stride + 1 + i] = 0.25 + 1e-6 * x;
    }
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
  }
}

TEST(TriadGeneric, PlainPointerOverload) {
  std::vector<double> a(5, 0.0), b(5, 2.0), c(5, 4.0), d(5, 0.5);
  triad(a.data(), a.data() + 5, b.data(), c.data(), d.data());
  for (double v : a) EXPECT_DOUBLE_EQ(v, 4.0);
}

TEST(TriadGeneric, SegmentedOverloadMatchesPlain) {
  const std::size_t n = 1000;
  auto make = [&](double fill) {
    auto arr = seg::seg_array<double>::even(n, 7, spec512());
    seg::fill(arr.begin(), arr.end(), fill);
    return arr;
  };
  auto a = make(0.0);
  const auto b = make(1.5);
  const auto c = make(2.0);
  const auto d = make(3.0);
  triad(a.begin(), a.end(), b.begin(), c.begin(), d.begin());
  for (double v : a) ASSERT_DOUBLE_EQ(v, 7.5);
}

TEST(TriadNative, PlainSweepComputes) {
  const std::size_t n = 4096;
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0), d(n, 3.0);
  const double secs = triad_plain_sweep_seconds(a.data(), b.data(), c.data(),
                                                d.data(), n);
  EXPECT_GT(secs, 0.0);
  for (double v : a) ASSERT_DOUBLE_EQ(v, 7.0);
}

TEST(TriadNative, SegmentedSweepMatchesPlain) {
  const std::size_t n = 10000;
  auto a = seg::seg_array<double>::even(n, 8, spec512());
  auto b = seg::seg_array<double>::even(n, 8, spec512());
  auto c = seg::seg_array<double>::even(n, 8, spec512());
  auto d = seg::seg_array<double>::even(n, 8, spec512());
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = double(i);
    c[i] = 2.0;
    d[i] = 0.5 * double(i);
  }
  const double secs = triad_segmented_sweep_seconds(a, b, c, d);
  EXPECT_GT(secs, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_DOUBLE_EQ(a[i], double(i) + double(i));
}

TEST(TriadNative, SegmentedRejectsMismatchedSegmentCounts) {
  auto a = seg::seg_array<double>::even(100, 4, spec512());
  auto b = seg::seg_array<double>::even(100, 5, spec512());
  auto c = seg::seg_array<double>::even(100, 4, spec512());
  auto d = seg::seg_array<double>::even(100, 4, spec512());
  EXPECT_THROW(triad_segmented_sweep_seconds(a, b, c, d), std::invalid_argument);
}

TEST(TriadBytes, FiveWordsPerIteration) {
  EXPECT_EQ(triad_actual_bytes(100), 100u * 5 * 8);
}

TEST(TriadLayouts, PlainIsMallocContiguous) {
  trace::VirtualArena arena;
  const arch::AddressMap map;
  const auto bases = triad_layout_bases(arena, TriadLayout::kPlain, 1 << 16, map);
  ASSERT_EQ(bases.size(), 4u);
  // Blocks packed back to back with 16-byte headers.
  EXPECT_EQ(bases[1] - bases[0], (1ull << 19) + 16);
}

TEST(TriadLayouts, Aligned8kIsPessimal) {
  trace::VirtualArena arena;
  const arch::AddressMap map;
  const auto bases = triad_layout_bases(arena, TriadLayout::kAligned8k, 1000, map);
  for (arch::Addr base : bases) {
    EXPECT_EQ(base % 8192, 0u);
    EXPECT_EQ(map.controller_of(base), map.controller_of(bases[0]));
  }
}

TEST(TriadLayouts, PlannedOffsetsCoverAllControllers) {
  trace::VirtualArena arena;
  const arch::AddressMap map;
  const auto bases =
      triad_layout_bases(arena, TriadLayout::kPlannedOffsets, 1000, map);
  std::set<unsigned> controllers;
  for (arch::Addr base : bases) controllers.insert(map.controller_of(base));
  EXPECT_EQ(controllers.size(), 4u);
  // The paper's offsets: B, C, D shifted by 128, 256, 384 bytes.
  EXPECT_EQ(bases[1] % 8192, 128u);
  EXPECT_EQ(bases[2] % 8192, 256u);
  EXPECT_EQ(bases[3] % 8192, 384u);
}

TEST(TriadWorkload, StreamsAndFlops) {
  const std::vector<arch::Addr> bases = {0, 1 << 20, 2 << 20, 3 << 20};
  auto wl = make_triad_workload(bases, 100, 4, sched::Schedule::static_block());
  ASSERT_EQ(wl.size(), 4u);
  std::uint64_t total = 0;
  for (const auto& p : wl) total += p->total_accesses();
  EXPECT_EQ(total, 100u * 4);
  EXPECT_THROW(make_triad_workload({0, 1, 2}, 10, 2,
                                   sched::Schedule::static_block()),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcopt::kernels
