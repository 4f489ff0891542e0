#include "kernels/jacobi.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace mcopt::kernels {
namespace {

TEST(JacobiGrid, ShapeAndLayout) {
  const arch::AddressMap map;
  auto grid = make_jacobi_grid(16, jacobi_optimal_spec(map));
  EXPECT_EQ(grid.num_segments(), 16u);
  EXPECT_EQ(grid.size(), 256u);
  // Optimal layout: rows aligned to 512 with cumulative 128-byte shift.
  for (std::size_t r = 0; r < 4; ++r)
    EXPECT_EQ(grid.address_of(r, 0) % 512, r * 128 % 512) << "row " << r;
  EXPECT_THROW(make_jacobi_grid(2, jacobi_plain_spec()), std::invalid_argument);
}

/// The Dirichlet rule, cell by cell: boundary 1.0, interior 0.0.
double dirichlet(std::size_t i, std::size_t j, std::size_t n) {
  return (i == 0 || i + 1 == n || j == 0 || j + 1 == n) ? 1.0 : 0.0;
}

constexpr unsigned char kUntouched = 0xA5;

TEST(JacobiInit, DirichletBoundary) {
  // Every byte of the allocation is either a row cell holding exactly the
  // per-cell rule's value, or padding that init_jacobi leaves alone.
  for (const bool optimal : {false, true})
    for (const std::size_t n : {3u, 4u, 5u, 8u, 17u}) {
      SCOPED_TRACE(testing::Message() << (optimal ? "optimal" : "plain")
                                      << " n=" << n);
      auto grid = make_jacobi_grid(
          n, optimal ? jacobi_optimal_spec(arch::AddressMap{})
                     : jacobi_plain_spec());
      auto* bytes = reinterpret_cast<unsigned char*>(grid.base_address());
      std::memset(bytes, kUntouched, grid.allocated_bytes());
      init_jacobi(grid);

      std::vector<unsigned char> want(grid.allocated_bytes(), kUntouched);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
          const double v = dirichlet(i, j, n);
          std::memcpy(&want[grid.segment_position(i) + j * sizeof(double)], &v,
                      sizeof v);
        }
      EXPECT_EQ(std::vector<unsigned char>(bytes, bytes + want.size()), want);
    }
}

TEST(JacobiInit, DenseGridMatchesPerCellRule) {
  for (const std::size_t n : {3u, 4u, 5u, 8u, 17u}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    // One guard cell on each side of the n x n grid stays untouched.
    std::vector<double> got(n * n + 2);
    std::memset(got.data(), kUntouched, got.size() * sizeof(double));
    std::vector<double> want = got;
    init_jacobi(got.data() + 1, n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        want[1 + i * n + j] = dirichlet(i, j, n);
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
  }
}

TEST(JacobiInit, BoundaryWritesOnlyTheFrame) {
  for (const std::size_t n : {3u, 4u, 5u, 8u, 17u}) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    // One guard cell on each side of the n x n grid stays untouched.
    std::vector<double> got(n * n + 2);
    std::memset(got.data(), kUntouched, got.size() * sizeof(double));
    std::vector<double> want = got;
    std::vector<double> full = got;
    init_jacobi_boundary(got.data() + 1, n);
    init_jacobi(full.data() + 1, n);
    // The frame is init_jacobi's; every interior byte keeps the sentinel.
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        if (i == 0 || i + 1 == n || j == 0 || j + 1 == n)
          want[1 + i * n + j] = full[1 + i * n + j];
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
  }
}

TEST(JacobiSweep, MatchesReferenceImplementation) {
  const std::size_t n = 24;
  auto src = make_jacobi_grid(n, jacobi_optimal_spec(arch::AddressMap{}));
  auto dst = make_jacobi_grid(n, jacobi_optimal_spec(arch::AddressMap{}));
  init_jacobi(src);
  init_jacobi(dst);

  std::vector<double> ref_src(n * n), ref_dst(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ref_dst[i * n + j] = ref_src[i * n + j] = src.segment(i)[j];

  for (int sweep = 0; sweep < 5; ++sweep) {
    jacobi_sweep_seconds(src, dst, sched::Schedule::static_chunk(1));
    jacobi_reference_sweep(ref_src, ref_dst, n);
    std::swap(src, dst);
    std::swap(ref_src, ref_dst);
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_NEAR(src.segment(i)[j], ref_src[i * n + j], 1e-14)
          << "(" << i << "," << j << ")";
}

TEST(JacobiSweep, ScheduleDoesNotChangeResult) {
  const std::size_t n = 20;
  auto run = [&](const sched::Schedule& schedule) {
    auto src = make_jacobi_grid(n, jacobi_plain_spec());
    auto dst = make_jacobi_grid(n, jacobi_plain_spec());
    init_jacobi(src);
    init_jacobi(dst);
    for (int sweep = 0; sweep < 4; ++sweep) {
      jacobi_sweep_seconds(src, dst, schedule);
      std::swap(src, dst);
    }
    return src;
  };
  const auto a = run(sched::Schedule::static_block());
  const auto b = run(sched::Schedule::static_chunk(1));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_DOUBLE_EQ(a.segment(i)[j], b.segment(i)[j]);
}

TEST(JacobiSweep, ConvergesTowardHarmonicSolution) {
  // With all-1 boundary and 0 interior, the solution is identically 1.
  const std::size_t n = 12;
  auto src = make_jacobi_grid(n, jacobi_plain_spec());
  auto dst = make_jacobi_grid(n, jacobi_plain_spec());
  init_jacobi(src);
  init_jacobi(dst);
  double delta = 1.0;
  for (int sweep = 0; sweep < 500 && delta > 1e-10; ++sweep) {
    jacobi_sweep_seconds(src, dst, sched::Schedule::static_block());
    delta = jacobi_max_delta(src, dst);
    std::swap(src, dst);
  }
  EXPECT_LE(delta, 1e-10);
  for (std::size_t i = 1; i + 1 < n; ++i)
    for (std::size_t j = 1; j + 1 < n; ++j)
      EXPECT_NEAR(src.segment(i)[j], 1.0, 1e-7);
}

TEST(JacobiMaxDelta, DetectsDifference) {
  auto a = make_jacobi_grid(5, jacobi_plain_spec());
  auto b = make_jacobi_grid(5, jacobi_plain_spec());
  init_jacobi(a);
  init_jacobi(b);
  EXPECT_DOUBLE_EQ(jacobi_max_delta(a, b), 0.0);
  b.segment(2)[2] = 0.5;
  EXPECT_DOUBLE_EQ(jacobi_max_delta(a, b), 0.5);
}

TEST(JacobiReference, RejectsBadSizes) {
  std::vector<double> a(9), b(16);
  EXPECT_THROW(jacobi_reference_sweep(a, b, 4), std::invalid_argument);
}

TEST(VirtualJacobi, LayoutMatchesNativeGrid) {
  const arch::AddressMap map;
  const auto spec = jacobi_optimal_spec(map);
  trace::VirtualArena arena;
  const auto virt = make_virtual_jacobi(arena, 10, spec);
  const auto native = make_jacobi_grid(10, spec);
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(virt.source.segment_base(r) - virt.source.base(),
              native.segment_position(r));
  }
  EXPECT_EQ(virt.grids().n, 10u);
  EXPECT_THROW(make_virtual_jacobi(arena, 2, spec), std::invalid_argument);
}

TEST(JacobiSpecs, PlainVsOptimalBalance) {
  // The planner's row layout spreads consecutive rows over all controllers;
  // the plain layout with a power-of-two row length does not.
  const arch::AddressMap map;
  trace::VirtualArena arena;
  const std::size_t n = 64;  // row = 512 bytes: worst case for plain
  const auto plain = make_virtual_jacobi(arena, n, jacobi_plain_spec());
  const auto opt = make_virtual_jacobi(arena, n, jacobi_optimal_spec(map));
  std::vector<arch::Addr> plain_rows, opt_rows;
  for (std::size_t r = 1; r <= 4; ++r) {
    plain_rows.push_back(plain.source.segment_base(r));
    opt_rows.push_back(opt.source.segment_base(r));
  }
  EXPECT_LE(map.lockstep_balance(plain_rows, 8), 0.26);
  EXPECT_GE(map.lockstep_balance(opt_rows, 8), 0.99);
}

TEST(JacobiRebuild, RowRebuildIsBitwiseExact) {
  const std::size_t n = 32;
  auto src = make_jacobi_grid(n, jacobi_plain_spec());
  auto dst = make_jacobi_grid(n, jacobi_plain_spec());
  init_jacobi(src);
  init_jacobi(dst);
  // A few sweeps so the field has non-trivial values.
  for (int sweep = 0; sweep < 5; ++sweep) {
    jacobi_sweep_seconds(src, dst, sched::Schedule::static_block());
    std::swap(src, dst);
  }
  // After the swap, `src` is the current field, `dst` the previous one.
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> expected(src.segment(s).begin(), src.segment(s).end());
    // Corrupt the row, then rebuild it from the previous field.
    for (std::size_t j = 0; j < n; ++j) src.segment(s)[j] = -1e308;
    jacobi_rebuild_row(src, dst, s);
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(src.segment(s)[j], expected[j]) << "row " << s << " col " << j;
  }
}

TEST(JacobiRebuild, RejectsMismatchedAndOutOfRange) {
  auto a = make_jacobi_grid(16, jacobi_plain_spec());
  auto b = make_jacobi_grid(16, jacobi_plain_spec());
  auto small = make_jacobi_grid(8, jacobi_plain_spec());
  EXPECT_THROW(jacobi_rebuild_row(a, small, 1), std::invalid_argument);
  EXPECT_THROW(jacobi_rebuild_row(a, b, 16), std::out_of_range);
}

}  // namespace
}  // namespace mcopt::kernels
