#include "kernels/triad.h"

#include <algorithm>
#include <stdexcept>

#include "util/timer.h"

namespace mcopt::kernels {

void triad_local(double* a, const double* b, const double* c, const double* d,
                 std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + c[i] * d[i];
}

void init_triad(double* b, double* c, double* d, std::size_t n) noexcept {
  // The baseline x86-64 target has no vector size_t -> double conversion,
  // so the index is split into a chunk base and an int offset, which SSE2
  // converts two at a time. base + j is exact (every index is below 2^53),
  // so each value equals the one computed from static_cast<double>(i).
  constexpr std::size_t kChunk = std::size_t{1} << 30;
  for (std::size_t base = 0; base < n; base += kChunk) {
    const int len = static_cast<int>(std::min(kChunk, n - base));
    const auto x0 = static_cast<double>(base);
    double* const bc = b + base;
    double* const cc = c + base;
    double* const dc = d + base;
    for (int j = 0; j < len; ++j) bc[j] = 1.0 + 0.5 * (x0 + j);
    for (int j = 0; j < len; ++j) cc[j] = 2.0 - 1e-3 * (x0 + j);
    for (int j = 0; j < len; ++j) dc[j] = 0.25 + 1e-6 * (x0 + j);
  }
}

double triad_plain_sweep_seconds(double* a, const double* b, const double* c,
                                 const double* d, std::size_t n) {
  const auto sn = static_cast<std::ptrdiff_t>(n);
  util::Timer timer;
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < sn; ++i) a[i] = b[i] + c[i] * d[i];
  return timer.seconds();
}

double triad_segmented_sweep_seconds(seg::seg_array<double>& a,
                                     const seg::seg_array<double>& b,
                                     const seg::seg_array<double>& c,
                                     const seg::seg_array<double>& d) {
  const auto segments = static_cast<std::ptrdiff_t>(a.num_segments());
  if (b.num_segments() != a.num_segments() ||
      c.num_segments() != a.num_segments() ||
      d.num_segments() != a.num_segments())
    throw std::invalid_argument("triad_segmented: segment count mismatch");
  util::Timer timer;
  // The paper's structure: OpenMP over segments, serial kernel per segment.
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t s = 0; s < segments; ++s) {
    const auto us = static_cast<std::size_t>(s);
    auto& seg_a = a.segment(us);
    triad_local(seg_a.begin(), b.segment(us).begin(), c.segment(us).begin(),
                d.segment(us).begin(), seg_a.size());
  }
  return timer.seconds();
}

std::uint64_t triad_actual_bytes(std::size_t n) {
  return 5ull * sizeof(double) * static_cast<std::uint64_t>(n);
}

std::vector<arch::Addr> triad_layout_bases(trace::VirtualArena& arena,
                                           TriadLayout layout, std::size_t n,
                                           const arch::AddressMap& map,
                                           std::size_t offset_scale_bytes) {
  const std::size_t bytes = n * sizeof(double);
  std::vector<arch::Addr> bases(4);
  switch (layout) {
    case TriadLayout::kPlain:
      for (auto& base : bases) base = arena.malloc_like(bytes);
      break;
    case TriadLayout::kAligned8k:
      for (auto& base : bases) base = arena.allocate(bytes, 8192);
      break;
    case TriadLayout::kPlannedOffsets: {
      // Planner recipe: array k displaced by k * (period/4); with the
      // default 128 B scale that is the paper's optimal 0/128/256/384 B.
      const std::size_t period = map.spec().period_bytes();
      for (std::size_t k = 0; k < bases.size(); ++k) {
        const std::size_t offset = k * offset_scale_bytes % period;
        bases[k] = arena.allocate(bytes + offset, 8192) + offset;
      }
      break;
    }
  }
  return bases;
}

sim::Workload make_triad_workload(const std::vector<arch::Addr>& bases,
                                  std::size_t n, unsigned num_threads,
                                  const sched::Schedule& schedule,
                                  unsigned sweeps) {
  if (bases.size() != 4)
    throw std::invalid_argument("make_triad_workload: need bases A,B,C,D");
  // Loads B, C, D then the store to A carrying the mul+add.
  const std::vector<trace::StreamDesc> streams = {
      {bases[1], false, 0},
      {bases[2], false, 0},
      {bases[3], false, 0},
      {bases[0], true, 2},
  };
  return trace::make_lockstep_workload(streams, sizeof(double), n, num_threads,
                                       schedule, sweeps);
}

}  // namespace mcopt::kernels
