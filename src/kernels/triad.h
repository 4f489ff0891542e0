#pragma once
// Schönauer vector triad A(:) = B(:) + C(:)*D(:) (Sect. 2.2), the paper's
// vehicle for the seg_array framework:
//
//  * triad() is the generic dispatching algorithm from the paper: it accepts
//    either segmented iterators (recursing into raw local loops) or plain
//    pointers/iterators, with identical inner-loop code generation — the
//    claim Fig. 5 substantiates;
//  * run_triad_* are OpenMP drivers for the plain and segmented variants;
//  * make_triad_workload / triad_layout_bases reproduce the Fig. 4 layout
//    experiments on the simulator (plain malloc, page-aligned pessimal,
//    page-aligned with planned offsets).

#include <cstddef>
#include <vector>

#include "seg/algorithms.h"
#include "seg/planner.h"
#include "seg/seg_array.h"
#include "sched/schedule.h"
#include "sim/program.h"
#include "trace/stream_program.h"
#include "trace/virtual_arena.h"

namespace mcopt::kernels {

/// Serial triad over raw local ranges: a[i] = b[i] + c[i]*d[i].
/// This is the separately compilable low-level kernel of the paper.
void triad_local(double* a, const double* b, const double* c, const double* d,
                 std::size_t n) noexcept;

/// The executor's triad job inputs, b[i] = 1 + 0.5*i, c[i] = 2 - 1e-3*i and
/// d[i] = 0.25 + 1e-6*i, written one array per pass.
void init_triad(double* b, double* c, double* d, std::size_t n) noexcept;

/// Generic dispatching triad: segmented overload recurses segment-wise into
/// triad_local; all four sequences must be segment-compatible (equal segment
/// sizes), which seg_array::even guarantees for equal (n, parts, ...).
template <seg::SegmentedIterator It, typename CIt>
void triad(It a_first, It a_last, CIt b_first, CIt c_first, CIt d_first) {
  auto bs = b_first.segment();
  auto cs = c_first.segment();
  auto ds = d_first.segment();
  seg::for_each_local_range(a_first, a_last, [&](double* lo, double* hi) {
    triad_local(lo, bs->begin(), cs->begin(), ds->begin(),
                static_cast<std::size_t>(hi - lo));
    ++bs;
    ++cs;
    ++ds;
  });
}

/// Plain-iterator overload: one tight loop.
inline void triad(double* a_first, double* a_last, const double* b_first,
                  const double* c_first, const double* d_first) {
  triad_local(a_first, b_first, c_first, d_first,
              static_cast<std::size_t>(a_last - a_first));
}

/// One OpenMP-parallel sweep over plain arrays; returns wall seconds.
double triad_plain_sweep_seconds(double* a, const double* b, const double* c,
                                 const double* d, std::size_t n);

/// One OpenMP-parallel sweep over seg_arrays, parallelized over segments the
/// paper's way (one segment per thread, manual scheduling); returns seconds.
double triad_segmented_sweep_seconds(seg::seg_array<double>& a,
                                     const seg::seg_array<double>& b,
                                     const seg::seg_array<double>& c,
                                     const seg::seg_array<double>& d);

/// Bytes of actual memory traffic per sweep (3 reads + RFO + write = 5 words
/// per iteration; the paper's Fig. 4 GB/s counts this traffic).
[[nodiscard]] std::uint64_t triad_actual_bytes(std::size_t n);

/// Layout presets of Fig. 4.
enum class TriadLayout {
  kPlain,          ///< consecutive malloc-like allocations, no constraints
  kAligned8k,      ///< all four arrays page-aligned (pessimal, full aliasing)
  kPlannedOffsets  ///< page-aligned plus planner offsets k*(period/4)
};

/// Base addresses of arrays A, B, C, D under a Fig. 4 layout preset.
/// `offset_scale` multiplies the planned offsets (Fig. 4 also shows 32 B and
/// 64 B variants; 128 B = period/4 is the optimum).
[[nodiscard]] std::vector<arch::Addr> triad_layout_bases(
    trace::VirtualArena& arena, TriadLayout layout, std::size_t n,
    const arch::AddressMap& map, std::size_t offset_scale_bytes = 128);

/// Simulator workload for the vector triad with the given array bases
/// (order A, B, C, D).
[[nodiscard]] sim::Workload make_triad_workload(const std::vector<arch::Addr>& bases,
                                                std::size_t n, unsigned num_threads,
                                                const sched::Schedule& schedule,
                                                unsigned sweeps = 1);

}  // namespace mcopt::kernels
