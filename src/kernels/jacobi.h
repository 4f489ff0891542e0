#pragma once
// 2D Jacobi five-point relaxation solver (Sect. 2.3).
//
// The grid is a seg_array with one row per segment, so the row layout is
// governed by the Fig. 3 parameters; the paper's optimal configuration
// (512 B row alignment, 128 B cumulative shift, OpenMP "static,1") comes
// from seg::plan_row_layout. Native OpenMP execution for correctness and
// host measurements; trace::make_jacobi_workload replays the same loop on
// the simulator for Fig. 6.

#include <cstddef>
#include <vector>

#include "seg/planner.h"
#include "seg/seg_array.h"
#include "sched/schedule.h"
#include "trace/jacobi_program.h"
#include "trace/virtual_arena.h"

namespace mcopt::kernels {

/// The paper's serial row kernel: dl[j] = 0.25*(sa[j]+sb[j]+sl[j-1]+sl[j+1])
/// for j in [1, n-1). sa/sb are the rows above/below, sl the current row.
void relax_line(double* dl, const double* sa, const double* sb,
                const double* sl, std::size_t n) noexcept;

/// Builds an n x n grid with one row per segment under `spec`.
[[nodiscard]] seg::seg_array<double> make_jacobi_grid(std::size_t n,
                                                      const seg::LayoutSpec& spec);

/// Dirichlet setup: boundary = 1, interior = 0.
void init_jacobi(seg::seg_array<double>& grid);

/// The same Dirichlet setup on a dense row-major n x n grid (n >= 1), the
/// layout the executor's job bodies use.
void init_jacobi(double* grid, std::size_t n) noexcept;

/// Only the frame of that dense setup: rows 0 and n-1 and columns 0 and n-1
/// are set to 1.0 and the interior is left untouched. Enough for a sweep's
/// destination grid, whose interior relax_line writes before anything reads
/// it (n >= 1).
void init_jacobi_boundary(double* grid, std::size_t n) noexcept;

/// One OpenMP sweep src -> dst over interior rows; `schedule` maps to the
/// matching OpenMP runtime schedule. Returns wall seconds.
double jacobi_sweep_seconds(const seg::seg_array<double>& src,
                            seg::seg_array<double>& dst,
                            const sched::Schedule& schedule);

/// Max-norm of the difference between two grids (convergence monitor).
[[nodiscard]] double jacobi_max_delta(const seg::seg_array<double>& a,
                                      const seg::seg_array<double>& b);

/// Bitwise-exact rebuild of row `s` of `field`, where `field` is the result
/// of one sweep over `prev`: boundary rows/columns are the Dirichlet
/// condition (1.0) and interior values re-run relax_line on prev's rows
/// s-1, s, s+1. This is the integrity layer's Jacobi rebuild recipe — a
/// corrupted row of the current grid is recoverable from the previous one
/// without recomputing the sweep.
void jacobi_rebuild_row(seg::seg_array<double>& field,
                        const seg::seg_array<double>& prev, std::size_t s);

/// Reference dense sweep for correctness tests (row-major n*n vectors).
void jacobi_reference_sweep(const std::vector<double>& src,
                            std::vector<double>& dst, std::size_t n);

/// Owning bundle of the two virtual toggle grids for simulator runs.
struct VirtualJacobi {
  trace::VirtualSegArray source;
  trace::VirtualSegArray dest;
  std::size_t n = 0;

  [[nodiscard]] trace::JacobiGrids grids() const {
    return trace::JacobiGrids{&source, &dest, n};
  }
};

/// Builds virtual toggle grids (one row per segment) under `spec`.
[[nodiscard]] VirtualJacobi make_virtual_jacobi(trace::VirtualArena& arena,
                                                std::size_t n,
                                                const seg::LayoutSpec& spec);

/// The two Fig. 6 layout presets: plain (dense rows, no alignment) and the
/// planner's optimal row layout.
[[nodiscard]] seg::LayoutSpec jacobi_plain_spec();
[[nodiscard]] seg::LayoutSpec jacobi_optimal_spec(const arch::AddressMap& map);

}  // namespace mcopt::kernels
