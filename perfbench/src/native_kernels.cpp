// native_kernels: host kernels through their public timing functions.
//
// Every config's working set is just above the host's 300 MiB L3, so the
// kernels are DRAM-bound; the runtime and the DES do no work here. Configs
// interleave round-robin (seeded order per round) so host bandwidth drift
// hits every config alike, and each item is the best of kSweeps sweeps —
// the STREAM convention, because shared memory bandwidth is the noisiest
// thing a host reports.

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "kernels/jacobi.h"
#include "kernels/lbm/solver.h"
#include "kernels/stream.h"
#include "kernels/triad.h"
#include "seg/aligned_buffer.h"
#include "seg/seg_array.h"
#include "trace/jacobi_program.h"
#include "util/crc.h"
#include "util/prng.h"

namespace perfbench {
namespace {

using namespace mcopt;

constexpr std::size_t kTriadN = 11u << 20;  ///< 4 arrays: 352 MiB
constexpr std::size_t kJacobiN = 4736;      ///< 2 grids: 342 MiB
constexpr std::size_t kLbmN = 104;          ///< 2 toggles of 106^3 x 19: 345 MiB
constexpr unsigned kSweeps = 5;             ///< sweeps per item (best-of)
constexpr unsigned kSetups = 3;             ///< set-up repetitions (median)
constexpr unsigned kVerifySteps = 2;        ///< fixed steps behind each golden
constexpr std::size_t kMiB = std::size_t{1} << 20;

/// Triad operands in one buffer laid out [b | c | d | a | e]: the triad
/// reads b, c, d and writes a; the copy roofline reads [b c] and writes
/// [a e], so both sweep 4*kTriadN doubles without disturbing triad inputs.
struct PlainArrays {
  seg::AlignedBuffer buf;
  double* b = nullptr;
  double* c = nullptr;
  double* d = nullptr;
  double* a = nullptr;  ///< followed by e, the copy's second half
};

void init_triad_inputs(double* b, double* c, double* d, std::size_t n,
                       std::size_t offset) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = static_cast<double>(i + offset);
    b[i] = 1.0 + 0.5 * x;
    c[i] = 2.0 - 1e-3 * x;
    d[i] = 0.25 + 1e-6 * x;
  }
}

kernels::lbm::Solver::Params lbm_params(kernels::lbm::DataLayout layout) {
  kernels::lbm::Solver::Params p;
  p.geometry = kernels::lbm::Geometry{kLbmN, kLbmN, kLbmN, 0, layout};
  p.force = {1e-5, 0.0, 0.0};
  p.fused_zy = true;
  return p;
}

std::unique_ptr<kernels::lbm::Solver> make_lbm(kernels::lbm::DataLayout layout) {
  auto s = std::make_unique<kernels::lbm::Solver>(lbm_params(layout));
  s->make_channel_walls_z();
  s->initialize();
  return s;
}

std::uint32_t crc_seg(const seg::seg_array<double>& a) {
  util::Crc32c crc;
  for (std::size_t s = 0; s < a.num_segments(); ++s)
    crc.update(a.segment(s).begin(), a.segment(s).size() * sizeof(double));
  return crc.value();
}

/// Everything the timed loop sweeps; built by set-up.
struct State {
  PlainArrays plain;
  seg::seg_array<double> sa, sb, sc, sd;
  seg::seg_array<double> jp_src, jp_dst, jo_src, jo_dst;
  std::unique_ptr<kernels::lbm::Solver> lbm_ijkv, lbm_ivjk;
  double seg_alloc_s = 0.0;
};

void build_state(State& st, unsigned threads) {
  st = State{};
  const std::size_t n = kTriadN;
  st.plain.buf = seg::AlignedBuffer(5 * n * sizeof(double), 2 * kMiB);
  auto* base = reinterpret_cast<double*>(st.plain.buf.data());
  st.plain.b = base;
  st.plain.c = base + n;
  st.plain.d = base + 2 * n;
  st.plain.a = base + 3 * n;
  init_triad_inputs(st.plain.b, st.plain.c, st.plain.d, n, 0);

  const auto t0 = Clock::now();
  seg::LayoutSpec spec;
  spec.base_align = 8192;
  spec.segment_align = 512;
  st.sa = seg::seg_array<double>::even(n, threads, spec);
  st.sb = seg::seg_array<double>::even(n, threads, spec);
  st.sc = seg::seg_array<double>::even(n, threads, spec);
  st.sd = seg::seg_array<double>::even(n, threads, spec);
  st.jp_src = kernels::make_jacobi_grid(kJacobiN, kernels::jacobi_plain_spec());
  st.jp_dst = kernels::make_jacobi_grid(kJacobiN, kernels::jacobi_plain_spec());
  const arch::AddressMap map{};
  st.jo_src = kernels::make_jacobi_grid(kJacobiN, kernels::jacobi_optimal_spec(map));
  st.jo_dst = kernels::make_jacobi_grid(kJacobiN, kernels::jacobi_optimal_spec(map));
  st.seg_alloc_s = seconds_since(t0);

  std::size_t off = 0;
  for (std::size_t s = 0; s < threads; ++s) {
    const std::size_t len = st.sb.segment(s).size();
    init_triad_inputs(st.sb.segment(s).begin(), st.sc.segment(s).begin(),
                      st.sd.segment(s).begin(), len, off);
    off += len;
  }
  for (auto* g : {&st.jp_src, &st.jp_dst, &st.jo_src, &st.jo_dst})
    kernels::init_jacobi(*g);
  st.lbm_ijkv = make_lbm(kernels::lbm::DataLayout::kIJKv);
  st.lbm_ivjk = make_lbm(kernels::lbm::DataLayout::kIvJK);
}

struct Config {
  const char* name;
  const char* rate_metric;  ///< per-layer rate name
  const char* rate_unit;
  double work_per_sweep;    ///< bytes (GB/s configs) or updates (MLUPs)
  double bytes_per_sweep;   ///< computed DRAM traffic per sweep
  double working_set;       ///< bytes the config sweeps over
  std::function<double()> sweep;  ///< one sweep, returns seconds
};

double jacobi_bytes(std::size_t n) {
  // Read the source grid once, write-allocate and write the destination.
  return 3.0 * 8.0 * static_cast<double>(n) * static_cast<double>(n);
}

double lbm_bytes() {
  // Per fluid cell: 19 loads, 19 stores with write-allocate.
  return 3.0 * 19.0 * 8.0 * static_cast<double>(kLbmN * kLbmN * kLbmN);
}

std::vector<Config> make_configs(State& st) {
  const double triad_bytes = static_cast<double>(kernels::triad_actual_bytes(kTriadN));
  const double copy_bytes = static_cast<double>(
      kernels::stream_actual_bytes(kernels::StreamOp::kCopy, 2 * kTriadN));
  const double jac_updates =
      static_cast<double>(trace::jacobi_updates_per_sweep(kJacobiN));
  const double lbm_cells = static_cast<double>(kLbmN * kLbmN * kLbmN);
  const double triad_ws = 4.0 * 8.0 * kTriadN;
  const double jacobi_ws = 2.0 * 8.0 * kJacobiN * kJacobiN;
  const double lbm_ws = 8.0 * static_cast<double>(
                                  lbm_params(kernels::lbm::DataLayout::kIJKv)
                                      .geometry.f_elems());
  std::vector<Config> c;
  c.push_back({"stream_copy", "kernels.stream_copy_gbs", "GB/s", copy_bytes,
               copy_bytes, triad_ws,
               [&st] {
                 // copy: c = a, here [a e] = [b c].
                 return kernels::stream_sweep_seconds(kernels::StreamOp::kCopy,
                                                      st.plain.b, st.plain.b,
                                                      st.plain.a, 2 * kTriadN, 1.0);
               }});
  c.push_back({"triad_plain", "kernels.triad_plain_gbs", "GB/s", triad_bytes,
               triad_bytes, triad_ws,
               [&st] {
                 return kernels::triad_plain_sweep_seconds(st.plain.a, st.plain.b,
                                                           st.plain.c, st.plain.d,
                                                           kTriadN);
               }});
  c.push_back({"triad_seg", "kernels.triad_seg_gbs", "GB/s", triad_bytes,
               triad_bytes, triad_ws,
               [&st] {
                 return kernels::triad_segmented_sweep_seconds(st.sa, st.sb, st.sc,
                                                               st.sd);
               }});
  c.push_back({"jacobi_plain", "kernels.jacobi_plain_mlups", "MLUP/s", jac_updates,
               jacobi_bytes(kJacobiN), jacobi_ws, [&st] {
                 const double s = kernels::jacobi_sweep_seconds(
                     st.jp_src, st.jp_dst, sched::Schedule::static_block());
                 std::swap(st.jp_src, st.jp_dst);
                 return s;
               }});
  c.push_back({"jacobi_opt", "kernels.jacobi_opt_mlups", "MLUP/s", jac_updates,
               jacobi_bytes(kJacobiN), jacobi_ws, [&st] {
                 const double s = kernels::jacobi_sweep_seconds(
                     st.jo_src, st.jo_dst, sched::Schedule::static_chunk(1));
                 std::swap(st.jo_src, st.jo_dst);
                 return s;
               }});
  c.push_back({"lbm_ijkv", "kernels.lbm_ijkv_mlups", "MLUP/s", lbm_cells,
               lbm_bytes(), lbm_ws,
               [&st] { return st.lbm_ijkv->step(); }});
  c.push_back({"lbm_ivjk", "kernels.lbm_ivjk_mlups", "MLUP/s", lbm_cells,
               lbm_bytes(), lbm_ws,
               [&st] { return st.lbm_ivjk->step(); }});
  return c;
}

/// Field checksums after a fixed number of steps from a fresh start. The
/// triad and copy outputs do not depend on how often they were swept; the
/// Jacobi grids are re-initialized and the LBM solvers rebuilt.
std::vector<std::pair<std::string, std::string>> verify(State& st) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto hex = [](std::uint32_t v) { return hex32(v); };
  (void)kernels::stream_sweep_seconds(kernels::StreamOp::kCopy, st.plain.b,
                                      st.plain.b, st.plain.a, 2 * kTriadN, 1.0);
  out.emplace_back("stream_copy",
                   hex(util::crc32c(st.plain.a, 2 * kTriadN * sizeof(double))));
  (void)kernels::triad_plain_sweep_seconds(st.plain.a, st.plain.b, st.plain.c,
                                           st.plain.d, kTriadN);
  out.emplace_back("triad_plain",
                   hex(util::crc32c(st.plain.a, kTriadN * sizeof(double))));
  (void)kernels::triad_segmented_sweep_seconds(st.sa, st.sb, st.sc, st.sd);
  out.emplace_back("triad_seg", hex(crc_seg(st.sa)));
  const auto jacobi = [&](seg::seg_array<double>& src, seg::seg_array<double>& dst,
                          const sched::Schedule& schedule) {
    kernels::init_jacobi(src);
    kernels::init_jacobi(dst);
    for (unsigned i = 0; i < kVerifySteps; ++i) {
      (void)kernels::jacobi_sweep_seconds(src, dst, schedule);
      std::swap(src, dst);
    }
    return hex(crc_seg(src));
  };
  out.emplace_back("jacobi_plain",
                   jacobi(st.jp_src, st.jp_dst, sched::Schedule::static_block()));
  out.emplace_back("jacobi_opt",
                   jacobi(st.jo_src, st.jo_dst, sched::Schedule::static_chunk(1)));
  const auto lbm = [&](std::unique_ptr<kernels::lbm::Solver>& solver,
                       kernels::lbm::DataLayout layout) {
    solver.reset();
    solver = make_lbm(layout);
    for (unsigned i = 0; i < kVerifySteps; ++i) (void)solver->step();
    const auto& f = solver->distributions();
    return hex(util::crc32c(f.data(), f.size() * sizeof(double)));
  };
  out.emplace_back("lbm_ijkv", lbm(st.lbm_ijkv, kernels::lbm::DataLayout::kIJKv));
  out.emplace_back("lbm_ivjk", lbm(st.lbm_ivjk, kernels::lbm::DataLayout::kIvJK));
  return out;
}

}  // namespace

Result run_native_kernels(const Options& opt, const Golden& golden, Spans& spans) {
  Result r;
  const auto threads = static_cast<unsigned>(omp_get_max_threads());
  auto st = std::make_unique<State>();
  std::vector<double> alloc_s;
  std::vector<double> setups;
  for (unsigned rep = 0; rep < kSetups; ++rep) {
    Scope s(spans, "setup", rep);
    const auto t0 = Clock::now();
    build_state(*st, threads);
    setups.push_back(seconds_since(t0));
    alloc_s.push_back(st->seg_alloc_s);
  }
  const double setup_s = median(setups);
  std::vector<Config> configs = make_configs(*st);
  const std::size_t nc = configs.size();

  std::vector<double> item_ms, fig5;
  std::vector<std::vector<double>> config_ms(nc);
  double traced_s = 0.0, untraced_s = 0.0, traced_b = 0.0, untraced_b = 0.0;
  util::Xoshiro256 rng(opt.seed);
  std::vector<std::size_t> order(nc);
  for (std::size_t i = 0; i < nc; ++i) order[i] = i;

  const auto t_start = Clock::now();
  unsigned round = 0;
  while (!opt.emit_golden &&
         (r.attempted < kMinItems || seconds_since(t_start) < opt.seconds)) {
    std::shuffle(order.begin(), order.end(), rng);
    spans.set_paused(round % 2 == 1);
    const auto t_round = Clock::now();
    double round_bytes = 0.0;
    std::vector<double> best_s(nc, 0.0);
    Scope round_span(spans, "kernels.round", round);
    for (const std::size_t idx : order) {
      Config& c = configs[idx];
      Scope item_span(spans, c.name, idx);
      double best = 1e300;
      for (unsigned k = 0; k < kSweeps; ++k) {
        Scope sweep_span(spans, "kernels.sweep", k);
        best = std::min(best, c.sweep());
      }
      best_s[idx] = best;
      item_ms.push_back(1e3 * best);
      config_ms[idx].push_back(1e3 * best);
      round_bytes += kSweeps * c.bytes_per_sweep;
      ++r.attempted;
    }
    fig5.push_back(best_s[1] / best_s[2]);  // plain / segmented time
    const double round_s = seconds_since(t_round);
    (round % 2 == 1 ? untraced_s : traced_s) += round_s;
    (round % 2 == 1 ? untraced_b : traced_b) += round_bytes;
    ++round;
  }
  spans.set_paused(false);

  // Single-thread plain triad baseline (traced runs only; after the window).
  double triad_1t_gbs = 0.0;
  if (spans.enabled()) {
    Scope s(spans, "kernels.triad_1t", 0);
    omp_set_num_threads(1);
    double best = 1e300;
    for (unsigned k = 0; k < kSweeps; ++k)
      best = std::min(best, kernels::triad_plain_sweep_seconds(
                                st->plain.a, st->plain.b, st->plain.c,
                                st->plain.d, kTriadN));
    omp_set_num_threads(static_cast<int>(threads));
    triad_1t_gbs = static_cast<double>(kernels::triad_actual_bytes(kTriadN)) / best / 1e9;
  }

  // Correctness: fixed-step field checksums against the golden table. A
  // config whose checksum is wrong fails every item it ran.
  std::uint64_t verified = 0;
  {
    Scope s(spans, "kernels.verify", 0);
    const auto sums = verify(*st);
    for (std::size_t i = 0; i < sums.size(); ++i) {
      const std::string key = "native." + sums[i].first;
      if (opt.emit_golden) r.golden_out[key] = sums[i].second;
      const std::size_t items = config_ms[i].size();
      if (golden.matches(key, sums[i].second)) {
        verified += items;
      } else {
        r.failed += items;
        if (!opt.emit_golden)
          r.notes.push_back(key + ": field crc " + sums[i].second +
                            " does not match golden");
      }
    }
  }
  r.correct = r.failed == 0;
  const double ok_frac = r.attempted == 0 ? 0.0
                                          : static_cast<double>(verified) /
                                                static_cast<double>(r.attempted);
  // Seven configs form seven clusters of item times (about 9, 9, 10, 12,
  // 14, 85 and 100 ms), and the three in the middle trade places as memory
  // bandwidth and CPU speed drift apart between runs. So: work rate = bytes
  // of one sweep of each config over the sum of the configs' median item
  // times; p50 = geometric mean of the configs' median item times (the
  // pooled median would sit on whichever middle config is fourth); p90 =
  // pooled 90th percentile of all items, which falls inside the slowest
  // config's cluster.
  double bytes = 0.0, median_s = 0.0, log_median = 0.0;
  for (std::size_t i = 0; i < nc; ++i) {
    const double m = median(config_ms[i]);
    bytes += configs[i].bytes_per_sweep;
    median_s += m / 1e3;
    log_median += std::log(m);
  }
  set_end_to_end(r, setup_s, usage_now().max_rss_mb, ok_frac, bytes / median_s, item_ms);
  r.end_to_end["item_p50_ms"].value = std::exp(log_median / static_cast<double>(nc));
  r.notes.push_back(
      "native_kernels: " + std::to_string(round) + " rounds, " +
      std::to_string(r.attempted) + " items (best of " + std::to_string(kSweeps) +
      " sweeps), " + std::to_string(threads) + " OpenMP threads; host L3 300 MiB");
  for (const Config& c : configs)
    r.notes.push_back(std::string(c.name) + ": working set " +
                      std::to_string(static_cast<long long>(c.working_set / kMiB)) +
                      " MiB, computed traffic " +
                      std::to_string(static_cast<long long>(c.bytes_per_sweep / kMiB)) +
                      " MiB/sweep");

  auto& L = r.per_layer;
  // Per-config rates at the config's median item time.
  const double copy_bps = configs[0].work_per_sweep / (median(config_ms[0]) / 1e3);
  for (std::size_t i = 0; i < nc; ++i) {
    const Config& c = configs[i];
    const double rate = c.work_per_sweep / (median(config_ms[i]) / 1e3);
    const bool gbs = std::string(c.rate_unit) == "GB/s";
    L[c.rate_metric] = {gbs ? rate / 1e9 : rate / 1e6, c.rate_unit};
    L[std::string("kernels.") + c.name + "_bytes_per_sweep"] = {c.bytes_per_sweep,
                                                                "B"};
    if (i > 0) {
      const double bps = rate * c.bytes_per_sweep / c.work_per_sweep;
      L[std::string("kernels.") + c.name + "_roofline_frac"] = {bps / copy_bps,
                                                                "frac"};
    }
  }
  L["kernels.fig5_ratio"] = {median(fig5), "ratio"};
  L["kernels.fig5_ratio_iqr"] = {quantile(fig5, 0.75) - quantile(fig5, 0.25), "ratio"};
  L["kernels.triad_1t_gbs"] = {triad_1t_gbs, "GB/s"};
  L["seg.alloc_s"] = {median(alloc_s), "s"};
  if (spans.enabled() && traced_s > 0.0 && untraced_s > 0.0)
    L["obs.bench_trace_overhead_pct"] = {
        100.0 * ((untraced_b / untraced_s) / (traced_b / traced_s) - 1.0), "%"};
  return r;
}

}  // namespace perfbench
