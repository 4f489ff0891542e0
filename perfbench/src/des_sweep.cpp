// des_sweep: repeated discrete-event simulator items, no runtime code.
//
// Chip::run (and Node::run) does almost all the work, so a DES hot-path
// change moves this workload and no other. The 8T/64T pairs separate
// event-heap cost (more strands, deeper heap) from per-access cost; the
// fault/cadence item adds epoch and sample boundaries; the supervised item
// adds slicing, supervision and migration around the node DES.

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/address_map.h"
#include "arch/numa.h"
#include "common.h"
#include "kernels/jacobi.h"
#include "kernels/lbm/trace_program.h"
#include "kernels/stream.h"
#include "kernels/triad.h"
#include "runtime/numa_loop.h"
#include "seg/planner.h"
#include "sim/analytic.h"
#include "sim/chip.h"
#include "sim/fault_schedule.h"
#include "sim/node.h"
#include "trace/jacobi_program.h"
#include "trace/virtual_arena.h"
#include "util/prng.h"

namespace perfbench {
namespace {

using namespace mcopt;

constexpr std::size_t kFig2N = 32768;       ///< STREAM triad elements
constexpr std::size_t kJacobiN = 512;       ///< Fig. 6 grid edge
constexpr std::size_t kLbmN = 46;           ///< Fig. 7 box edge
constexpr std::size_t kNodeN = 8192;        ///< triad elements per socket
constexpr unsigned kNodeThreads = 16;       ///< strands per socket
constexpr unsigned kNodeSweeps = 4;
constexpr std::size_t kLoopN = 4096;        ///< supervised job elements
constexpr unsigned kLoopSlices = 12;
constexpr arch::Cycles kCadence = 20000;    ///< fault item sample cadence
constexpr unsigned kItemReps = 3;           ///< runs per item (best-of)
constexpr unsigned kSetups = 15;            ///< set-up repetitions (median)
const char* const kFaultSchedule = "mc1:off@25%..75%";
const char* const kSocketSchedule = "sock1:off@50%";

/// What one item produced; `residual_pct` is set for items with an
/// analytic model.
struct Outcome {
  std::uint64_t hash = 0;
  std::uint64_t accesses = 0;
  sim::CacheStats l1, l2;
  double mc_busy_max = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  bool has_residual = false;
  double residual_pct = 0.0;
  unsigned replans = 0;
};

void hash_result(Fnv& h, const sim::SimResult& r) {
  h.add(r.total_cycles);
  h.add(r.accesses);
  h.add(r.loads);
  h.add(r.stores);
  h.add(r.flops);
  for (const sim::CacheStats* c : {&r.l1, &r.l2}) {
    h.add(c->hits);
    h.add(c->misses);
    h.add(c->evictions);
    h.add(c->writebacks);
  }
  for (const sim::McStats& m : r.mc) {
    h.add(m.reads);
    h.add(m.writes);
    h.add(m.turnarounds);
    h.add(m.row_hits);
    h.add(m.row_conflicts);
    h.add(m.busy_cycles);
    h.add(m.last_completion);
  }
  h.add(r.mem_read_bytes);
  h.add(r.mem_write_bytes);
  h.add(r.remote_read_bytes);
  h.add(r.remote_write_bytes);
  for (const arch::Cycles c : r.thread_finish) h.add(c);
  h.add(r.epochs.size());
  for (const auto& e : r.epochs) {
    h.add(e.begin);
    h.add(e.end);
    h.add(e.mem_read_bytes);
    h.add(e.mem_write_bytes);
  }
  h.add(r.mc_timeline.size());
  for (const auto& row : r.mc_timeline)
    for (const double u : row.utilization) h.add_double(u);
}

void absorb_chip(Outcome& o, const sim::SimResult& r) {
  o.accesses += r.accesses;
  o.l1.hits += r.l1.hits;
  o.l1.misses += r.l1.misses;
  o.l2.hits += r.l2.hits;
  o.l2.misses += r.l2.misses;
  for (const double u : r.mc_utilization) o.mc_busy_max = std::max(o.mc_busy_max, u);
}

double residual_pct(double model, double des) {
  return des > 0.0 ? 100.0 * (model - des) / des : 0.0;
}

std::vector<sim::AnalyticStream> triad_streams(const std::vector<arch::Addr>& b) {
  const std::vector<sim::AnalyticStream> logical = {
      {b[0], true}, {b[1], false}, {b[2], false}, {b[3], false}};
  return sim::expand_rfo(logical);
}

std::vector<sim::AnalyticStream> stream_triad_streams(const kernels::StreamBases& b) {
  std::vector<sim::AnalyticStream> logical;
  for (const auto& d : kernels::stream_descs(kernels::StreamOp::kTriad, b))
    logical.push_back({d.base, d.write});
  return sim::expand_rfo(logical);
}

struct Item {
  std::string name;
  std::function<Outcome()> run;
};

/// Fig. 2: STREAM triad in the COMMON-block layout at `offset` DP words.
Outcome run_fig2(unsigned threads, std::size_t offset, const sim::SimConfig& cfg) {
  Outcome o;
  auto t0 = Clock::now();
  trace::VirtualArena arena;
  const arch::Addr block = arena.allocate(3 * (kFig2N + offset) * 8, 8192);
  const auto bases = kernels::common_block_bases(block, kFig2N, offset);
  auto wl = kernels::make_stream_workload(kernels::StreamOp::kTriad, bases,
                                          kFig2N, threads,
                                          sched::Schedule::static_block());
  sim::Chip chip(cfg, arch::equidistant_placement(threads, cfg.topology));
  o.build_s = seconds_since(t0);
  t0 = Clock::now();
  const sim::SimResult res = chip.run(wl);
  o.run_s = seconds_since(t0);
  Fnv h;
  hash_result(h, res);
  o.hash = h.value();
  absorb_chip(o, res);
  const arch::AddressMap map(cfg.interleave);
  const auto streams = stream_triad_streams(bases);
  const double model =
      cfg.fault_schedule.empty()
          ? sim::estimate_bandwidth(streams, threads, cfg.calibration, map,
                                    cfg.topology.clock_ghz, cfg.faults)
                .bandwidth
          : sim::estimate_bandwidth_scheduled(streams, threads, cfg.calibration,
                                              map, cfg.topology.clock_ghz,
                                              cfg.faults, cfg.fault_schedule,
                                              res.total_cycles)
                .whole.bandwidth;
  o.has_residual = true;
  o.residual_pct = residual_pct(model, res.memory_bandwidth());
  return o;
}

/// Fig. 6: one 64-thread Jacobi sweep under a row layout and schedule.
Outcome run_fig6(const seg::LayoutSpec& spec, const sched::Schedule& schedule,
                 const sim::SimConfig& cfg) {
  Outcome o;
  auto t0 = Clock::now();
  trace::VirtualArena arena;
  const auto grids = kernels::make_virtual_jacobi(arena, kJacobiN, spec);
  auto wl = trace::make_jacobi_workload(grids.grids(), 64, schedule, 1);
  sim::Chip chip(cfg, arch::equidistant_placement(64, cfg.topology));
  o.build_s = seconds_since(t0);
  t0 = Clock::now();
  const sim::SimResult res = chip.run(wl);
  o.run_s = seconds_since(t0);
  Fnv h;
  hash_result(h, res);
  o.hash = h.value();
  absorb_chip(o, res);
  return o;
}

/// Fig. 7: one 64-thread D3Q19 step, IJKv, coalesced z/y loop.
Outcome run_fig7(const sim::SimConfig& cfg) {
  using namespace kernels::lbm;
  Outcome o;
  auto t0 = Clock::now();
  const Geometry g{kLbmN, kLbmN, kLbmN, 0, DataLayout::kIJKv};
  trace::VirtualArena arena;
  LbmAddresses addr;
  addr.f_base = arena.allocate(g.f_elems() * 8, 8192);
  addr.mask_base = arena.allocate(g.cells(), 8192);
  auto wl = make_lbm_workload(g, addr, LoopOrder::kCoalescedZY, 64,
                              sched::Schedule::static_block(), 1);
  sim::Chip chip(cfg, arch::equidistant_placement(64, cfg.topology));
  o.build_s = seconds_since(t0);
  t0 = Clock::now();
  const sim::SimResult res = chip.run(wl);
  o.run_s = seconds_since(t0);
  Fnv h;
  hash_result(h, res);
  o.hash = h.value();
  absorb_chip(o, res);
  return o;
}

sim::NodeConfig two_socket_config() {
  sim::NodeConfig cfg;
  cfg.node.num_sockets = 2;
  cfg.validate();
  return cfg;
}

/// 2-socket node, planner's local placement, one triad job per socket.
Outcome run_node_local(const sim::NodeConfig& cfg) {
  Outcome o;
  auto t0 = Clock::now();
  const arch::AddressMap map(cfg.sim.interleave);
  const seg::NodeStreamPlan plan = seg::plan_node_stream_shards(4, map, cfg.node);
  std::vector<sim::Workload> wls(cfg.node.num_sockets);
  std::vector<std::vector<sim::AnalyticStream>> streams(cfg.node.num_sockets);
  std::vector<unsigned> threads(cfg.node.num_sockets, kNodeThreads);
  for (const auto& shard : plan.shards) {
    wls[shard.compute_socket] = kernels::make_triad_workload(
        shard.bases, kNodeN, kNodeThreads, sched::Schedule::static_block(),
        kNodeSweeps);
    streams[shard.compute_socket] = triad_streams(shard.bases);
  }
  sim::Node node(cfg);
  o.build_s = seconds_since(t0);
  t0 = Clock::now();
  const sim::NodeResult res = node.run(wls);
  o.run_s = seconds_since(t0);
  Fnv h;
  h.add(res.total_cycles);
  for (const sim::SimResult& s : res.sockets) {
    hash_result(h, s);
    absorb_chip(o, s);
  }
  o.hash = h.value();
  const double model =
      sim::estimate_node_bandwidth(streams, threads, cfg.sim.calibration, map,
                                   cfg.node, cfg.sim.topology.clock_ghz)
          .bandwidth;
  o.has_residual = true;
  o.residual_pct = residual_pct(model, res.memory_bandwidth());
  return o;
}

/// Everything set-up resolves once: percent-stamped fault schedules need a
/// healthy horizon, which costs one healthy DES run each.
struct Plan {
  sim::SimConfig chip;
  sim::SimConfig faulted;
  sim::NodeConfig node;
  runtime::NodeLoopConfig loop;
  std::uint64_t loop_accesses = 0;  ///< kernel accesses of the loop's sweeps
  std::vector<Item> items;
};

sim::FaultSchedule parse_schedule(const char* text, arch::Cycles horizon) {
  auto parsed = sim::FaultSchedule::parse(text);
  if (!parsed) throw std::invalid_argument(parsed.error().message);
  return parsed.value().resolved(horizon);
}

/// Fills `p` in place: the item closures capture p's members by reference.
void build_plan(Plan& p) {
  p.chip.validate();
  {
    trace::VirtualArena arena;
    const arch::Addr block = arena.allocate(3 * kFig2N * 8, 8192);
    const auto bases = kernels::common_block_bases(block, kFig2N, 0);
    auto wl = kernels::make_stream_workload(kernels::StreamOp::kTriad, bases,
                                            kFig2N, 64,
                                            sched::Schedule::static_block());
    sim::Chip chip(p.chip, arch::equidistant_placement(64, p.chip.topology));
    const arch::Cycles horizon = chip.run(wl).total_cycles;
    p.faulted = p.chip;
    p.faulted.fault_schedule = parse_schedule(kFaultSchedule, horizon);
    p.faulted.mc_sample_cadence = kCadence;
    p.faulted.validate();
  }
  p.node = two_socket_config();
  p.loop.node = p.node;
  p.loop.threads = kNodeThreads;
  p.loop.slices = kLoopSlices;
  p.loop.supervise = false;
  const arch::Cycles healthy =
      runtime::run_supervised_node_triad(kLoopN, p.loop).total_cycles;
  p.loop.node.sim.fault_schedule = parse_schedule(kSocketSchedule, healthy);
  p.loop.supervise = true;
  if (const util::Status s = p.loop.check(); !s.ok())
    throw std::invalid_argument(s.error().message);
  {
    // Kernel accesses of the loop: every slice sweeps each socket's job once.
    const std::vector<arch::Addr> bases = {0, 1u << 24, 2u << 24, 3u << 24};
    const auto wl = kernels::make_triad_workload(
        bases, kLoopN, kNodeThreads, sched::Schedule::static_block(), kLoopSlices);
    for (const auto& prog : wl) p.loop_accesses += prog->total_accesses();
    p.loop_accesses *= p.node.node.num_sockets;
  }

  const arch::AddressMap map(p.chip.interleave);
  for (const unsigned t : {8u, 64u})
    for (const std::size_t off : {std::size_t{0}, std::size_t{8}, std::size_t{32}})
      p.items.push_back({"fig2_t" + std::to_string(t) + "_o" + std::to_string(off),
                         [&cfg = p.chip, t, off] { return run_fig2(t, off, cfg); }});
  p.items.push_back({"fig6_plain", [&cfg = p.chip] {
                       return run_fig6(kernels::jacobi_plain_spec(),
                                       sched::Schedule::static_block(), cfg);
                     }});
  p.items.push_back({"fig6_optimal", [&cfg = p.chip, map] {
                       return run_fig6(kernels::jacobi_optimal_spec(map),
                                       sched::Schedule::static_chunk(1), cfg);
                     }});
  p.items.push_back({"fig7_lbm", [&cfg = p.chip] { return run_fig7(cfg); }});
  p.items.push_back({"node_local", [&cfg = p.node] { return run_node_local(cfg); }});
  p.items.push_back({"fault_cadence",
                     [&cfg = p.faulted] { return run_fig2(64, 0, cfg); }});
  p.items.push_back({"supervised_node", [&p] {
                       Outcome o;
                       const auto t0 = Clock::now();
                       const auto res =
                           runtime::run_supervised_node_triad(kLoopN, p.loop);
                       o.run_s = seconds_since(t0);
                       Fnv h;
                       h.add(res.total_cycles);
                       h.add(res.migration_cycles);
                       h.add(res.bytes);
                       h.add(res.remote_bytes);
                       h.add(res.replans);
                       h.add(res.probes);
                       h.add(res.crc_ranges_verified);
                       o.hash = h.value();
                       o.accesses = p.loop_accesses;
                       o.replans = res.replans;
                       return o;
                     }});
}

}  // namespace

Result run_des_sweep(const Options& opt, const Golden& golden, Spans& spans) {
  Result r;
  // Plan holds closures that capture its own members by reference, so it
  // lives on the heap and is never moved after construction.
  std::unique_ptr<Plan> plan;
  std::vector<double> setups;
  for (unsigned rep = 0; rep < kSetups; ++rep) {
    // Set-up is CPU-bound DES work: normalized like the items.
    const double probe_before = cpu_reference_ms();
    Scope s(spans, "setup", rep);
    const auto t0 = Clock::now();
    plan = std::make_unique<Plan>();
    build_plan(*plan);
    const double took = seconds_since(t0);
    setups.push_back(took * kCpuReferenceNominalMs /
                     (0.5 * (probe_before + cpu_reference_ms())));
  }
  const double setup_s = median(setups);
  const std::size_t n_items = plan->items.size();

  std::vector<double> item_ms, build_ms, residual(n_items, 0.0);
  std::vector<bool> has_residual(n_items, false);
  std::vector<double> round_run_s;
  double chip_run_s = 0.0;
  double item_s_total = 0.0;
  std::vector<double> ref_ms;
  std::uint64_t chip_accesses = 0;
  std::uint64_t round_accesses = 0;
  sim::CacheStats l1, l2;
  double mc_busy_max = 0.0;
  unsigned replans = 0;
  std::uint64_t matched = 0;
  double traced_s = 0.0, untraced_s = 0.0;
  std::uint64_t traced_acc = 0, untraced_acc = 0;

  util::Xoshiro256 rng(opt.seed);
  std::vector<std::size_t> order(n_items);
  for (std::size_t i = 0; i < n_items; ++i) order[i] = i;

  const auto t_start = Clock::now();
  unsigned round = 0;
  while (r.attempted < kMinItems || seconds_since(t_start) < opt.seconds) {
    std::shuffle(order.begin(), order.end(), rng);
    // Traced runs alternate recorded and paused rounds: the difference in
    // throughput between the two is the recorder's own cost.
    spans.set_paused(round % 2 == 1);
    const auto t_round = Clock::now();
    double run_s = 0.0;
    std::uint64_t acc = 0;
    std::vector<double> probes, round_item_s;
    Scope round_span(spans, "des.round", round);
    for (const std::size_t idx : order) {
      const Item& item = plan->items[idx];
      // An item is the best of kItemReps back-to-back runs of one
      // deterministic config: host noise only ever adds time, so the
      // minimum is the steadiest estimate of what the simulator costs.
      const double probe_before = cpu_reference_ms();
      Outcome o;
      double best_s = 1e300;
      bool same_hash = true;
      {
        Scope s(spans, "des.item", idx);
        for (unsigned rep = 0; rep < kItemReps; ++rep) {
          const auto t0 = Clock::now();
          const Outcome once = item.run();
          const double took = seconds_since(t0);
          if (rep > 0 && once.hash != o.hash) same_hash = false;
          if (took < best_s) {
            o = once;
            best_s = took;
          }
        }
      }
      // Host-speed normalization: the CPU reference right before and right
      // after the item brackets the host speed it ran at.
      const double probe = 0.5 * (probe_before + cpu_reference_ms());
      probes.push_back(probe);
      round_item_s.push_back(best_s * kCpuReferenceNominalMs / probe);
      ++r.attempted;
      const std::string hash = hex64(o.hash);
      if (opt.emit_golden) r.golden_out["des." + item.name] = hash;
      if (same_hash && golden.matches("des." + item.name, hash)) {
        ++matched;
      } else {
        ++r.failed;
        if (!opt.emit_golden)
          r.notes.push_back("item " + item.name + ": hash " + hash +
                            (same_hash ? " does not match golden"
                                       : " differs between repetitions"));
      }
      acc += o.accesses;
      run_s += o.run_s;
      if (item.name != "supervised_node") {
        build_ms.push_back(1e3 * o.build_s);
        chip_run_s += o.run_s;
        chip_accesses += o.accesses;
      }
      if (round == 0) {
        l1.hits += o.l1.hits;
        l1.misses += o.l1.misses;
        l2.hits += o.l2.hits;
        l2.misses += o.l2.misses;
        mc_busy_max = std::max(mc_busy_max, o.mc_busy_max);
        replans += o.replans;
        residual[idx] = o.residual_pct;
        has_residual[idx] = o.has_residual;
      }
    }
    ref_ms.push_back(median(probes));
    for (const double s : round_item_s) {
      item_ms.push_back(1e3 * s);
      item_s_total += s;
    }
    const double round_s = seconds_since(t_round);
    (round % 2 == 1 ? untraced_s : traced_s) += round_s;
    (round % 2 == 1 ? untraced_acc : traced_acc) += acc;
    if (round == 0) round_accesses = acc;
    round_run_s.push_back(run_s);
    ++round;
    if (opt.emit_golden) break;
  }
  spans.set_paused(false);

  r.correct = r.failed == 0;
  const double ok_frac = r.attempted == 0
                             ? 0.0
                             : static_cast<double>(matched) /
                                   static_cast<double>(r.attempted);
  // Work rate: simulated accesses over the items' normalized best-of times.
  set_end_to_end(r, setup_s, usage_now().max_rss_mb, ok_frac,
                 static_cast<double>(round_accesses) * round / item_s_total, item_ms);
  r.notes.push_back("des_sweep: " + std::to_string(round) + " rounds, " +
                    std::to_string(r.attempted) + " items, " +
                    std::to_string(round_accesses) + " simulated accesses per round");

  auto& L = r.per_layer;
  L["host.cpu_reference_ms"] = {median(ref_ms), "ms"};
  L["sim.run_s"] = {median(round_run_s), "s"};
  L["sim.ns_per_access"] = {chip_accesses == 0 ? 0.0
                                               : 1e9 * chip_run_s /
                                                     static_cast<double>(chip_accesses),
                            "ns"};
  L["sim.accesses"] = {static_cast<double>(round_accesses), "count"};
  L["sim.l1_miss_ratio"] = {l1.miss_ratio(), "frac"};
  L["sim.l2_miss_ratio"] = {l2.miss_ratio(), "frac"};
  L["sim.mc_busy_max"] = {mc_busy_max, "frac"};
  L["sim.result_hash_match"] = {ok_frac, "frac"};
  L["trace.build_ms"] = {median(build_ms), "ms"};
  L["supervisor.replans"] = {static_cast<double>(replans), "count"};
  for (std::size_t i = 0; i < n_items; ++i)
    if (has_residual[i])
      L["analytic.model_des_residual_pct." + plan->items[i].name] = {residual[i], "%"};
  if (spans.enabled() && traced_s > 0.0 && untraced_s > 0.0) {
    const double on = static_cast<double>(traced_acc) / traced_s;
    const double off = static_cast<double>(untraced_acc) / untraced_s;
    L["obs.bench_trace_overhead_pct"] = {100.0 * (off / on - 1.0), "%"};
  }
  if (spans.enabled()) {
    // Supervision cost: the same sliced loop with and without the
    // supervisor, interleaved pairs, median wall-time ratio.
    std::vector<double> ratio;
    runtime::NodeLoopConfig unsup = plan->loop;
    unsup.supervise = false;
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = Clock::now();
      {
        Scope s(spans, "loop.supervised", rep);
        (void)runtime::run_supervised_node_triad(kLoopN, plan->loop);
      }
      const double sup_s = seconds_since(t0);
      t0 = Clock::now();
      {
        Scope s(spans, "loop.unsupervised", rep);
        (void)runtime::run_supervised_node_triad(kLoopN, unsup);
      }
      ratio.push_back(sup_s / seconds_since(t0));
    }
    L["loop.supervised_overhead_frac"] = {median(ratio) - 1.0, "frac"};
  }
  return r;
}

}  // namespace perfbench
