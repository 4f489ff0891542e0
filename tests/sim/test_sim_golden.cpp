// Golden gate for the discrete-event simulator: every field of SimResult,
// hashed over a small matrix of paper workloads, fault classes, a fault
// schedule with timeline sampling, and multi-socket nodes. An event-loop
// optimisation must keep every hash byte-identical; a hash that moves means
// the simulated machine changed, not just the simulator's speed.
//
// The expected values were produced by the simulator as it stood before the
// winner-tree run queue replaced the (cycle, tid) binary heap. On a
// deliberate model change, regenerate them from the failure messages
// (each prints the actual hash) and say why in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "arch/address_map.h"
#include "kernels/jacobi.h"
#include "kernels/lbm/trace_program.h"
#include "kernels/stream.h"
#include "kernels/triad.h"
#include "seg/planner.h"
#include "sim/chip.h"
#include "sim/fault_schedule.h"
#include "sim/node.h"
#include "trace/jacobi_program.h"
#include "trace/virtual_arena.h"

namespace mcopt::sim {
namespace {

/// FNV-1a over 64-bit words (doubles by bit pattern, strings by byte).
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  void add(const std::string& s) {
    add(std::uint64_t{s.size()});
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_cache(Fnv& h, const CacheStats& c) {
  h.add(c.hits);
  h.add(c.misses);
  h.add(c.evictions);
  h.add(c.writebacks);
}

void add_link(Fnv& h, const SimResult::LinkStats& l) {
  h.add(l.fills);
  h.add(l.writebacks);
  h.add(l.busy_cycles);
  h.add(l.last_completion);
}

void add_result(Fnv& h, const SimResult& r) {
  h.add(r.total_cycles);
  h.add(r.accesses);
  h.add(r.loads);
  h.add(r.stores);
  h.add(r.flops);
  add_cache(h, r.l1);
  add_cache(h, r.l2);
  h.add(std::uint64_t{r.mc.size()});
  for (const McStats& m : r.mc) {
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
  h.add(std::uint64_t{r.links.size()});
  for (const SimResult::LinkStats& l : r.links) add_link(h, l);
  h.add(r.remote_read_bytes);
  h.add(r.remote_write_bytes);
  h.add(std::uint64_t{r.thread_finish.size()});
  for (const arch::Cycles c : r.thread_finish) h.add(c);
  h.add(r.clock_ghz);
  for (const double u : r.mc_utilization) h.add(u);
  h.add(std::uint64_t{r.degraded});
  h.add(r.corrupted_reads);
  for (const std::uint64_t c : r.mc_corrupted_reads) h.add(c);
  h.add(std::uint64_t{r.corruption_log.size()});
  for (const SimResult::Corruption& c : r.corruption_log) {
    h.add(c.cycle);
    h.add(c.addr);
    h.add(std::uint64_t{c.controller});
  }
  h.add(std::uint64_t{r.epochs.size()});
  for (const SimResult::EpochStats& e : r.epochs) {
    h.add(e.begin);
    h.add(e.end);
    h.add(e.faults);
    h.add(e.mem_read_bytes);
    h.add(e.mem_write_bytes);
    h.add(e.remote_read_bytes);
    h.add(e.remote_write_bytes);
    for (const double u : e.mc_utilization) h.add(u);
    for (const double u : e.link_utilization) h.add(u);
    h.add(e.bandwidth);
  }
  h.add(std::uint64_t{r.mc_timeline.size()});
  for (const obs::McSample& row : r.mc_timeline) {
    h.add(row.begin);
    h.add(row.end);
    for (const double u : row.utilization) h.add(u);
  }
  h.add(std::uint64_t{r.mc_timeline_truncated});
}

void add_node(Fnv& h, const NodeResult& r) {
  h.add(r.total_cycles);
  h.add(r.clock_ghz);
  h.add(r.mem_read_bytes);
  h.add(r.mem_write_bytes);
  h.add(r.remote_read_bytes);
  h.add(r.remote_write_bytes);
  for (const double u : r.socket_utilization) h.add(u);
  h.add(std::uint64_t{r.degraded});
  h.add(std::uint64_t{r.sockets.size()});
  for (const SimResult& s : r.sockets) add_result(h, s);
}

std::uint64_t run_chip(const SimConfig& cfg, unsigned threads, Workload wl) {
  Chip chip(cfg, arch::equidistant_placement(threads, cfg.topology));
  Fnv h;
  add_result(h, chip.run(wl));
  return h.value();
}

constexpr std::size_t kTriadN = 16384;

/// Fig. 2: STREAM triad in the COMMON-block layout at `offset` DP words.
std::uint64_t fig2(unsigned threads, std::size_t offset, const SimConfig& cfg) {
  trace::VirtualArena arena;
  const arch::Addr block = arena.allocate(3 * (kTriadN + offset) * 8, 8192);
  const auto bases = kernels::common_block_bases(block, kTriadN, offset);
  return run_chip(cfg, threads,
                  kernels::make_stream_workload(kernels::StreamOp::kTriad, bases,
                                                kTriadN, threads,
                                                sched::Schedule::static_block()));
}

SimConfig with_faults(const char* text) {
  SimConfig cfg;
  cfg.faults = FaultSpec::parse(text).value();
  cfg.flip_seed = 7;
  return cfg;
}

struct GoldenCase {
  const char* name;
  std::uint64_t expected;
  std::function<std::uint64_t()> run;
};

const std::vector<GoldenCase>& golden_cases() {
  static const std::vector<GoldenCase> cases = {
      {"fig2_t8_o0", 0x510467a47283d537ull,
       [] { return fig2(8, 0, SimConfig{}); }},
      {"fig2_t8_o32", 0x43083153e165b7efull,
       [] { return fig2(8, 32, SimConfig{}); }},
      {"fig2_t64_o0", 0xc1984e944a70aa7eull,
       [] { return fig2(64, 0, SimConfig{}); }},
      {"fig2_t64_o32", 0xdbe7d1340a409012ull,
       [] { return fig2(64, 32, SimConfig{}); }},
      {"fig4_aligned8k", 0x356bf04e4cd37fb9ull,
       [] {
         const SimConfig cfg;
         trace::VirtualArena arena;
         const auto bases = kernels::triad_layout_bases(
             arena, kernels::TriadLayout::kAligned8k, 8000,
             arch::AddressMap(cfg.interleave));
         return run_chip(cfg, 64,
                         kernels::make_triad_workload(
                             bases, 8000, 64, sched::Schedule::static_block()));
       }},
      {"fig6_jacobi", 0x433015b2707f16bfull,
       [] {
         const SimConfig cfg;
         trace::VirtualArena arena;
         const auto grids = kernels::make_virtual_jacobi(
             arena, 128, kernels::jacobi_plain_spec());
         return run_chip(cfg, 64,
                         trace::make_jacobi_workload(
                             grids.grids(), 64, sched::Schedule::static_block(), 1));
       }},
      {"fig7_lbm", 0x6023f87ee4ee67aaull,
       [] {
         using namespace kernels::lbm;
         const SimConfig cfg;
         const Geometry g{16, 16, 16, 0, DataLayout::kIJKv};
         trace::VirtualArena arena;
         LbmAddresses addr;
         addr.f_base = arena.allocate(g.f_elems() * 8, 8192);
         addr.mask_base = arena.allocate(g.cells(), 8192);
         return run_chip(cfg, 64,
                         make_lbm_workload(g, addr, LoopOrder::kCoalescedZY, 64,
                                           sched::Schedule::static_block(), 1));
       }},
      {"no_lockstep_no_store_buffer", 0x8336b3aefd9b9769ull,
       [] {
         SimConfig cfg;
         cfg.model_lockstep = false;
         cfg.model_store_buffer = false;
         return fig2(16, 8, cfg);
       }},
      {"fault_offline", 0xa7814c1a2762c752ull,
       [] { return fig2(64, 0, with_faults("mc0:off")); }},
      {"fault_derate", 0x5b65570181bbd719ull,
       [] { return fig2(64, 0, with_faults("mc1:derate=0.5")); }},
      {"fault_slow_bank", 0xa2c081e084e98adcull,
       [] { return fig2(64, 0, with_faults("bank3:slow=20")); }},
      {"fault_straggler", 0x879c7d179fc9abf9ull,
       [] { return fig2(64, 0, with_faults("strand5:lag=40")); }},
      {"fault_flip", 0x41b16b807127bcb4ull,
       [] { return fig2(64, 0, with_faults("mc2:flip=0.01")); }},
      {"schedule_cadence", 0xcc930502530b6d5dull,
       [] {
         SimConfig cfg;
         cfg.fault_schedule =
             FaultSchedule::parse("mc1:off@20000..60000,mc2:derate=0.5@40000")
                 .value();
         cfg.mc_sample_cadence = 5000;
         return fig2(64, 0, cfg);
       }},
      {"node2_local", 0x129c93f3df3ebfe6ull,
       [] {
         NodeConfig cfg;
         cfg.node.num_sockets = 2;
         const arch::AddressMap map(cfg.sim.interleave);
         const seg::NodeStreamPlan plan =
             seg::plan_node_stream_shards(4, map, cfg.node);
         std::vector<Workload> wls(cfg.node.num_sockets);
         for (const auto& shard : plan.shards)
           wls[shard.compute_socket] = kernels::make_triad_workload(
               shard.bases, 4096, 16, sched::Schedule::static_block(), 2);
         Node node(cfg);
         Fnv h;
         add_node(h, node.run(wls));
         return h.value();
       }},
      {"node4_interleaved", 0x6ec80c93878a31c3ull,
       [] {
         // Page-interleaved homes: every socket streams through all four
         // domains, so each link port carries fills and write-backs.
         NodeConfig cfg;
         cfg.node.num_sockets = 4;
         cfg.node.home_shift = 12;
         std::vector<Workload> wls(cfg.node.num_sockets);
         for (unsigned s = 0; s < cfg.node.num_sockets; ++s) {
           const arch::Addr base = (arch::Addr{s} << 28) + 128 * s;
           const std::vector<arch::Addr> bases = {base, base + (1u << 20),
                                                  base + (2u << 20),
                                                  base + (3u << 20)};
           wls[s] = kernels::make_triad_workload(bases, 4096, 8,
                                                 sched::Schedule::static_block());
         }
         Node node(cfg);
         Fnv h;
         add_node(h, node.run(wls));
         return h.value();
       }},
  };
  return cases;
}

class SimGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimGolden, WholeResultHashIsUnchanged) {
  const GoldenCase& c = golden_cases()[GetParam()];
  const std::uint64_t actual = c.run();
  EXPECT_EQ(actual, c.expected)
      << c.name << ": actual hash 0x" << std::hex << actual;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SimGolden, ::testing::Range(std::size_t{0}, golden_cases().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(golden_cases()[info.param].name);
    });

}  // namespace
}  // namespace mcopt::sim
