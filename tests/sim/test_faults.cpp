#include "sim/faults.h"

#include <gtest/gtest.h>

#include <memory>

#include "sim/chip.h"
#include "trace/stream_program.h"

namespace mcopt::sim {
namespace {

using trace::LockstepStreamProgram;
using trace::StreamDesc;

Workload read_streams(unsigned threads, std::size_t n_per_thread,
                      arch::Addr spacing,
                      arch::Addr base = arch::Addr{1} << 32) {
  Workload wl;
  for (unsigned t = 0; t < threads; ++t) {
    std::vector<StreamDesc> s{{base + t * spacing, false, 0}};
    wl.push_back(std::make_unique<LockstepStreamProgram>(
        s, sizeof(double), std::vector<sched::IterRange>{{0, n_per_thread}}, 1));
  }
  return wl;
}

TEST(FaultSpec, HealthyByDefault) {
  const FaultSpec spec;
  EXPECT_FALSE(spec.any());
  EXPECT_EQ(spec.describe(), "healthy");
  EXPECT_TRUE(spec.check(arch::InterleaveSpec{}).ok());
  EXPECT_DOUBLE_EQ(spec.derate_of(0), 1.0);
  EXPECT_EQ(spec.bank_extra(0), 0u);
  EXPECT_EQ(spec.straggle_of(0), 0u);
}

TEST(FaultSpec, ParseRoundTrip) {
  const auto parsed =
      FaultSpec::parse("mc0:off, mc1:derate=0.5, bank3:slow=7, strand12:lag=9");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  const FaultSpec& spec = parsed.value();
  EXPECT_TRUE(spec.any());
  EXPECT_TRUE(spec.is_offline(0));
  EXPECT_FALSE(spec.is_offline(1));
  EXPECT_DOUBLE_EQ(spec.derate_of(1), 0.5);
  EXPECT_EQ(spec.bank_extra(3), 7u);
  EXPECT_EQ(spec.straggle_of(12), 9u);
  // Shortest-round-trip formatting: the description re-parses losslessly.
  EXPECT_EQ(spec.describe(), "mc0:off mc1:derate=0.5 bank3:slow=7 strand12:lag=9");
}

TEST(FaultSpec, DescribeUsesShortestRoundTripDoubles) {
  FaultSpec spec;
  spec.derates.push_back({1, 0.375});
  spec.flips.push_back({2, 1e-9});
  EXPECT_EQ(spec.describe(), "mc1:derate=0.375 mc2:flip=1e-09");
  const auto reparsed = FaultSpec::parse("mc1:derate=0.375,mc2:flip=1e-09");
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_DOUBLE_EQ(reparsed.value().derate_of(1), 0.375);
  EXPECT_DOUBLE_EQ(reparsed.value().flip_rate_of(2), 1e-9);
}

TEST(FaultSpec, ParseFlip) {
  const auto parsed = FaultSpec::parse("mc2:flip=1e-9");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  const FaultSpec& spec = parsed.value();
  EXPECT_TRUE(spec.any());
  EXPECT_DOUBLE_EQ(spec.flip_rate_of(2), 1e-9);
  EXPECT_DOUBLE_EQ(spec.flip_rate_of(0), 0.0);
  EXPECT_TRUE(spec.check(arch::InterleaveSpec{}).ok());
}

TEST(FaultSpec, ParseRejectsBadFlipRates) {
  EXPECT_FALSE(FaultSpec::parse("mc0:flip=-1e-9").has_value());
  EXPECT_FALSE(FaultSpec::parse("mc0:flip=1.5").has_value());
  EXPECT_FALSE(FaultSpec::parse("mc0:flip=nan").has_value());
  EXPECT_FALSE(FaultSpec::parse("mc0:flip=").has_value());
}

TEST(FaultSpec, FlipRatesCombineAsIndependentSources) {
  FaultSpec spec;
  spec.flips.push_back({0, 0.5});
  spec.flips.push_back({0, 0.5});
  // 1 - (1 - 0.5)(1 - 0.5): independent sources, not a sum (which would
  // exceed 1 for large rates).
  EXPECT_DOUBLE_EQ(spec.flip_rate_of(0), 0.75);
}

TEST(FaultSpec, CheckRejectsOfflineAndFlippingSameController) {
  FaultSpec spec;
  spec.offline_controllers = {1};
  spec.flips.push_back({1, 1e-6});
  const util::Status status = spec.check(arch::InterleaveSpec{});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("both offline and flipping"),
            std::string::npos);
}

TEST(FaultSpec, MergedDropsFlipsOnDeadControllers) {
  FaultSpec off;
  off.offline_controllers = {2};
  FaultSpec flip;
  flip.flips.push_back({2, 1e-6});
  flip.flips.push_back({3, 1e-6});
  const FaultSpec merged = FaultSpec::merged(off, flip);
  EXPECT_DOUBLE_EQ(merged.flip_rate_of(2), 0.0);
  EXPECT_DOUBLE_EQ(merged.flip_rate_of(3), 1e-6);
  EXPECT_TRUE(merged.check(arch::InterleaveSpec{}).ok());
}

TEST(FaultSpec, ParseEmptyIsHealthy) {
  const auto parsed = FaultSpec::parse("");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed.value().any());
}

TEST(FaultSpec, ParseRejectsGarbage) {
  EXPECT_FALSE(FaultSpec::parse("bogus").has_value());
  EXPECT_FALSE(FaultSpec::parse("mc0:explode").has_value());
  EXPECT_FALSE(FaultSpec::parse("mcX:off").has_value());
  EXPECT_FALSE(FaultSpec::parse("mc1:derate=abc").has_value());
  EXPECT_FALSE(FaultSpec::parse("bank0:slow=-3").has_value());
  EXPECT_FALSE(FaultSpec::parse("strand0:lag=").has_value());
  EXPECT_FALSE(FaultSpec::parse("disk0:dead").has_value());
  // Cycle counts beyond uint64 (or not numbers at all) must be rejected
  // before the double-to-Cycles cast, which would otherwise be UB.
  EXPECT_FALSE(FaultSpec::parse("bank0:slow=1e30").has_value());
  EXPECT_FALSE(FaultSpec::parse("strand0:lag=1e300").has_value());
  EXPECT_FALSE(FaultSpec::parse("strand0:lag=nan").has_value());
}

TEST(FaultSpec, CheckReportsEveryViolationAtOnce) {
  FaultSpec spec;
  spec.offline_controllers = {9};
  spec.derates.push_back({7, 0.0});
  spec.slow_banks.push_back({99, 5});
  const util::Status status = spec.check(arch::InterleaveSpec{});
  ASSERT_FALSE(status.ok());
  const std::string& msg = status.error().message;
  EXPECT_NE(msg.find("offline controller 9"), std::string::npos);
  EXPECT_NE(msg.find("derated controller 7"), std::string::npos);
  EXPECT_NE(msg.find("derate factor"), std::string::npos);
  EXPECT_NE(msg.find("slow bank 99"), std::string::npos);
}

TEST(FaultSpec, CheckRejectsDuplicateOfflineEntries) {
  FaultSpec spec;
  spec.offline_controllers = {1, 1};
  const util::Status status = spec.check(arch::InterleaveSpec{});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("offlined more than once"),
            std::string::npos);
}

TEST(FaultSpec, CheckRejectsOfflineAndDeratedSameController) {
  FaultSpec spec;
  spec.offline_controllers = {2};
  spec.derates.push_back({2, 0.5});
  const util::Status status = spec.check(arch::InterleaveSpec{});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("both offline and derated"),
            std::string::npos);
}

TEST(FaultSpec, CheckRejectsZeroDerateFactor) {
  FaultSpec spec;
  spec.derates.push_back({0, 0.0});
  const util::Status status = spec.check(arch::InterleaveSpec{});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("must lie in (0, 1]"),
            std::string::npos);
}

TEST(FaultSpec, DegenerateViolationsAccumulateInOneStatus) {
  // A spec can be degenerate in several ways at once; every violation must
  // land in the single returned Status, not just the first one hit.
  FaultSpec spec;
  spec.offline_controllers = {1, 1};
  spec.derates.push_back({1, 0.0});
  const util::Status status = spec.check(arch::InterleaveSpec{});
  ASSERT_FALSE(status.ok());
  const std::string& msg = status.error().message;
  EXPECT_NE(msg.find("offlined more than once"), std::string::npos);
  EXPECT_NE(msg.find("must lie in (0, 1]"), std::string::npos);
  EXPECT_NE(msg.find("both offline and derated"), std::string::npos);
}

TEST(FaultSpec, CheckRejectsAllControllersOffline) {
  FaultSpec spec;
  spec.offline_controllers = {0, 1, 2, 3};
  const util::Status status = spec.check(arch::InterleaveSpec{});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("at least one controller"),
            std::string::npos);
}

TEST(FaultSpec, SurvivorsAndRemap) {
  FaultSpec spec;
  spec.offline_controllers = {1, 3};
  const arch::InterleaveSpec il{};
  EXPECT_EQ(spec.surviving_controllers(il), (std::vector<unsigned>{0, 2}));
  // Dead controllers spread round-robin over survivors; healthy map to self.
  EXPECT_EQ(spec.controller_remap(il), (std::vector<unsigned>{0, 0, 2, 2}));
}

TEST(FaultSpec, RemapIsIdentityWhenHealthy) {
  const FaultSpec spec;
  EXPECT_EQ(spec.controller_remap(arch::InterleaveSpec{}),
            (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(FaultSpec, ParseSocketAndLinkClasses) {
  const auto parsed =
      FaultSpec::parse("sock0:off, sock1:derate=0.5, link0-1:off, link2-3:derate=0.25");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  const FaultSpec& spec = parsed.value();
  EXPECT_TRUE(spec.any());
  EXPECT_TRUE(spec.is_socket_offline(0));
  EXPECT_FALSE(spec.is_socket_offline(1));
  EXPECT_DOUBLE_EQ(spec.socket_derate_of(1), 0.5);
  EXPECT_DOUBLE_EQ(spec.socket_derate_of(0), 1.0);
  // Links are undirected: both orientations answer identically.
  EXPECT_TRUE(spec.is_link_offline(0, 1));
  EXPECT_TRUE(spec.is_link_offline(1, 0));
  EXPECT_FALSE(spec.is_link_offline(0, 2));
  EXPECT_DOUBLE_EQ(spec.link_derate_of(2, 3), 0.25);
  EXPECT_DOUBLE_EQ(spec.link_derate_of(3, 2), 0.25);
  EXPECT_DOUBLE_EQ(spec.link_derate_of(0, 1), 1.0);
  EXPECT_EQ(spec.describe(),
            "sock0:off sock1:derate=0.5 link0-1:off link2-3:derate=0.25");
  // The description re-parses to an identical spec.
  const auto reparsed = FaultSpec::parse(
      "sock0:off,sock1:derate=0.5,link0-1:off,link2-3:derate=0.25");
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed.value().describe(), spec.describe());
}

TEST(FaultSpec, ParseRejectsSocketLinkGarbage) {
  EXPECT_FALSE(FaultSpec::parse("sockX:off").has_value());
  EXPECT_FALSE(FaultSpec::parse("sock0:derate=").has_value());
  EXPECT_FALSE(FaultSpec::parse("sock0:derate=abc").has_value());
  EXPECT_FALSE(FaultSpec::parse("sock0:lag=5").has_value());
  EXPECT_FALSE(FaultSpec::parse("link0:off").has_value());
  EXPECT_FALSE(FaultSpec::parse("link0-:off").has_value());
  EXPECT_FALSE(FaultSpec::parse("link-1:off").has_value());
  EXPECT_FALSE(FaultSpec::parse("link0-1:slow=5").has_value());
  // Out-of-range factors parse (grammar-checked only, like mc:derate) and
  // fail semantic validation instead.
  const auto zero = FaultSpec::parse("sock0:derate=0");
  ASSERT_TRUE(zero.has_value());
  EXPECT_FALSE(zero.value().check(arch::InterleaveSpec{}, 2).ok());
  const auto nan_factor = FaultSpec::parse("link0-1:derate=nan");
  ASSERT_TRUE(nan_factor.has_value());
  EXPECT_FALSE(nan_factor.value().check(arch::InterleaveSpec{}, 2).ok());
}

TEST(FaultSpec, ParseLimitsRejectOutOfRangeIndices) {
  FaultLimits limits;
  limits.num_controllers = 4;
  limits.num_banks = 8;
  limits.num_threads = 64;
  limits.num_sockets = 2;
  // In-range indices pass with limits applied.
  const auto ok = FaultSpec::parse(
      "mc3:off,bank7:slow=2,strand63:lag=1,sock1:off,link0-1:derate=0.5",
      limits);
  ASSERT_TRUE(ok.has_value()) << ok.error().message;
  // Each class rejects its first out-of-range index at parse time.
  const auto mc = FaultSpec::parse("mc4:off", limits);
  ASSERT_FALSE(mc.has_value());
  EXPECT_NE(mc.error().message.find("mc4"), std::string::npos);
  EXPECT_FALSE(FaultSpec::parse("bank8:slow=2", limits).has_value());
  EXPECT_FALSE(FaultSpec::parse("strand64:lag=1", limits).has_value());
  const auto sock = FaultSpec::parse("sock2:off", limits);
  ASSERT_FALSE(sock.has_value());
  EXPECT_NE(sock.error().message.find("sock2"), std::string::npos);
  EXPECT_FALSE(FaultSpec::parse("link0-2:off", limits).has_value());
  EXPECT_FALSE(FaultSpec::parse("link2-0:off", limits).has_value());
  // A zero field leaves that class unchecked (historical behavior).
  FaultLimits loose;
  loose.num_controllers = 4;
  EXPECT_TRUE(FaultSpec::parse("sock7:off", loose).has_value());
  EXPECT_FALSE(FaultSpec::parse("mc7:off", loose).has_value());
}

TEST(FaultSpec, CheckRejectsSocketFaultsOnSingleSocketTopology) {
  // Default num_sockets = 1: a single-chip sim cannot honor socket faults,
  // and silently ignoring them would fake resilience.
  FaultSpec sock_off;
  sock_off.offline_sockets = {0};
  EXPECT_FALSE(sock_off.check(arch::InterleaveSpec{}).ok());
  FaultSpec link;
  link.link_faults.push_back({0, 1, 1.0, true});
  EXPECT_FALSE(link.check(arch::InterleaveSpec{}).ok());
  // The same specs are fine on a 2-socket node.
  EXPECT_TRUE(sock_off.check(arch::InterleaveSpec{}, 2).ok());
  EXPECT_TRUE(link.check(arch::InterleaveSpec{}, 2).ok());
}

TEST(FaultSpec, CheckSocketClassViolations) {
  {
    FaultSpec spec;  // all sockets dead
    spec.offline_sockets = {0, 1};
    const util::Status status = spec.check(arch::InterleaveSpec{}, 2);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.error().message.find("at least one socket"),
              std::string::npos);
  }
  {
    FaultSpec spec;  // index out of range
    spec.offline_sockets = {4};
    EXPECT_FALSE(spec.check(arch::InterleaveSpec{}, 4).ok());
  }
  {
    FaultSpec spec;  // dead beats slow
    spec.offline_sockets = {1};
    spec.socket_derates.push_back({1, 0.5});
    const util::Status status = spec.check(arch::InterleaveSpec{}, 4);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.error().message.find("both offline and derated"),
              std::string::npos);
  }
  {
    FaultSpec spec;  // self-loop link
    spec.link_faults.push_back({1, 1, 0.5, false});
    EXPECT_FALSE(spec.check(arch::InterleaveSpec{}, 4).ok());
  }
  {
    FaultSpec spec;  // link derate out of (0, 1]
    spec.link_faults.push_back({0, 1, 0.0, false});
    EXPECT_FALSE(spec.check(arch::InterleaveSpec{}, 4).ok());
  }
  {
    FaultSpec spec;  // dead link beats slow link
    spec.link_faults.push_back({0, 1, 1.0, true});
    spec.link_faults.push_back({1, 0, 0.5, false});
    const util::Status status = spec.check(arch::InterleaveSpec{}, 4);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.error().message.find("both offline and derated"),
              std::string::npos);
  }
}

TEST(FaultSpec, SurvivingSocketsAndRemap) {
  FaultSpec spec;
  spec.offline_sockets = {0, 2};
  EXPECT_EQ(spec.surviving_sockets(4), (std::vector<unsigned>{1, 3}));
  // Dead domains spread round-robin over survivors; healthy map to self.
  EXPECT_EQ(spec.socket_remap(4), (std::vector<unsigned>{1, 1, 3, 3}));
  const FaultSpec healthy;
  EXPECT_EQ(healthy.socket_remap(2), (std::vector<unsigned>{0, 1}));
}

TEST(FaultSpec, MergedNormalizesSocketAndLinkFaults) {
  FaultSpec a;
  a.offline_sockets = {1};
  a.link_faults.push_back({0, 1, 1.0, true});
  FaultSpec b;
  b.offline_sockets = {1};                    // duplicate offline socket
  b.socket_derates.push_back({1, 0.5});       // derate on a dead socket
  b.socket_derates.push_back({0, 0.75});      // derate on a live socket
  b.link_faults.push_back({1, 0, 0.5, false});  // derate on a dead link
  b.link_faults.push_back({2, 3, 0.5, false});  // derate on a live link
  const FaultSpec merged = FaultSpec::merged(a, b);
  EXPECT_EQ(merged.offline_sockets, (std::vector<unsigned>{1}));
  EXPECT_DOUBLE_EQ(merged.socket_derate_of(1), 1.0);  // dead beats slow
  EXPECT_DOUBLE_EQ(merged.socket_derate_of(0), 0.75);
  EXPECT_TRUE(merged.is_link_offline(0, 1));
  EXPECT_DOUBLE_EQ(merged.link_derate_of(0, 1), 1.0);  // dead beats slow
  EXPECT_DOUBLE_EQ(merged.link_derate_of(2, 3), 0.5);
  EXPECT_TRUE(merged.check(arch::InterleaveSpec{}, 4).ok());
}

TEST(ChipFaults, HealthyRunIsNotDegraded) {
  SimConfig cfg;
  Chip chip(cfg, arch::equidistant_placement(4, cfg.topology));
  Workload wl = read_streams(4, 1024, arch::Addr{1} << 20);
  const SimResult res = chip.run(wl);
  EXPECT_FALSE(res.degraded);
  ASSERT_EQ(res.mc_utilization.size(), 4u);
  for (double u : res.mc_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(ChipFaults, OfflineControllerServesNoTrafficAndSetsDegraded) {
  SimConfig cfg;
  cfg.faults.offline_controllers = {0};
  Chip chip(cfg, arch::equidistant_placement(8, cfg.topology));
  // Spacing 1 MiB: bases alias to controller 0, which is dead.
  Workload wl = read_streams(8, 2048, arch::Addr{1} << 20);
  const SimResult res = chip.run(wl);
  EXPECT_TRUE(res.degraded);
  ASSERT_EQ(res.mc.size(), 4u);
  EXPECT_EQ(res.mc[0].line_transfers(), 0u);
  EXPECT_DOUBLE_EQ(res.mc_utilization[0], 0.0);
  // The traffic still flowed — through the survivors.
  std::uint64_t surviving_transfers = 0;
  for (std::size_t m = 1; m < res.mc.size(); ++m)
    surviving_transfers += res.mc[m].line_transfers();
  EXPECT_GT(surviving_transfers, 0u);
  EXPECT_EQ(res.accesses, 8u * 2048u);
}

TEST(ChipFaults, DerateSlowsTheRunDown) {
  auto run_with = [](double factor) {
    SimConfig cfg;
    if (factor < 1.0)
      for (unsigned c = 0; c < 4; ++c) cfg.faults.derates.push_back({c, factor});
    Chip chip(cfg, arch::equidistant_placement(16, cfg.topology));
    Workload wl = read_streams(16, 4096, arch::Addr{1} << 21);
    return chip.run(wl);
  };
  const SimResult healthy = run_with(1.0);
  const SimResult derated = run_with(0.5);
  EXPECT_TRUE(derated.degraded);
  EXPECT_FALSE(healthy.degraded);
  // Halving every controller's service rate must slow a bandwidth-bound run
  // substantially (not necessarily exactly 2x: latency terms are unscaled).
  EXPECT_GT(derated.total_cycles, healthy.total_cycles * 5 / 4);
}

TEST(ChipFaults, SlowBankCostsCycles) {
  auto run_with = [](arch::Cycles extra) {
    SimConfig cfg;
    if (extra > 0)
      for (unsigned b = 0; b < cfg.interleave.num_banks(); ++b)
        cfg.faults.slow_banks.push_back({b, extra});
    Chip chip(cfg, arch::equidistant_placement(8, cfg.topology));
    Workload wl = read_streams(8, 2048, arch::Addr{1} << 21);
    return chip.run(wl);
  };
  const SimResult healthy = run_with(0);
  const SimResult slowed = run_with(200);
  EXPECT_TRUE(slowed.degraded);
  EXPECT_GT(slowed.total_cycles, healthy.total_cycles);
}

TEST(ChipFaults, StragglerDelaysItsThread) {
  auto run_with = [](arch::Cycles lag) {
    SimConfig cfg;
    cfg.model_lockstep = false;  // let the straggler actually fall behind
    if (lag > 0) cfg.faults.stragglers.push_back({0, lag});
    Chip chip(cfg, arch::equidistant_placement(4, cfg.topology));
    Workload wl = read_streams(4, 1024, arch::Addr{1} << 21);
    return chip.run(wl);
  };
  const SimResult healthy = run_with(0);
  const SimResult lagged = run_with(50);
  EXPECT_TRUE(lagged.degraded);
  // The straggler pays its full per-access lag...
  const arch::Cycles delta0 = lagged.thread_finish[0] - healthy.thread_finish[0];
  EXPECT_GE(delta0, 1024u * 50u);
  // ...while other threads see only second-order contention shifts (the
  // straggler's requests land at different cycles on the shared buses).
  const arch::Cycles delta1 = lagged.thread_finish[1] > healthy.thread_finish[1]
                                  ? lagged.thread_finish[1] - healthy.thread_finish[1]
                                  : healthy.thread_finish[1] - lagged.thread_finish[1];
  EXPECT_LT(delta1, delta0 / 4);
}

TEST(ChipFaults, FlipRateOneCorruptsEveryMemoryRead) {
  SimConfig cfg;
  for (unsigned c = 0; c < 4; ++c) cfg.faults.flips.push_back({c, 1.0});
  Chip chip(cfg, arch::equidistant_placement(4, cfg.topology));
  Workload wl = read_streams(4, 2048, arch::Addr{1} << 21);
  const SimResult res = chip.run(wl);
  EXPECT_TRUE(res.degraded);
  const std::uint64_t mem_reads =
      res.mem_read_bytes / cfg.interleave.line_size();
  EXPECT_GT(mem_reads, 0u);
  EXPECT_EQ(res.corrupted_reads, mem_reads);
  std::uint64_t per_mc = 0;
  ASSERT_EQ(res.mc_corrupted_reads.size(), 4u);
  for (std::uint64_t c : res.mc_corrupted_reads) per_mc += c;
  EXPECT_EQ(per_mc, res.corrupted_reads);
  EXPECT_EQ(res.corruption_log.size(), SimResult::kCorruptionLogCap);
}

TEST(ChipFaults, FlipRateZeroCorruptsNothing) {
  SimConfig cfg;
  cfg.faults.flips.push_back({0, 0.0});
  Chip chip(cfg, arch::equidistant_placement(4, cfg.topology));
  Workload wl = read_streams(4, 1024, arch::Addr{1} << 21);
  const SimResult res = chip.run(wl);
  EXPECT_EQ(res.corrupted_reads, 0u);
  EXPECT_TRUE(res.corruption_log.empty());
}

TEST(ChipFaults, FlipsReplayExactlyForEqualSeeds) {
  auto run_with_seed = [](std::uint64_t seed) {
    SimConfig cfg;
    cfg.flip_seed = seed;
    for (unsigned c = 0; c < 4; ++c) cfg.faults.flips.push_back({c, 0.05});
    Chip chip(cfg, arch::equidistant_placement(8, cfg.topology));
    Workload wl = read_streams(8, 2048, arch::Addr{1} << 21);
    return chip.run(wl);
  };
  const SimResult a = run_with_seed(42);
  const SimResult b = run_with_seed(42);
  const SimResult c = run_with_seed(43);
  EXPECT_GT(a.corrupted_reads, 0u);
  EXPECT_EQ(a.corrupted_reads, b.corrupted_reads);
  ASSERT_EQ(a.corruption_log.size(), b.corruption_log.size());
  for (std::size_t i = 0; i < a.corruption_log.size(); ++i) {
    EXPECT_EQ(a.corruption_log[i].cycle, b.corruption_log[i].cycle);
    EXPECT_EQ(a.corruption_log[i].addr, b.corruption_log[i].addr);
    EXPECT_EQ(a.corruption_log[i].controller, b.corruption_log[i].controller);
  }
  // A different seed draws a different pattern (same expected count).
  EXPECT_NE(a.corrupted_reads, 0u);
  bool same_pattern = a.corrupted_reads == c.corrupted_reads;
  if (same_pattern && !a.corruption_log.empty() && !c.corruption_log.empty())
    same_pattern = a.corruption_log[0].cycle == c.corruption_log[0].cycle &&
                   a.corruption_log[0].addr == c.corruption_log[0].addr;
  EXPECT_FALSE(same_pattern);
}

TEST(ChipFaults, FlipCountTracksRate) {
  auto corrupted_at = [](double rate) {
    SimConfig cfg;
    for (unsigned c = 0; c < 4; ++c) cfg.faults.flips.push_back({c, rate});
    Chip chip(cfg, arch::equidistant_placement(8, cfg.topology));
    Workload wl = read_streams(8, 4096, arch::Addr{1} << 21);
    const SimResult res = chip.run(wl);
    return std::pair<std::uint64_t, std::uint64_t>{
        res.corrupted_reads, res.mem_read_bytes / cfg.interleave.line_size()};
  };
  const auto [hits_lo, reads_lo] = corrupted_at(0.01);
  const auto [hits_hi, reads_hi] = corrupted_at(0.25);
  EXPECT_EQ(reads_lo, reads_hi);  // the flip draw never alters timing/traffic
  // Binomial(reads, rate) concentrates tightly at these sizes; a factor-of-2
  // envelope around the mean will not flake.
  const double mean_lo = static_cast<double>(reads_lo) * 0.01;
  const double mean_hi = static_cast<double>(reads_hi) * 0.25;
  EXPECT_GT(static_cast<double>(hits_lo), mean_lo / 2);
  EXPECT_LT(static_cast<double>(hits_lo), mean_lo * 2);
  EXPECT_GT(static_cast<double>(hits_hi), mean_hi / 2);
  EXPECT_LT(static_cast<double>(hits_hi), mean_hi * 2);
  EXPECT_GT(hits_hi, hits_lo);
}

TEST(ChipFaults, FlipsDoNotAlterTiming) {
  auto run_with = [](bool flips) {
    SimConfig cfg;
    if (flips)
      for (unsigned c = 0; c < 4; ++c) cfg.faults.flips.push_back({c, 0.5});
    Chip chip(cfg, arch::equidistant_placement(8, cfg.topology));
    Workload wl = read_streams(8, 2048, arch::Addr{1} << 21);
    return chip.run(wl);
  };
  const SimResult clean = run_with(false);
  const SimResult flipped = run_with(true);
  // Corruption is a data fault, not a timing fault: cycle-exact equality.
  EXPECT_EQ(flipped.total_cycles, clean.total_cycles);
  EXPECT_EQ(flipped.mem_read_bytes, clean.mem_read_bytes);
  EXPECT_EQ(flipped.mem_write_bytes, clean.mem_write_bytes);
  EXPECT_GT(flipped.corrupted_reads, 0u);
}

TEST(ChipFaults, InvalidFaultSpecRejectedAtConstruction) {
  SimConfig cfg;
  cfg.faults.offline_controllers = {0, 1, 2, 3};
  EXPECT_THROW(Chip(cfg, arch::equidistant_placement(1, cfg.topology)),
               std::invalid_argument);
}

TEST(ChipFaults, WatchdogAbortsOverBudgetRun) {
  SimConfig cfg;
  cfg.cycle_budget = 100;  // far too little for 64k misses
  Chip chip(cfg, arch::equidistant_placement(2, cfg.topology));
  Workload wl = read_streams(2, 1 << 16, arch::Addr{1} << 21);
  const auto result = chip.try_run(wl);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("watchdog"), std::string::npos);
  // The throwing API surfaces the same diagnostic.
  Workload wl2 = read_streams(2, 1 << 16, arch::Addr{1} << 21);
  EXPECT_THROW(chip.run(wl2), std::runtime_error);
}

TEST(ChipFaults, GenerousBudgetDoesNotTrip) {
  SimConfig cfg;
  cfg.cycle_budget = arch::Cycles{1} << 40;
  Chip chip(cfg, arch::equidistant_placement(2, cfg.topology));
  Workload wl = read_streams(2, 512, arch::Addr{1} << 21);
  const auto result = chip.try_run(wl);
  ASSERT_TRUE(result.has_value()) << result.error().message;
  EXPECT_EQ(result.value().accesses, 1024u);
}

// The run queue packs (clock << 6) | tid at 64 strands, so strand clocks are
// capped near 2^58 cycles. A straggler lag at the grammar's 2^53 ceiling
// crosses that in 32 accesses; the run must fail with a diagnostic instead
// of misordering events.
TEST(ChipFaults, ClockCeilingFailsTyped) {
  SimConfig cfg;
  cfg.faults = FaultSpec::parse("strand5:lag=9007199254740992").value();
  Chip chip(cfg, arch::equidistant_placement(64, cfg.topology));
  Workload wl = read_streams(64, 40, arch::Addr{1} << 21);
  const auto result = chip.try_run(wl);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("thread 5"), std::string::npos)
      << result.error().message;
  EXPECT_NE(result.error().message.find("ceiling of 288230376151711743"),
            std::string::npos)
      << result.error().message;
}

TEST(ChipFaults, ClockJustBelowCeilingRuns) {
  SimConfig cfg;
  cfg.faults = FaultSpec::parse("strand5:lag=9007199254740992").value();
  Chip chip(cfg, arch::equidistant_placement(64, cfg.topology));
  Workload wl = read_streams(64, 16, arch::Addr{1} << 21);
  const auto result = chip.try_run(wl);
  ASSERT_TRUE(result.has_value()) << result.error().message;
  // 16 lagged accesses: 2^57 cycles plus the strand's own memory time.
  EXPECT_GE(result.value().thread_finish[5], arch::Cycles{1} << 57);
  EXPECT_LT(result.value().thread_finish[5], arch::Cycles{1} << 58);
  EXPECT_EQ(result.value().accesses, 64u * 16u);
}

}  // namespace
}  // namespace mcopt::sim
