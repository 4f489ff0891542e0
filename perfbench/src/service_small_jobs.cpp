// service_small_jobs: a closed loop of small jobs against the durable
// service (durable::ServiceHandle over 4 weighted tenants, 3 workers).
//
// One client keeps a window of kWindow jobs outstanding: it submits the
// window, calls flush() (the group commit that acks it), then pump()s and
// poll()s until every outcome is in, and only then sends the next window.
// Jobs are L2-resident (triad n=16384, Jacobi n=128..256, 2 iterations), so
// the kernels are a small share: the door, WFQ stamp, queue handoff,
// per-job allocation, CRC and journal dominate. Set-up replays a seeded
// journal history, so the durable layer is exercised both ways.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "runtime/durable/service_handle.h"
#include "util/crc.h"
#include "util/prng.h"

namespace perfbench {
namespace {

using namespace mcopt;
namespace fs = std::filesystem;
using runtime::durable::ServiceHandle;

constexpr unsigned kWindow = 64;
constexpr unsigned kWorkers = 3;
constexpr std::uint64_t kHistoryJobs = 20000;
/// Windows between checkpoints; a checkpoint compacts acknowledged history
/// so the handle's memory stays bounded over a run.
constexpr unsigned kCheckpointEvery = 64;
/// Windows per slice of the timed loop. Throughput and latency
/// percentiles are taken per slice and reported as the median over slices,
/// so a burst of host contention moves one slice, not the run.
constexpr unsigned kSliceWindows = 128;
constexpr unsigned kProbeWindows = 32;  ///< windows between CPU references
constexpr unsigned kSetups = 15;  ///< set-up repetitions (median)
constexpr std::size_t kTriadN = 16384;
constexpr unsigned kIterations = 2;

runtime::durable::DurableConfig service_config(const fs::path& dir) {
  runtime::durable::DurableConfig cfg;
  cfg.dir = dir.string();
  cfg.service.executor.num_workers = kWorkers;
  cfg.service.executor.run_kernels = true;
  cfg.service.executor.lane_capacity = {4 * kWindow, 4 * kWindow, 4 * kWindow};
  cfg.service.executor.seed = 7;
  cfg.instance = 1;
  const double weights[] = {1.0, 2.0, 3.0, 4.0};
  for (unsigned t = 0; t < 4; ++t) {
    runtime::service::TenantConfig tc;
    tc.name = "tenant" + std::to_string(t + 1);
    tc.weight = weights[t];
    tc.slo = runtime::service::SloClass::kBatch;  // no deadlines: nothing sheds
    cfg.tenants.push_back(tc);
  }
  return cfg;
}

/// The seeded job stream: triad and Jacobi 3:1, four tenants.
class JobStream {
 public:
  explicit JobStream(std::uint64_t seed) : rng_(seed) {}

  struct Job {
    runtime::service::TenantId tenant = 1;
    runtime::exec::JobSpec spec;
  };

  Job next() {
    Job j;
    j.tenant = static_cast<runtime::service::TenantId>(1 + rng_.below(4));
    j.spec.iterations = kIterations;
    if (rng_.below(4) != 0) {
      j.spec.kind = runtime::exec::JobKind::kTriad;
      j.spec.n = kTriadN;
    } else {
      j.spec.kind = runtime::exec::JobKind::kJacobi;
      j.spec.n = 128 + 64 * rng_.below(3);
    }
    return j;
  }

 private:
  util::Xoshiro256 rng_;
};

std::string golden_key(const runtime::exec::JobSpec& s) {
  return std::string("service.") + runtime::exec::to_string(s.kind) + "_n" +
         std::to_string(s.n) + "_it" + std::to_string(s.iterations);
}

std::unique_ptr<ServiceHandle> open_handle(const fs::path& dir) {
  auto h = ServiceHandle::open(service_config(dir));
  if (!h) throw std::runtime_error("service open failed: " + h.error().message);
  return std::move(h.value());
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Worker-side timestamps of one window slot, written by the
/// JobSpec::on_generation hook from executor threads.
struct Slot {
  std::atomic<std::int64_t> gen1{0};
  std::atomic<std::int64_t> gen2{0};
};

/// Per-job samples and counters of the timed loop.
struct Samples {
  std::vector<double> latency_ms, submit_us, flush_us, pump_us;
  std::vector<double> queue_ms, gen_us, tail_us;
  std::uint64_t completed = 0, verified = 0;
};

/// The closed-loop client: one window() call submits kWindow jobs, commits
/// them and waits for every outcome.
class Client {
 public:
  Client(ServiceHandle& h, JobStream& jobs, std::uint64_t next_id,
         const Golden& golden, Spans& spans, bool emit_golden)
      : h_(h), jobs_(jobs), next_id_(next_id), golden_(golden), spans_(spans),
        emit_golden_(emit_golden) {}

  void window(Samples& s, bool hooks, std::map<std::string, std::string>& seen) {
    std::array<std::uint64_t, kWindow> ids{};
    std::array<std::int64_t, kWindow> t_sub{}, t_ret{};
    std::array<std::string, kWindow> keys;
    std::array<bool, kWindow> done{};
    Scope w(spans_, "service.window", next_id_);
    const int parent = w.handle();
    for (unsigned i = 0; i < kWindow; ++i) {
      JobStream::Job job = jobs_.next();
      keys[i] = golden_key(job.spec);
      slots_[i].gen1.store(0, std::memory_order_relaxed);
      slots_[i].gen2.store(0, std::memory_order_relaxed);
      if (hooks) {
        Slot* slot = &slots_[i];
        job.spec.on_generation = [slot](unsigned gen) {
          (gen == 1 ? slot->gen1 : slot->gen2).store(now_ns(), std::memory_order_relaxed);
        };
      }
      ids[i] = next_id_++;
      Scope sub(spans_, "service.submit", ids[i]);
      t_sub[i] = now_ns();
      const auto ack = h_.submit(job.tenant, ids[i], std::move(job.spec));
      t_ret[i] = now_ns();
      s.submit_us.push_back(1e-3 * static_cast<double>(t_ret[i] - t_sub[i]));
      if (!ack.accepted) done[i] = true;  // refused: counts as a miss
    }
    {
      Scope f(spans_, "durable.flush", next_id_);
      const auto t0 = now_ns();
      if (!h_.flush().ok()) throw std::runtime_error("journal flush failed");
      s.flush_us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
    }
    unsigned outstanding = kWindow;
    for (unsigned i = 0; i < kWindow; ++i)
      if (done[i]) --outstanding;
    while (outstanding > 0) {
      {
        // Only pumps that journal something are sampled: the loop polls
        // continuously, and empty pumps would swamp both the sample and
        // the span buffer.
        const auto t0 = Clock::now();
        const std::size_t appended = h_.pump();
        const auto t1 = Clock::now();
        if (appended > 0) {
          s.pump_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
          spans_.add("durable.pump", t0, t1, parent, next_id_);
        }
      }
      for (unsigned i = 0; i < kWindow; ++i) {
        if (done[i]) continue;
        const runtime::durable::PollResult p = h_.poll(ids[i]);
        if (p.state == runtime::durable::SubmissionState::kPending) continue;
        const std::int64_t t_done = now_ns();
        done[i] = true;
        --outstanding;
        s.latency_ms.push_back(1e-6 * static_cast<double>(t_done - t_sub[i]));
        if (p.state != runtime::durable::SubmissionState::kCompleted) continue;
        ++s.completed;
        const std::string crc = hex32(p.field_crc);
        if (emit_golden_) seen[keys[i]] = crc;
        if (golden_.matches(keys[i], crc)) ++s.verified;
        if (!hooks) continue;
        const std::int64_t g1 = slots_[i].gen1.load(std::memory_order_relaxed);
        const std::int64_t g2 = slots_[i].gen2.load(std::memory_order_relaxed);
        if (g1 == 0 || g2 == 0) continue;
        const auto tp = [](std::int64_t ns) {
          return Clock::time_point(std::chrono::nanoseconds(ns));
        };
        spans_.add("exec.queue", tp(t_ret[i]), tp(g1), parent, ids[i]);
        spans_.add("kernels.generation", tp(g1), tp(g2), parent, ids[i]);
        spans_.add("exec.tail", tp(g2), tp(t_done), parent, ids[i]);
        const double gen_ns = static_cast<double>(g2 - g1);
        s.gen_us.push_back(1e-3 * gen_ns);
        s.queue_ms.push_back(1e-6 * (static_cast<double>(g1 - t_ret[i]) - gen_ns));
        s.tail_us.push_back(1e-3 * static_cast<double>(t_done - g2));
      }
    }
  }

 private:
  ServiceHandle& h_;
  JobStream& jobs_;
  std::uint64_t next_id_;
  const Golden& golden_;
  Spans& spans_;
  bool emit_golden_;
  std::array<Slot, kWindow> slots_;
};

/// Writes the seeded journal history once: kHistoryJobs jobs through the
/// same closed loop, then drain (which seals the journal).
void write_history(const fs::path& dir, std::uint64_t seed, const Golden& golden) {
  auto h = open_handle(dir);
  JobStream jobs(seed ^ 0x9e3779b97f4a7c15ULL);
  Spans quiet(false);
  Client client(*h, jobs, 1, golden, quiet, false);
  Samples s;
  std::map<std::string, std::string> seen;
  for (std::uint64_t w = 0; w < kHistoryJobs / kWindow; ++w)
    client.window(s, false, seen);
  if (!h->drain().ok()) throw std::runtime_error("history drain failed");
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

}  // namespace

Result run_service_small_jobs(const Options& opt, const Golden& golden,
                              Spans& spans) {
  Result r;
  const fs::path root = fs::path(opt.out_dir) /
                        ("service-" + std::to_string(getpid()) + "-" +
                         std::to_string(opt.seed));
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root);
  const fs::path history = root / "history";
  {
    Scope s(spans, "service.write_history", 0);
    write_history(history, opt.seed, golden);
  }

  // Set-up: copy the sealed history into a fresh directory, reopen it
  // (replay), and run one warm-up window. Repeated; the last one is kept.
  std::unique_ptr<ServiceHandle> h;
  JobStream jobs(opt.seed);
  std::unique_ptr<Client> client;
  std::vector<double> replay_s;
  std::map<std::string, std::string> seen;
  fs::path run_dir;
  std::vector<double> setups;
  for (unsigned rep = 0; rep < kSetups; ++rep) {
    Scope s(spans, "setup", rep);
    client.reset();
    h.reset();
    if (!run_dir.empty()) fs::remove_all(run_dir, ec);
    run_dir = root / ("run" + std::to_string(rep));
    fs::copy(history, run_dir, fs::copy_options::recursive);
    // Timed: the restart work (open + replay + one warm-up window), not
    // the copy, normalized by the CPU reference probed around it.
    const double probe_before = cpu_reference_ms();
    const auto t0 = Clock::now();
    {
      Scope o(spans, "durable.open", rep);
      h = open_handle(run_dir);
    }
    replay_s.push_back(seconds_since(t0));
    const auto& info = h->recovery_info();
    if (!info.restarted || !info.was_sealed || info.dropped_bytes != 0)
      throw std::runtime_error("history did not reopen sealed and intact");
    jobs = JobStream(opt.seed);
    client = std::make_unique<Client>(*h, jobs, h->max_submission_id() + 1,
                                      golden, spans, false);
    Samples warm;
    client->window(warm, false, seen);
    const double took = seconds_since(t0);
    setups.push_back(took * kCpuReferenceNominalMs /
                     (0.5 * (probe_before + cpu_reference_ms())));
  }
  const double setup_s = median(setups);

  Samples s;
  const std::uint64_t fsync0 = counter("mcopt_journal_fsyncs_total");
  const std::uint64_t bytes0 = counter("mcopt_journal_bytes_total");
  double fsyncs_per_job = 0.0, bytes_per_job = 0.0;
  double traced_s = 0.0, untraced_s = 0.0;
  std::uint64_t traced_jobs = 0, untraced_jobs = 0;
  Usage rss_fixed;
  std::uint64_t jobs_fixed = 0;
  const Usage u0 = usage_now();
  client = std::make_unique<Client>(*h, jobs, h->max_submission_id() + 1, golden,
                                    spans, opt.emit_golden);
  const auto t_start = Clock::now();
  auto t_slice = t_start;
  std::size_t slice_first = 0;
  std::uint64_t slice_jobs = 0;
  std::vector<double> slice_rate, slice_p50, slice_p90, probes, ref_ms;
  double probe_s = 0.0;
  unsigned windows = 0;
  while (windows % kSliceWindows != 0 || windows < kCheckpointEvery ||
         seconds_since(t_start) < opt.seconds) {
    // Traced runs alternate recorded and paused windows (hooks included):
    // the throughput difference is the cost of the benchmark's own tracing.
    const bool paused = windows % 2 == 1;
    spans.set_paused(paused);
    const auto t_w = Clock::now();
    const std::uint64_t before = s.completed;
    client->window(s, spans.active(), seen);
    ++windows;
    if (windows % kCheckpointEvery == 0) {
      Scope c(spans, "durable.checkpoint", windows);
      if (!h->checkpoint().ok()) throw std::runtime_error("checkpoint failed");
    }
    if (windows == kCheckpointEvery) {
      // Fixed work point: the executor keeps a report per job for the
      // process lifetime, so RSS at the end of a time-bounded run would
      // grow with throughput. Peak RSS is read here instead, and the
      // per-job growth after it is a per-layer metric.
      rss_fixed = usage_now();
      jobs_fixed = s.completed;
      const double jobs_done = static_cast<double>(kCheckpointEvery) * kWindow;
      fsyncs_per_job =
          static_cast<double>(counter("mcopt_journal_fsyncs_total") - fsync0) / jobs_done;
      bytes_per_job =
          static_cast<double>(counter("mcopt_journal_bytes_total") - bytes0) / jobs_done;
    }
    (paused ? untraced_s : traced_s) += seconds_since(t_w);
    (paused ? untraced_jobs : traced_jobs) += s.completed - before;
    if (windows % kProbeWindows == 0) {
      // CPU reference between windows, while the workers are idle; its
      // time is excluded from the slice.
      const auto t_probe = Clock::now();
      probes.push_back(cpu_reference_ms());
      probe_s += seconds_since(t_probe);
    }
    if (windows % kSliceWindows == 0) {
      // Host-speed normalization per slice (see cpu_reference_ms).
      const double speed = kCpuReferenceNominalMs / median(probes);
      ref_ms.push_back(median(probes));
      std::vector<double> lat(
          s.latency_ms.begin() + static_cast<std::ptrdiff_t>(slice_first),
          s.latency_ms.end());
      for (double& v : lat) v *= speed;
      slice_rate.push_back(static_cast<double>(s.completed - slice_jobs) /
                           ((seconds_since(t_slice) - probe_s) * speed));
      slice_p50.push_back(quantile(lat, 0.5));
      slice_p90.push_back(quantile(lat, 0.9));
      slice_first = s.latency_ms.size();
      slice_jobs = s.completed;
      probes.clear();
      probe_s = 0.0;
      t_slice = Clock::now();
    }
  }
  const Usage u1 = usage_now();
  spans.set_paused(false);
  r.attempted = static_cast<std::uint64_t>(windows) * kWindow;

  // Drain seals the journal; a reopen must find it sealed with nothing torn.
  bool reopen_ok = false;
  {
    Scope d(spans, "durable.drain_reopen", 0);
    const bool drained = h->drain().ok();
    client.reset();
    h.reset();
    auto again = open_handle(run_dir);
    const auto& info = again->recovery_info();
    reopen_ok = drained && info.was_sealed && info.dropped_bytes == 0;
    if (!reopen_ok)
      r.notes.push_back("journal did not reopen sealed with 0 dropped bytes");
  }

  double crc_gbs = 0.0;
  if (spans.enabled()) {
    // CRC32C on one job-sized field (a triad job's result vector).
    Scope c(spans, "util.crc32c", 0);
    std::vector<double> field(kTriadN);
    for (std::size_t i = 0; i < kTriadN; ++i) field[i] = 1.0 + static_cast<double>(i);
    std::vector<double> t;
    std::uint32_t sink = 0;
    for (int rep = 0; rep < 2000; ++rep) {
      const auto t0 = Clock::now();
      sink ^= util::crc32c(field.data(), kTriadN * sizeof(double));
      t.push_back(seconds_since(t0));
    }
    crc_gbs = sink == 0xffffffffu ? 0.0
                                  : static_cast<double>(kTriadN * sizeof(double)) /
                                        median(t) / 1e9;
  }
  fs::remove_all(root, ec);

  if (opt.emit_golden) r.golden_out.insert(seen.begin(), seen.end());
  r.failed = reopen_ok ? r.attempted - s.verified : r.attempted;
  r.correct = r.failed == 0;
  const double ok_frac = static_cast<double>(r.attempted - r.failed) /
                         static_cast<double>(r.attempted);
  set_end_to_end(r, setup_s, rss_fixed.max_rss_mb, ok_frac, median(slice_rate),
                 s.latency_ms);
  r.end_to_end["item_p50_ms"].value = median(slice_p50);
  r.end_to_end["item_p90_ms"].value = median(slice_p90);
  r.notes.push_back("service_small_jobs: closed loop, 1 client, window " +
                    std::to_string(kWindow) + ", " + std::to_string(kWorkers) +
                    " workers, 4 tenants; " + std::to_string(windows) + " windows in " +
                    std::to_string(slice_rate.size()) + " slices, " +
                    std::to_string(s.latency_ms.size()) + " jobs timed");

  auto& L = r.per_layer;
  const double jobs_done = static_cast<double>(std::max<std::uint64_t>(s.completed, 1));
  L["service.submit_us_p50"] = {quantile(s.submit_us, 0.5), "us"};
  L["service.submit_us_p90"] = {quantile(s.submit_us, 0.9), "us"};
  L["exec.queue_ms_p50"] = {quantile(s.queue_ms, 0.5), "ms"};
  L["exec.queue_ms_p90"] = {quantile(s.queue_ms, 0.9), "ms"};
  L["kernels.gen_us"] = {quantile(s.gen_us, 0.5), "us"};
  L["exec.tail_us"] = {quantile(s.tail_us, 0.5), "us"};
  L["exec.nvcsw_per_job"] = {static_cast<double>(u1.nvcsw - u0.nvcsw) / jobs_done,
                             "count"};
  L["exec.nivcsw_per_job"] = {static_cast<double>(u1.nivcsw - u0.nivcsw) / jobs_done,
                              "count"};
  L["seg.minflt_per_job"] = {static_cast<double>(u1.minflt - u0.minflt) / jobs_done,
                             "count"};
  L["durable.flush_us_p50"] = {quantile(s.flush_us, 0.5), "us"};
  L["durable.flush_us_p90"] = {quantile(s.flush_us, 0.9), "us"};
  L["durable.pump_us_p50"] = {quantile(s.pump_us, 0.5), "us"};
  L["durable.pump_us_p90"] = {quantile(s.pump_us, 0.9), "us"};
  L["durable.fsyncs_per_job"] = {fsyncs_per_job, "count"};
  L["durable.journal_bytes_per_job"] = {bytes_per_job, "B"};
  L["service.rss_bytes_per_job"] = {
      (u1.max_rss_mb - rss_fixed.max_rss_mb) * 1024.0 * 1024.0 /
          static_cast<double>(std::max<std::uint64_t>(s.completed - jobs_fixed, 1)),
      "B"};
  L["host.cpu_reference_ms"] = {median(ref_ms), "ms"};
  L["durable.replay_s"] = {median(replay_s), "s"};
  L["util.crc32c_gbs"] = {crc_gbs, "GB/s"};
  if (spans.enabled() && traced_s > 0.0 && untraced_s > 0.0)
    L["obs.bench_trace_overhead_pct"] = {
        100.0 * ((static_cast<double>(untraced_jobs) / untraced_s) /
                     (static_cast<double>(traced_jobs) / traced_s) -
                 1.0),
        "%"};
  return r;
}

}  // namespace perfbench
