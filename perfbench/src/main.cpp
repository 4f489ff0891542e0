// perfbench: end-to-end and per-layer performance benchmark of mcopt.
//
//   perfbench --workload <des_sweep|native_kernels|service_small_jobs>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--golden <path>] [--out-dir <dir>] [--emit-golden]
//
// Prints human-readable notes, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics when
// untraced, the per-layer metrics when traced. A traced run also writes its
// spans (Chrome trace JSON) and per-layer metrics JSON under --out-dir.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "common.h"

namespace {

using namespace perfbench;

std::string metrics_json(const std::map<std::string, Metric>& metrics,
                         bool& finite) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      finite = false;
      v = 0.0;
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}";
}

bool write_text(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && wrote;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <des_sweep|"
               "native_kernels|service_small_jobs> --seed <n> --seconds <s> "
               "--trace <0|1> [--golden <path>] [--out-dir <dir>] "
               "[--emit-golden]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string golden_path = "perfbench/golden.txt";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--emit-golden") {
      opt.emit_golden = true;
      continue;
    }
    if ((v = value()) == nullptr) return usage(("missing value for " + arg).c_str());
    if (arg == "--workload") opt.workload = v;
    else if (arg == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") opt.seconds = std::strtod(v, nullptr);
    else if (arg == "--trace") opt.trace = std::string(v) == "1";
    else if (arg == "--golden") golden_path = v;
    else if (arg == "--out-dir") opt.out_dir = v;
    else return usage(("unknown option " + arg).c_str());
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");

  const Golden golden(golden_path);
  if (!golden.loaded() && !opt.emit_golden)
    return usage(("golden table not found at " + golden_path).c_str());
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) return usage(("cannot create " + opt.out_dir).c_str());

  Spans spans(opt.trace);
  Result r;
  try {
    if (opt.workload == "des_sweep") r = run_des_sweep(opt, golden, spans);
    else if (opt.workload == "native_kernels")
      r = run_native_kernels(opt, golden, spans);
    else if (opt.workload == "service_small_jobs")
      r = run_service_small_jobs(opt, golden, spans);
    else return usage(("unknown workload '" + opt.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  if (opt.emit_golden) {
    for (const auto& [name, value] : r.golden_out)
      std::printf("%s %s\n", name.c_str(), value.c_str());
    return 0;
  }

  bool finite = true;
  const std::string metrics =
      metrics_json(opt.trace ? r.per_layer : r.end_to_end, finite);
  if (opt.trace) {
    const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed);
    if (!spans.write_chrome_trace(stem + ".trace.json") ||
        !write_text(stem + ".layers.json", metrics + "\n")) {
      std::fprintf(stderr, "perfbench: cannot write artifacts at %s.*\n",
                   stem.c_str());
      return 1;
    }
    std::printf("# spans: %zu kept, %llu dropped -> %s.trace.json\n",
                spans.size(), static_cast<unsigned long long>(spans.dropped()),
                stem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              (r.correct && finite) ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
