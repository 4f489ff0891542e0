#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  u.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  u.nvcsw = static_cast<std::uint64_t>(ru.ru_nvcsw);
  u.nivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
  return u;
}

double cpu_reference_ms() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(1 << 12);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = i * 0x9e3779b97f4a7c15ULL;
    return t;
  }();
  static std::uint64_t sink = 0;
  std::uint64_t x = sink + 1;
  const auto t0 = Clock::now();
  for (int i = 0; i < 500000; ++i) {
    x = table[x & (table.size() - 1)] ^ (x >> 7) ^ (x * 31);
    x = (x & 1) ? x + 3 : x ^ 0x55;
  }
  const double ms = 1e3 * seconds_since(t0);
  sink = x;
  return ms;
}

Golden::Golden(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, value;
    if (fields >> name >> value) table_[name] = value;
  }
}

bool Golden::matches(const std::string& name, const std::string& value) const {
  const auto it = table_.find(name);
  return it != table_.end() && it->second == value;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Fnv::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

void Fnv::add_double(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void set_end_to_end(Result& r, double setup_s, double peak_rss_mb,
                    double ok_frac, double work_per_s,
                    const std::vector<double>& item_ms) {
  r.end_to_end["setup_s"] = {setup_s, "s"};
  r.end_to_end["peak_rss_mb"] = {peak_rss_mb, "MB"};
  r.end_to_end["ok_frac"] = {ok_frac, "frac"};
  r.end_to_end["work_per_s"] = {work_per_s, "1/s"};
  r.end_to_end["item_p50_ms"] = {quantile(item_ms, 0.5), "ms"};
  r.end_to_end["item_p90_ms"] = {quantile(item_ms, 0.9), "ms"};
}

}  // namespace perfbench
