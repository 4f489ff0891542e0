#include "spans.h"

#include <cstdio>

namespace perfbench {

Spans::Spans(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int Spans::begin(const char* name, std::uint64_t id) {
  if (!active()) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  if (spans_.size() >= kCap) {
    ++dropped_;
    open_.push_back(parent);  // keep the stack balanced; children reparent
    return -2;
  }
  spans_.push_back({name, std::chrono::steady_clock::now(), {}, parent, id});
  const int handle = static_cast<int>(spans_.size() - 1);
  open_.push_back(handle);
  return handle;
}

void Spans::end(int handle) {
  if (handle == -1) return;
  open_.pop_back();
  if (handle >= 0)
    spans_[static_cast<std::size_t>(handle)].stop =
        std::chrono::steady_clock::now();
}

void Spans::add(const char* name, TimePoint start, TimePoint stop, int parent,
                std::uint64_t id) {
  if (!active()) return;
  if (spans_.size() >= kCap) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, start, stop, parent, id});
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [&](TimePoint t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%llu},"
                  "\"traceEvents\":[\n",
               static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, us(s.start),
                 us(s.stop) - us(s.start), i, s.parent,
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
