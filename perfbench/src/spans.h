#pragma once
// The benchmark's own span recorder. Spans are recorded from the main
// thread around each call into a public mcopt function; phases that happen
// on executor worker threads are added afterwards from timestamps the
// workload captured. Everything stays in memory and is written once at exit
// as Chrome trace_event JSON. A disabled recorder costs one branch per span.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit Spans(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// True while spans are being recorded: enabled and not paused. Traced
  /// runs pause every other round to measure the recorder's own overhead.
  [[nodiscard]] bool active() const noexcept { return enabled_ && !paused_; }
  void set_paused(bool paused) noexcept { paused_ = paused; }

  /// Opens a span named `name` (a string literal) under the innermost open
  /// span; `id` is the item or job the span belongs to. Returns a handle
  /// for end(), or -1 when not active().
  int begin(const char* name, std::uint64_t id);
  void end(int handle);

  /// Records a completed span with explicit times under `parent` (a handle
  /// from begin(), or -1 for a root span).
  void add(const char* name, TimePoint start, TimePoint stop, int parent,
           std::uint64_t id);

  /// Spans beyond the cap are counted, not stored.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Writes Chrome trace_event JSON (complete "X" events, args carry the
  /// item/job id and the parent span index). Returns false on I/O failure.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    TimePoint start{};
    TimePoint stop{};
    int parent = -1;
    std::uint64_t id = 0;
  };
  static constexpr std::size_t kCap = 200000;

  bool enabled_ = false;
  bool paused_ = false;
  TimePoint origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint64_t dropped_ = 0;
};

/// RAII span: begin() at construction, end() at scope exit.
class Scope {
 public:
  Scope(Spans& spans, const char* name, std::uint64_t id)
      : spans_(spans), handle_(spans.begin(name, id)) {}
  ~Scope() { spans_.end(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int handle() const noexcept { return handle_; }

 private:
  Spans& spans_;
  int handle_;
};

}  // namespace perfbench
