// Span recorder for the benchmark's traced run.
//
// The benchmark opens a span around every call it makes into a layer of
// the engine (parse, bind, gate, compile, execute, an algorithm entry
// point, a ra operator). Time the engine reports about the inside of a
// call (ExecCounters::facts_setup_us, IterationStats::millis, ...) becomes
// a derived child span, and whatever part of a span its children do not
// cover becomes an explicit remainder span, so a query's self times always
// add up to its wall time. Spans stay in memory and are written out as
// JSON lines when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< relative to the recorder's epoch
  int64_t end_ns = 0;
  int parent = -1;       ///< index of the parent span; -1 for a root
  int query = -1;        ///< id shared by every span of one query or probe
  /// True when the duration was reported by the engine (or computed as a
  /// remainder) rather than timed at a call boundary; such spans are laid
  /// out back to back from the parent's start.
  bool derived = false;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  /// Opens a root span and gives it a fresh query id.
  int OpenRoot(const std::string& name);
  /// Opens a child of `parent` (same query id), starting now.
  int Open(const std::string& name, int parent);
  void Close(int id);
  /// Appends a span timed elsewhere (e.g. in a child process); a root
  /// (`parent` < 0) gets a fresh query id.
  int AddTimed(const std::string& name, int parent, Clock::time_point start,
               Clock::time_point end);
  /// Appends a child of `parent` whose duration the engine reported.
  int AddDerived(const std::string& name, int parent, int64_t duration_ns);
  /// Appends the part of `id` its children do not cover as child `name`.
  /// Call after `id` is closed and all its other children exist.
  int AddRemainder(const std::string& name, int id);

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(int id) const { return spans_[id]; }

  /// Duration of `id` minus the durations of its direct children.
  int64_t SelfNs(int id) const;

  /// Checks every span: its self time is not negative (its children,
  /// timed or engine-reported, do not add up to more than it took), and a
  /// timed child lies inside its parent. Returns the number of failures;
  /// `first_error` describes the first one.
  int CheckAttribution(std::string* first_error) const;

  /// Writes one JSON object per span; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t Now() const;
  int64_t Since(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
  int next_query_ = 0;
};

}  // namespace perfbench
