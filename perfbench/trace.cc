#include "trace.h"

#include <cstdio>
#include <string>

namespace perfbench {

namespace {

// A remainder may dip below zero only by the rounding of the engine's
// microsecond counters; anything beyond this means the engine reported
// more time inside a call than the call took.
constexpr int64_t kRemainderSlackNs = 50'000;

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

int64_t Tracer::Now() const { return Since(Clock::now()); }

int64_t Tracer::Since(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int Tracer::OpenRoot(const std::string& name) {
  const int id = Open(name, -1);
  spans_[id].query = next_query_++;
  return id;
}

int Tracer::Open(const std::string& name, int parent) {
  Span s;
  s.name = name;
  s.start_ns = Now();
  s.end_ns = s.start_ns;
  s.parent = parent;
  s.query = parent >= 0 ? spans_[parent].query : -1;
  spans_.push_back(std::move(s));
  children_.emplace_back();
  const int id = static_cast<int>(spans_.size()) - 1;
  if (parent >= 0) children_[parent].push_back(id);
  return id;
}

void Tracer::Close(int id) { spans_[id].end_ns = Now(); }

int Tracer::AddTimed(const std::string& name, int parent,
                     Clock::time_point start, Clock::time_point end) {
  const int id = parent < 0 ? OpenRoot(name) : Open(name, parent);
  spans_[id].start_ns = Since(start);
  spans_[id].end_ns = Since(end);
  return id;
}

int Tracer::AddDerived(const std::string& name, int parent,
                       int64_t duration_ns) {
  int64_t start = spans_[parent].start_ns;
  for (int c : children_[parent]) {
    if (spans_[c].derived) start += spans_[c].duration_ns();
  }
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = start + duration_ns;
  s.parent = parent;
  s.query = spans_[parent].query;
  s.derived = true;
  spans_.push_back(std::move(s));
  children_.emplace_back();
  const int id = static_cast<int>(spans_.size()) - 1;
  children_[parent].push_back(id);
  return id;
}

int Tracer::AddRemainder(const std::string& name, int id) {
  const int64_t rest = SelfNs(id);
  const int64_t end = spans_[id].end_ns;
  const int child = AddDerived(name, id, rest);
  spans_[child].start_ns = end - rest;
  spans_[child].end_ns = end;
  return child;
}

int64_t Tracer::SelfNs(int id) const {
  int64_t self = spans_[id].duration_ns();
  for (int c : children_[id]) self -= spans_[c].duration_ns();
  return self;
}

int Tracer::CheckAttribution(std::string* first_error) const {
  int failures = 0;
  auto fail = [&](const std::string& msg) {
    if (failures++ == 0 && first_error != nullptr) *first_error = msg;
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t self = SelfNs(static_cast<int>(i));
    if (self < -kRemainderSlackNs) {
      fail("span " + s.name + " of query " + std::to_string(s.query) +
           " has negative self time " + std::to_string(self) + " ns");
    }
    if (s.parent < 0) continue;
    const Span& p = spans_[s.parent];
    if (!s.derived && (s.start_ns < p.start_ns || s.end_ns > p.end_ns)) {
      fail("span " + s.name + " lies outside its parent " + p.name);
    }
  }
  return failures;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  std::string line;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    line = "{\"id\": " + std::to_string(i) + ", \"name\": ";
    AppendJsonString(&line, s.name);
    line += ", \"query\": " + std::to_string(s.query) +
            ", \"parent\": " + std::to_string(s.parent) +
            ", \"start_ns\": " + std::to_string(s.start_ns) +
            ", \"end_ns\": " + std::to_string(s.end_ns) +
            ", \"self_ns\": " + std::to_string(SelfNs(static_cast<int>(i))) +
            ", \"derived\": " + (s.derived ? "true" : "false") + "}\n";
    ok = ok && std::fwrite(line.data(), 1, line.size(), f) == line.size();
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
