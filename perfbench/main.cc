// perfbench — the with+ benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--trace-out <file>]
//
// One client in one process runs a closed loop: the next query starts
// when the previous one returns. A run builds the workload's graph and
// catalog once for itself, computes the native baseline answer for every
// query of the cycle, runs one untimed warm-up cycle, then repeats whole
// cycles, in a seeded fixed order, until --seconds of them have passed.
// Every answer is checked. setup_s is timed apart, at points spread over
// the run, in child processes that run this program with
// `--setup-child 1`: each builds the catalog once from a fresh heap and
// prints when each step ended.
//
// Between queries and next to the set-ups the run times a fixed unit of
// work (calibrate.h), and reports its end-to-end times scaled to a
// reference machine speed, with the figures as measured beside them.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// the first half of the time runs untraced and the second half traced;
// then standalone calls into single layers ("probes") run, and the run
// reports the per-layer metrics (README.md lists them). The last line of
// standard output is one JSON object.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "exec/thread_pool.h"
#include "probes.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace graph = gpr::graph;
namespace ra = gpr::ra;

// Set-up is timed at kSetUpPoints points spread over the run: before the
// warm-up and then at cycle boundaries. At each point fresh child
// processes build the catalog until kMinSetUpBatchSeconds have passed
// (at most kMaxSetUpsPerPoint of them).
constexpr int kSetUpPoints = 8;
constexpr double kMinSetUpBatchSeconds = 0.25;
constexpr int kMaxSetUpsPerPoint = 20;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_out;
  bool setup_child = false;  ///< build the catalog once, print the times
};

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(value, "1") == 0;
      if (!o->trace && std::strcmp(value, "0") != 0) return false;
    } else if (flag == "--git-sha") {
      o->git_sha = value;
    } else if (flag == "--trace-out") {
      o->trace_out = value;
    } else if (flag == "--setup-child") {
      o->setup_child = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || errno != 0)) return false;
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void PrintHeader(const Options& o) {
  std::printf("# perfbench: with+ graph queries, closed loop, 1 client\n");
  std::printf("# host: nproc=%u cpu=\"%s\"\n",
              std::thread::hardware_concurrency(), CpuModel().c_str());
  std::printf("# build: compiler=\"%s\" build_type=%s git=%s\n",
              Compiler().c_str(), PERFBENCH_BUILD_TYPE, o.git_sha.c_str());
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  for (const WorkloadSpec& w : Workloads()) {
    std::string mix;
    for (const std::string& q : w.mix) mix += (mix.empty() ? "" : ",") + q;
    std::printf(
        "# workload %s: dop=%d queries/cycle=%zu mix=%s input=\"%s\"\n",
        w.name.c_str(), w.dop, w.mix.size() * w.graphs, mix.c_str(),
        w.input.c_str());
  }
}

/// When one set-up generated its graphs and finished registering them,
/// in steady_clock ticks (CLOCK_MONOTONIC, shared by all processes).
struct SetUpTimes {
  Tracer::Clock::rep start = 0, generated = 0, registered = 0;
};

/// The body of a `--setup-child 1` process: one set-up in a fresh process,
/// its times printed as one line.
int SetUpChild(const WorkloadSpec& w, uint64_t seed) {
  SetUpTimes t;
  t.start = Tracer::Clock::now().time_since_epoch().count();
  const std::vector<graph::Graph> graphs = GenerateGraphs(w, seed);
  t.generated = Tracer::Clock::now().time_since_epoch().count();
  ra::Catalog catalog;
  const gpr::Status st = RegisterGraphs(graphs, &catalog);
  t.registered = Tracer::Clock::now().time_since_epoch().count();
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%lld %lld %lld\n", static_cast<long long>(t.start),
              static_cast<long long>(t.generated),
              static_cast<long long>(t.registered));
  return 0;
}

/// Runs this program as a `--setup-child 1` process and reads its times.
/// A fresh process starts from a fresh heap, as the program's own first
/// set-up does. Set-ups repeated in one process reuse the memory the
/// previous copy freed; on mv-er64k they ran from 160 to 260 ms in one
/// process, depending on where the allocator placed them.
bool TimeSetUpInChild(const Options& o, SetUpTimes* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const std::string seed = std::to_string(o.seed);
  const char* argv[] = {"perfbench",     "--workload", o.workload.c_str(),
                        "--seed",        seed.c_str(), "--setup-child",
                        "1",             nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    return false;
  }
  std::string line;
  char buf[256];
  ssize_t got;
  while ((got = read(fds[0], buf, sizeof(buf))) != 0) {
    if (got < 0 && errno != EINTR) break;
    if (got > 0) line.append(buf, static_cast<size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  long long t[3] = {0, 0, 0};
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(line.c_str(), "%lld %lld %lld", &t[0], &t[1], &t[2]) != 3) {
    return false;
  }
  out->start = t[0];
  out->generated = t[1];
  out->registered = t[2];
  return true;
}

/// Times from-scratch set-ups in child processes at points spread over
/// the run, so setup_s is a median over the same stretch of time as the
/// query metrics.
struct SetUpSampler {
  const Options* o = nullptr;
  Tracer* tracer = nullptr;
  Calibrator* calibrator = nullptr;  ///< measured before and after a point
  std::vector<double> seconds;  ///< one per timed set-up
  bool failed = false;

  /// Runs one batch of set-ups; returns the wall seconds it took.
  double SamplePoint() {
    using Clock = Tracer::Clock;
    const auto at = [](Clock::rep ticks) {
      return Clock::time_point(Clock::duration(ticks));
    };
    const auto t0 = Clock::now();
    calibrator->MeasureSerial();
    double batch = 0;
    for (int i = 0; i < kMaxSetUpsPerPoint && batch < kMinSetUpBatchSeconds;
         ++i) {
      SetUpTimes c;
      if (!TimeSetUpInChild(*o, &c)) {
        std::fprintf(stderr, "set-up in a child process failed\n");
        failed = true;
        break;
      }
      if (tracer != nullptr) {
        const int root =
            tracer->AddTimed("setup", -1, at(c.start), at(c.registered));
        tracer->AddTimed("graph.generate", root, at(c.start),
                         at(c.generated));
        tracer->AddTimed("graph.register", root, at(c.generated),
                         at(c.registered));
        tracer->AddRemainder("bench.between_calls", root);
      }
      const double s = std::chrono::duration<double>(at(c.registered) -
                                                     at(c.start))
                           .count();
      seconds.push_back(s);
      batch += s;
    }
    calibrator->MeasureSerial();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }
};

/// One timed query.
struct Sample {
  size_t slot = 0;
  double wall_ms = 0;
  double cpu_ms = 0;
  uint64_t batches = 0;  ///< thread-pool batches dispatched (traced only)
  bool ok = false;
  gpr::core::ExecCounters counters;
  std::vector<gpr::core::IterationStats> iters;
};

struct Run {
  const WorkloadSpec* w = nullptr;
  ra::Catalog* catalog = nullptr;
  std::vector<QuerySpec> cycle;
  std::vector<Expectation> expect;
  int attempted = 0;
  int failed = 0;

  void Fail(const QuerySpec& q, const std::string& what) {
    ++failed;
    std::fprintf(stderr, "FAILED %s: %s\n", q.label.c_str(), what.c_str());
  }

  /// Runs cycle slot `slot` once and checks the answer (outside the
  /// timed interval). In the warm-up (`warmup`), checksum-checked
  /// queries record their reference checksum instead.
  Sample RunOne(size_t slot, Tracer* tracer, bool warmup) {
    const QuerySpec& q = cycle[slot];
    Sample s;
    s.slot = slot;
    gpr::exec::ThreadPool* pool =
        tracer != nullptr ? &gpr::exec::ThreadPool::Global() : nullptr;
    const uint64_t batches0 = pool != nullptr ? pool->dispatched_batches() : 0;
    const double cpu0 = CpuMs();
    const auto t0 = std::chrono::steady_clock::now();
    const int root = tracer != nullptr ? tracer->OpenRoot("query." + q.label)
                                       : -1;
    Answer a = Execute(q, *catalog, w->dop, tracer, root);
    if (tracer != nullptr) tracer->Close(root);
    s.wall_ms = tracer != nullptr
                    ? static_cast<double>(tracer->span(root).duration_ns()) /
                          1e6
                    : MsSince(t0);
    s.cpu_ms = CpuMs() - cpu0;
    if (pool != nullptr) s.batches = pool->dispatched_batches() - batches0;
    if (tracer != nullptr) tracer->AddRemainder("bench.between_calls", root);

    ++attempted;
    Expectation& e = expect[slot];
    std::string error;
    if (!a.status.ok()) {
      error = a.status.ToString();
    } else if (warmup && e.kind == Expectation::Kind::kChecksum) {
      e.checksum = Checksum(a.table);
      e.has_checksum = true;
    } else {
      error = CheckAnswer(e, a.table);
    }
    s.ok = error.empty();
    if (!s.ok) Fail(q, error);
    s.counters = a.counters;
    s.iters = std::move(a.iters);
    return s;
  }

  /// Whole cycles until `seconds` of them have passed. When `setups`
  /// covers `points` of the set-up points, it samples them at cycle
  /// boundaries, spaced evenly; with a `calibrator`, it runs calibration
  /// units after each query. Neither's time counts.
  std::vector<Sample> RunCycles(double seconds, Tracer* tracer,
                                SetUpSampler* setups, int points,
                                Calibrator* calibrator) {
    std::vector<Sample> out;
    const auto t0 = std::chrono::steady_clock::now();
    double paused_ms = 0;
    int taken = 0;
    do {
      for (size_t slot = 0; slot < cycle.size(); ++slot) {
        out.push_back(RunOne(slot, tracer, /*warmup=*/false));
        if (calibrator != nullptr) {
          paused_ms += calibrator->Pay(out.back().wall_ms);
        }
      }
      const double elapsed_ms = MsSince(t0) - paused_ms;
      if (taken < points && elapsed_ms >= taken * seconds * 1e3 / points) {
        paused_ms += setups->SamplePoint() * 1e3;
        ++taken;
      }
    } while (MsSince(t0) - paused_ms < seconds * 1e3);
    while (taken++ < points) setups->SamplePoint();
    return out;
  }
};

std::vector<double> Walls(const std::vector<Sample>& samples) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(s.wall_ms);
  return v;
}

/// Name, value and unit of one reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The end-to-end metrics. Times and rates are scaled to reference
/// machine speed (calibrate.h); the figures as measured go to `extra`.
std::vector<Metric> EndToEnd(const std::vector<Sample>& samples,
                             const std::vector<double>& setup_seconds,
                             int attempted, int failed,
                             const Calibrator& calibrator,
                             std::vector<Metric>* extra) {
  double wall = 0, cpu = 0;
  int correct = 0;
  for (const Sample& s : samples) {
    wall += s.wall_ms;
    cpu += s.cpu_ms;
    correct += s.ok ? 1 : 0;
  }
  const std::vector<double> walls = Walls(samples);
  const double n = static_cast<double>(samples.size());
  // Shown but not part of the JSON: error_rate is 0 on a correct run, and
  // p90 has at least ten samples beyond it only on sql-rmat1k.
  extra->push_back({"error_rate", static_cast<double>(failed) / attempted,
                    "fraction"});
  extra->push_back({"query_p90_ms", Quantile(walls, 0.9), "ms"});
  extra->push_back({"timed_queries", n, "count"});
  // Each measured figure with the scale of the calibration taken over the
  // same stretch of time: next to the queries, or next to the set-ups.
  const double q = calibrator.QueryScale();
  const double setup = Median(setup_seconds);
  const std::vector<std::pair<Metric, double>> measured = {
      {{"queries_per_s", correct / (wall / 1e3), "1/s"}, 1 / q},
      {{"query_p50_ms", Median(walls), "ms"}, q},
      {{"cpu_ms_per_query", cpu / n, "ms"}, q},
      {{"setup_s", setup, "s"}, calibrator.SerialScale()},
  };
  extra->push_back({"calibration.query_unit_ms", calibrator.QueryUnitMs(),
                    "ms"});
  extra->push_back({"calibration.query_batches",
                    static_cast<double>(calibrator.query_batches()), "count"});
  extra->push_back({"calibration.setup_unit_ms", calibrator.SerialUnitMs(),
                    "ms"});
  std::vector<Metric> out;
  for (const auto& [m, scale] : measured) {
    extra->push_back({"measured." + m.name, m.value, m.unit});
    out.push_back({m.name, m.value * scale, m.unit});
  }
  // The calibrator's buffers are resident for the whole run, so they add
  // exactly their size to the peak.
  out.push_back({"peak_rss_mb",
                 PeakRssMb() - static_cast<double>(
                                   calibrator.footprint_bytes()) / (1 << 20),
                 "MB"});
  return out;
}

std::vector<Metric> PerLayer(const Run& run, const Tracer& tracer,
                             const std::vector<Sample>& untraced,
                             const std::vector<Sample>& traced,
                             const Calibrator& calibrator) {
  // Spans of the traced cycle queries vs. of set-up and probe calls.
  std::vector<bool> in_query(tracer.spans().size(), false);
  std::map<std::string, std::vector<double>> self_ms, total_ms, query_self_ms;
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.span(static_cast<int>(i));
    in_query[i] = s.parent < 0 ? s.name.rfind("query.", 0) == 0
                               : in_query[s.parent];
    const double self =
        static_cast<double>(tracer.SelfNs(static_cast<int>(i))) / 1e6;
    self_ms[s.name].push_back(self);
    total_ms[s.name].push_back(static_cast<double>(s.duration_ns()) / 1e6);
    if (in_query[i]) query_self_ms[s.name].push_back(self);
  }
  const double nq = static_cast<double>(traced.size());
  auto per_call = [&](const std::string& name) { return Mean(self_ms[name]); };
  auto per_query = [&](const std::string& name) {
    return Sum(query_self_ms[name]) / nq;
  };

  std::vector<Metric> m;
  m.push_back({"graph.generate_ms", Median(self_ms["graph.generate"]), "ms"});
  m.push_back({"graph.register_ms", Median(self_ms["graph.register"]), "ms"});
  m.push_back({"sql.parse_us", per_call("sql.parse") * 1e3, "us"});
  m.push_back({"sql.bind_us", per_call("sql.bind") * 1e3, "us"});
  m.push_back({"analysis.gate_us", per_call("analysis.gate") * 1e3, "us"});
  m.push_back({"analysis.facts_ms", per_query("analysis.facts"), "ms"});
  m.push_back({"algos.prep_ms", per_call("algos.prep"), "ms"});
  for (const std::string& a : AlgoNames()) {
    m.push_back({"algos." + a + "_p50_ms", Median(total_ms["algos." + a]),
                 "ms"});
  }

  // core: the fixpoint call is core.execute (SQL) or the algos entry
  // point (which also covers the algorithm's own prep, gate and compile).
  double execute = 0, iter1 = 0, iterations = 0;
  std::vector<double> steady;
  gpr::core::ExecCounters sum;
  uint64_t batches = 0;
  double cpu = 0, wall = 0;
  for (const Sample& s : traced) {
    cpu += s.cpu_ms;
    wall += s.wall_ms;
    batches += s.batches;
    iterations += static_cast<double>(s.iters.size());
    if (!s.iters.empty()) iter1 += s.iters[0].millis;
    for (size_t k = 1; k < s.iters.size(); ++k) {
      steady.push_back(s.iters[k].millis);
    }
    const auto& c = s.counters;
    sum.cache_hits += c.cache_hits;
    sum.cache_misses += c.cache_misses;
    sum.cache_bytes += c.cache_bytes;
    sum.kernel_hits += c.kernel_hits;
    sum.kernel_fallbacks += c.kernel_fallbacks;
    sum.vector_batches += c.vector_batches;
    sum.vector_fallbacks += c.vector_fallbacks;
    sum.csr_builds += c.csr_builds;
    sum.rows_joined += c.rows_joined;
  }
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.span(static_cast<int>(i));
    if (in_query[i] &&
        (s.name == "core.execute" || s.name.rfind("algos.", 0) == 0)) {
      execute += static_cast<double>(s.duration_ns()) / 1e6;
    }
  }
  m.push_back({"core.compile_us", per_call("core.compile") * 1e3, "us"});
  m.push_back({"core.execute_ms", execute / nq, "ms"});
  m.push_back({"core.loop_ms", per_query("core.loop"), "ms"});
  m.push_back({"core.iter1_ms", iter1 / nq, "ms"});
  m.push_back({"core.iter_steady_ms", Median(steady), "ms"});
  m.push_back({"core.iterations", iterations / nq, "count"});
  m.push_back({"core.hoist_ms", per_query("core.hoist"), "ms"});
  m.push_back({"core.outside_loop_ms", per_query("core.outside_loop"), "ms"});

  for (const char* op :
       {"analyze", "columnize", "csr_build", "spmv", "join_groupby"}) {
    const std::string name = std::string("ra.") + op;
    m.push_back({name + "_ms", Median(self_ms[name]), "ms"});
  }
  m.push_back({"ra.cache_hit_ratio",
               Ratio(sum.cache_hits, sum.cache_hits + sum.cache_misses),
               "ratio"});
  m.push_back({"ra.kernel_hit_ratio",
               Ratio(sum.kernel_hits, sum.kernel_hits + sum.kernel_fallbacks),
               "ratio"});
  m.push_back({"ra.vector_fallback_ratio",
               Ratio(sum.vector_fallbacks,
                     sum.vector_batches + sum.vector_fallbacks),
               "ratio"});
  m.push_back({"ra.vector_batches", sum.vector_batches / nq, "count"});
  m.push_back({"ra.csr_builds", sum.csr_builds / nq, "count"});
  m.push_back({"ra.rows_joined", sum.rows_joined / nq, "count"});
  m.push_back({"ra.cache_bytes_mb", sum.cache_bytes / nq / (1 << 20), "MB"});
  m.push_back({"exec.batches_per_query", batches / nq, "count"});
  m.push_back({"exec.cpu_over_wall", cpu / wall, "ratio"});

  // Calibration: the native twin of each cycle slot vs. that slot's
  // median untraced latency.
  std::vector<std::vector<double>> by_slot(run.cycle.size());
  for (const Sample& s : untraced) by_slot[s.slot].push_back(s.wall_ms);
  double native = 0, rdbms = 0;
  int twins = 0;
  for (size_t slot = 0; slot < run.cycle.size(); ++slot) {
    if (run.expect[slot].native_ms < 0) continue;
    native += run.expect[slot].native_ms;
    rdbms += Median(by_slot[slot]);
    ++twins;
  }
  m.push_back({"baseline.native_ms", native / twins, "ms"});
  m.push_back({"baseline.rdbms_over_native", rdbms / native, "ratio"});

  const double plain = Median(Walls(untraced));
  m.push_back({"trace.overhead_pct",
               (Median(Walls(traced)) - plain) / plain * 100.0, "%"});
  m.push_back({"bench.calibration_unit_ms", calibrator.QueryUnitMs(), "ms"});
  return m;
}

/// Median latency of each query label, one line per label: shows which
/// queries of the mix the end-to-end figures are made of.
void PrintLabelLatencies(const Run& run, const std::vector<Sample>& samples) {
  std::map<std::string, std::vector<double>> by_label;
  for (const Sample& s : samples) {
    by_label[run.cycle[s.slot].label].push_back(s.wall_ms);
  }
  for (const auto& [label, walls] : by_label) {
    std::printf("# latency %-16s p50=%.3f ms n=%zu\n", label.c_str(),
                Median(walls), walls.size());
  }
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintJson(bool correct, int attempted, int failed,
               const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--git-sha <sha>] [--trace-out <file>]\n");
    return 2;
  }
  const WorkloadSpec* w = FindWorkload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  if (o.setup_child) return SetUpChild(*w, o.seed);
  PrintHeader(o);
  Calibrator calibrator(w->dop);

  std::unique_ptr<Tracer> tracer;
  if (o.trace) tracer = std::make_unique<Tracer>();
  SetUpSampler setups;
  setups.o = &o;
  setups.tracer = tracer.get();
  setups.calibrator = &calibrator;
  setups.SamplePoint();
  if (setups.failed) return 1;

  // The run's own catalog, untimed (the timed set-ups run in children).
  const std::vector<graph::Graph> graphs = GenerateGraphs(*w, o.seed);
  ra::Catalog catalog;
  const gpr::Status st = RegisterGraphs(graphs, &catalog);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 1;
  }

  Run run;
  run.w = w;
  run.catalog = &catalog;
  run.cycle = MakeCycle(*w, graphs, o.seed);
  for (const QuerySpec& q : run.cycle) {
    run.expect.push_back(NativeTwin(q, graphs[q.graph]));
  }
  for (size_t slot = 0; slot < run.cycle.size(); ++slot) {
    (void)run.RunOne(slot, nullptr, /*warmup=*/true);  // untimed
  }

  const double untraced_seconds = o.trace ? o.seconds / 2 : o.seconds;
  const std::vector<Sample> untraced = run.RunCycles(
      untraced_seconds, nullptr, &setups, kSetUpPoints - 1, &calibrator);
  if (setups.failed) return 1;

  std::vector<Metric> metrics, extra;
  std::string trace_error;
  if (!o.trace) {
    metrics = EndToEnd(untraced, setups.seconds, run.attempted, run.failed,
                       calibrator, &extra);
  } else {
    const std::vector<Sample> traced =
        run.RunCycles(o.seconds / 2, tracer.get(), &setups, 0, nullptr);
    const ProbeResult probes =
        RunProbes(*w, graphs[0], *run.catalog, run.cycle, o.seed,
                  tracer.get());
    run.attempted += probes.attempted;
    run.failed += probes.failed;
    metrics = PerLayer(run, *tracer, untraced, traced, calibrator);
    extra.push_back({"traced_queries", static_cast<double>(traced.size()),
                     "count"});
    const int bad = tracer->CheckAttribution(&trace_error);
    if (bad > 0) {
      std::fprintf(stderr, "trace attribution failed for %d spans: %s\n", bad,
                   trace_error.c_str());
    }
    if (!o.trace_out.empty() && !tracer->WriteJsonLines(o.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
      trace_error = "trace file not written";
    }
  }
  PrintLabelLatencies(run, untraced);
  PrintMetrics(extra);
  PrintMetrics(metrics);
  PrintJson(run.failed == 0 && trace_error.empty(), run.attempted, run.failed,
            metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
