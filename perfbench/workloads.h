// The benchmark's workloads: generated inputs, the seeded query cycle of
// each workload, how a query is executed (plain or traced), and how its
// answer is checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/with_plus.h"
#include "graph/graph.h"
#include "ra/catalog.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

enum class Engine {
  kAlgos,  ///< gpr::algos entry points
  kSql,    ///< SQL text through gpr::sql
};

struct WorkloadSpec {
  std::string name;
  std::string input;  ///< one-line description of the generated graph
  Engine engine;
  int dop;
  /// Independent graphs in the catalog; graph i > 0 is registered as
  /// E<i>, V<i>, VL<i>, and every cycle runs the mix once per graph.
  int graphs;
  /// One cycle's queries before the seeded shuffle: algos entry points
  /// ("wcc", "bfs", ...) or SQL query labels ("sql.cc", ...).
  std::vector<std::string> mix;
};

/// mv-er64k, sql-rmat1k and set-rmat16k, in that order.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// The workload's input graphs for `seed`; the same seed gives the same
/// graphs (with node weights and labels attached).
std::vector<gpr::graph::Graph> GenerateGraphs(const WorkloadSpec& w,
                                              uint64_t seed);

/// Registers graph i under E<i>, V<i>, VL<i> (no suffix for graph 0).
gpr::Status RegisterGraphs(const std::vector<gpr::graph::Graph>& graphs,
                           gpr::ra::Catalog* catalog);

/// One query of a cycle.
struct QuerySpec {
  std::string label;   ///< e.g. "wcc", "sql.pagerank"
  std::string algo;    ///< algos entry point ("" for SQL)
  int graph = 0;       ///< which of the workload's graphs it reads
  int64_t source = 0;  ///< BFS / SSSP source
  int cap = 0;         ///< iteration cap (0 = the algorithm's default)
  std::string sql;     ///< SQL text (empty for algos queries)
};

/// The workload's query cycle for `seed`, in its seeded fixed order.
std::vector<QuerySpec> MakeCycle(
    const WorkloadSpec& w, const std::vector<gpr::graph::Graph>& graphs,
    uint64_t seed);

/// The SQL queries of sql-rmat1k over graph `graph` (`g`), unshuffled.
std::vector<QuerySpec> SqlQueries(const gpr::graph::Graph& g, int graph,
                                  uint64_t seed);

/// The algorithm names with an algos entry point and a native twin.
const std::vector<std::string>& AlgoNames();
QuerySpec AlgoQuery(const std::string& algo, const gpr::graph::Graph& g,
                    uint64_t seed);

/// A query's answer plus what the engine reported about its fixpoint
/// (counters and iterations stay empty for untraced SQL).
struct Answer {
  gpr::Status status;
  gpr::ra::Table table;
  gpr::core::ExecCounters counters;
  std::vector<gpr::core::IterationStats> iters;
};

/// Runs `q`. With a tracer, every call into a layer becomes a span under
/// `parent` (SQL goes through the same steps as sql::RunSql, one public
/// entry point at a time); without one, SQL runs through sql::RunSql.
Answer Execute(const QuerySpec& q, gpr::ra::Catalog& catalog, int dop,
               Tracer* tracer, int parent);

/// Parses, binds, checks, gates and compiles SQL query `q` (no execution),
/// each step a span under `parent` — the SQL front end timed on its own.
gpr::Status TraceSqlFrontEnd(const QuerySpec& q,
                             const gpr::ra::Catalog& catalog, int dop,
                             Tracer* tracer, int parent);

/// What a correct answer looks like: the native baseline's result for the
/// same algorithm and parameters, or (when no twin exists) the checksum of
/// the warm-up answer.
struct Expectation {
  enum class Kind { kNodeValues, kReachSet, kCoreNodes, kChecksum };
  Kind kind = Kind::kChecksum;
  std::vector<double> values;  ///< per node; 0/1 flags for sets
  double tolerance = 0;        ///< relative, for floating-point values
  bool has_checksum = false;
  uint64_t checksum = 0;
  double native_ms = -1;       ///< wall time of the native twin; -1 = none
};

Expectation NativeTwin(const QuerySpec& q, const gpr::graph::Graph& g);

/// Order-insensitive hash of a table's rows.
uint64_t Checksum(const gpr::ra::Table& t);

/// "" when `t` is a correct answer, else what is wrong.
std::string CheckAnswer(const Expectation& e, const gpr::ra::Table& t);

}  // namespace perfbench
