#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <regex>
#include <string>
#include <utility>

#include "algos/algos.h"
#include "analysis/analyzer.h"
#include "baseline/native_algos.h"
#include "core/psm.h"
#include "core/stratify.h"
#include "graph/generators.h"
#include "graph/relations.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "util/rng.h"

namespace perfbench {

namespace algos = gpr::algos;
namespace baseline = gpr::baseline;
namespace core = gpr::core;
namespace graph = gpr::graph;
namespace ra = gpr::ra;
using gpr::Result;
using gpr::Status;

namespace {

// Salts that split one workload seed into independent streams.
constexpr uint64_t kGraphSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kNodeDataSalt = 0x6a09e667f3bcc909ULL;
constexpr uint64_t kDagSalt = 0xbb67ae8584caa73bULL;
constexpr uint64_t kParamSalt = 0x3c6ef372fe94f82bULL;
constexpr uint64_t kOrderSalt = 0xa54ff53a5f1d36f1ULL;
constexpr uint64_t kCapSalt = 0x510e527fade682d1ULL;

constexpr int kPageRankIterations = 15;  // algos::PageRank's default
// Label propagation takes 7 to 13 rounds to converge on the set-rmat16k
// graphs of seeds 1-10; a cap of 5 gives every LP query the same number
// of iterations whatever the seed, which keeps its latency (the median
// query of that cycle) from moving with the input.
constexpr int kLabelPropIterations = 5;
constexpr int kCoreK = 5;  // AlgoOptions::k's default
constexpr double kDamping = 0.85;

std::string TableSuffix(int graph) {
  return graph == 0 ? "" : std::to_string(graph);
}

uint64_t Derive(uint64_t seed, uint64_t salt) {
  gpr::SplitMix64 mix(seed ^ salt);
  return mix.Next();
}

/// `count` distinct sources among the nodes whose out-degree is at least
/// the average, so a traversal starts inside the well-connected part of
/// the graph rather than at an isolated node.
std::vector<int64_t> PickSources(const graph::Graph& g, size_t count,
                                 uint64_t seed) {
  std::vector<int64_t> candidates;
  const double avg = g.AverageDegree();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (static_cast<double>(g.OutDegree(v)) >= avg) candidates.push_back(v);
  }
  gpr::SplitMix64 rng(Derive(seed, kParamSalt));
  std::vector<int64_t> out;
  while (out.size() < count && !candidates.empty()) {
    const size_t i = rng.NextBounded(candidates.size());
    out.push_back(candidates[i]);
    candidates[i] = candidates.back();
    candidates.pop_back();
  }
  return out;
}

void Shuffle(std::vector<QuerySpec>* v, uint64_t seed) {
  gpr::SplitMix64 rng(Derive(seed, kOrderSalt));
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.NextBounded(i)]);
  }
}

using AlgoFn = Result<core::WithPlusResult> (*)(ra::Catalog&,
                                                const algos::AlgoOptions&);

AlgoFn AlgoFor(const std::string& algo) {
  if (algo == "wcc") return &algos::Wcc;
  if (algo == "sssp") return &algos::SsspBellmanFord;
  if (algo == "pagerank") return &algos::PageRank;
  if (algo == "toposort") return &algos::TopoSort;
  if (algo == "labelprop") return &algos::LabelPropagation;
  if (algo == "kcore") return &algos::KCore;
  if (algo == "bfs") return &algos::BfsFrontier;
  return nullptr;
}

/// Turns what the engine reports about one fixpoint run into derived
/// child spans of `span`; the uncovered rest becomes core.outside_loop.
void AttributeFixpoint(Tracer* tracer, int span,
                       const core::ExecCounters& counters,
                       const std::vector<core::IterationStats>& iters) {
  double loop_ms = 0;
  for (const auto& it : iters) loop_ms += it.millis;
  tracer->AddDerived("analysis.facts", span,
                     static_cast<int64_t>(counters.facts_setup_us) * 1000);
  tracer->AddDerived("core.hoist", span,
                     static_cast<int64_t>(counters.hoist_setup_us) * 1000);
  tracer->AddDerived("core.loop", span,
                     static_cast<int64_t>(std::llround(loop_ms * 1e6)));
  tracer->AddRemainder("core.outside_loop", span);
}

void KeepFixpoint(core::WithPlusResult* r, Answer* out) {
  out->counters = r->counters;
  out->iters = std::move(r->iters);
}

/// Times `fn` as span `name` under `parent`.
template <typename Fn>
auto Step(Tracer* tracer, const char* name, int parent, Fn&& fn) {
  const int id = tracer->Open(name, parent);
  auto r = fn();
  tracer->Close(id);
  return r;
}

/// The front end of sql::RunSql up to the compiled procedure, one public
/// entry point per span (binder.cc keeps the reference sequence: parse,
/// bind, ExecuteWithPlus, final select; with_plus.cc the checks inside
/// ExecuteWithPlus).
Status TracedFrontEnd(const QuerySpec& q, const ra::Catalog& catalog,
                      const core::EngineProfile& profile, Tracer* tracer,
                      int parent, gpr::sql::BoundWithStatement* bound,
                      core::PsmProcedure* proc) {
  GPR_ASSIGN_OR_RETURN(gpr::sql::WithStatementAst ast,
                       Step(tracer, "sql.parse", parent, [&] {
                         return gpr::sql::ParseWithStatement(q.sql);
                       }));
  GPR_ASSIGN_OR_RETURN(*bound, Step(tracer, "sql.bind", parent, [&] {
                         return gpr::sql::BindWithStatement(ast, catalog);
                       }));
  const core::WithPlusQuery& query = bound->query;
  GPR_RETURN_NOT_OK(Step(tracer, "core.validate", parent, [&] {
    Status s = core::ValidateWithPlus(query);
    if (s.ok() && query.check_stratification) {
      s = core::CheckWithPlusStratified(query);
    }
    return s;
  }));
  if (profile.static_analysis_gate) {
    GPR_RETURN_NOT_OK(Step(tracer, "analysis.gate", parent, [&] {
      return gpr::analysis::GateWithPlus(query, catalog);
    }));
  }
  GPR_ASSIGN_OR_RETURN(*proc, Step(tracer, "core.compile", parent, [&] {
                         return core::CompileToPsm(query);
                       }));
  return Status::OK();
}

/// sql::RunSql with every call into a layer as a span under `parent`.
Status TracedSql(const QuerySpec& q, ra::Catalog& catalog,
                 const core::EngineProfile& profile, Tracer* tracer,
                 int parent, Answer* out) {
  gpr::sql::BoundWithStatement bound;
  core::PsmProcedure proc;
  GPR_RETURN_NOT_OK(
      TracedFrontEnd(q, catalog, profile, tracer, parent, &bound, &proc));
  const core::WithPlusQuery& query = bound.query;
  const int exec_span = tracer->Open("core.execute", parent);
  auto gov = gpr::exec::MakeGovernor(query.governor, query.cancel,
                                     query.fault_spec);
  Result<core::WithPlusResult> result =
      gov.ok() ? core::CallProcedure(proc, catalog, profile, /*seed=*/42,
                                     gov->has_value() ? &**gov : nullptr)
               : Result<core::WithPlusResult>(gov.status());
  tracer->Close(exec_span);
  GPR_RETURN_NOT_OK(result.status());
  AttributeFixpoint(tracer, exec_span, result->counters, result->iters);
  KeepFixpoint(&*result, out);
  if (!bound.final_select) {
    out->table = std::move(result->table);
    return Status::OK();
  }
  GPR_ASSIGN_OR_RETURN(
      out->table, Step(tracer, "sql.final_select", parent,
                       [&]() -> Result<ra::Table> {
                         const std::string& rec = query.rec_name;
                         result->table.set_name(rec);
                         if (catalog.Has(rec)) {
                           return Status::AlreadyExists(
                               "table '" + rec +
                               "' already exists in the catalog");
                         }
                         GPR_RETURN_NOT_OK(catalog.CreateTempTable(
                             rec, result->table.schema()));
                         GPR_RETURN_NOT_OK(catalog.ReplaceTable(
                             rec, std::move(result->table)));
                         auto fin = core::ExecutePlan(bound.final_select,
                                                      catalog, profile);
                         // The answer is already in `fin`; a failed drop
                         // must not mask its status (as in sql::RunSql).
                         (void)catalog.DropTable(rec);
                         return fin;
                       }));
  return Status::OK();
}

std::vector<double> NodeValues(const std::vector<int64_t>& v) {
  return std::vector<double>(v.begin(), v.end());
}

/// PaperPageRank over the graph with every edge weighted 1/outdeg(from),
/// the normalization algos::PageRank applies to E.
std::vector<double> NormalizedPageRank(const graph::Graph& g) {
  std::vector<graph::Edge> edges = g.EdgeList();
  for (auto& e : edges) {
    e.weight = 1.0 / static_cast<double>(g.OutDegree(e.from));
  }
  graph::Graph norm(g.num_nodes(), std::move(edges));
  return baseline::PaperPageRank(norm, kPageRankIterations, kDamping);
}

std::vector<double> ReachFlags(const graph::Graph& g, int64_t source) {
  const std::vector<int64_t> levels = baseline::Bfs(g, source);
  std::vector<double> flags(levels.size());
  for (size_t v = 0; v < levels.size(); ++v) flags[v] = levels[v] >= 0;
  return flags;
}

bool Near(double got, double want, double tolerance) {
  if (got == want) return true;
  return std::fabs(got - want) <=
         tolerance * std::max(1.0, std::fabs(want));
}

std::string Describe(const char* what, int64_t node, double got,
                     double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s at node %lld: got %.17g, want %.17g",
                what, static_cast<long long>(node), got, want);
  return buf;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"mv-er64k", "Erdos-Renyi, 65536 nodes, 524288 edges drawn",
       Engine::kAlgos, 1, 1, {"wcc", "sssp", "pagerank"}},
      // Four graphs: the short queries' latencies follow the structure of
      // a 1k-node graph (propagation depth, peeling levels), which varies
      // from seed to seed; a median over four graphs varies less.
      {"sql-rmat1k", "4 x R-MAT, 1024 nodes, 8192 edges drawn, node data",
       Engine::kSql, 1, 4,
       {"sql.cc", "sql.labelprop", "sql.pagerank", "sql.toposort",
        "sql.bfs"}},
      {"set-rmat16k",
       "R-MAT, 16384 nodes, 131072 edges drawn, made acyclic, node data",
       Engine::kAlgos, 2, 1,
       // LP three times: the median query of this cycle falls on LP, so
       // each cycle gives the median three samples instead of one.
       {"toposort", "labelprop", "labelprop", "labelprop", "kcore", "bfs",
        "bfs"}},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<graph::Graph> GenerateGraphs(const WorkloadSpec& w,
                                         uint64_t seed) {
  std::vector<graph::Graph> out;
  for (int i = 0; i < w.graphs; ++i) {
    // Graph 0 of a seed is the same whatever the graph count.
    const uint64_t s = i == 0 ? seed : Derive(seed, kGraphSalt + i);
    const uint64_t gseed = Derive(s, kGraphSalt);
    graph::Graph g;
    if (w.name == "mv-er64k") {
      g = graph::ErdosRenyi(1 << 16, size_t{8} << 16, gseed);
    } else if (w.name == "sql-rmat1k") {
      g = graph::Rmat(1 << 10, size_t{8} << 10, gseed);
    } else {
      g = graph::DagifyByPermutation(
          graph::Rmat(1 << 14, size_t{8} << 14, gseed), Derive(s, kDagSalt));
    }
    graph::AttachRandomNodeData(&g, Derive(s, kNodeDataSalt));
    out.push_back(std::move(g));
  }
  return out;
}

Status RegisterGraphs(const std::vector<graph::Graph>& graphs,
                      ra::Catalog* catalog) {
  for (size_t i = 0; i < graphs.size(); ++i) {
    const std::string suffix = TableSuffix(static_cast<int>(i));
    GPR_RETURN_NOT_OK(graph::RegisterGraph(graphs[i], catalog, "E" + suffix,
                                           "V" + suffix, "VL" + suffix));
  }
  return Status::OK();
}

const std::vector<std::string>& AlgoNames() {
  static const std::vector<std::string> kNames = {
      "wcc", "sssp", "pagerank", "toposort", "labelprop", "kcore", "bfs"};
  return kNames;
}

QuerySpec AlgoQuery(const std::string& algo, const graph::Graph& g,
                    uint64_t seed) {
  QuerySpec q;
  q.label = algo;
  q.algo = algo;
  if (algo == "sssp" || algo == "bfs") q.source = PickSources(g, 1, seed)[0];
  if (algo == "labelprop") q.cap = kLabelPropIterations;
  return q;
}

std::vector<QuerySpec> SqlQueries(const graph::Graph& g, int graph,
                                  uint64_t seed) {
  const int64_t source = PickSources(g, 1, seed + graph)[0];
  const int lp_cap = 10 + static_cast<int>(Derive(seed, kCapSalt) % 6);
  std::vector<QuerySpec> qs(5);
  qs[0].label = "sql.cc";
  qs[0].sql =
      "with CC (ID, comp) as ("
      " (select ID, ID from V)"
      " union by update ID"
      " (select E.T, min(comp) from CC, E where CC.ID = E.F group by E.T))"
      " select ID, comp from CC";
  qs[1].label = "sql.labelprop";
  qs[1].cap = lp_cap;
  qs[1].sql =
      "with L (ID, label) as ("
      " (select ID, label from VL)"
      " union by update ID"
      " (select E.T, min(label) from L, E where L.ID = E.F group by E.T)"
      " maxrecursion " +
      std::to_string(lp_cap) + ") select ID, label from L";
  qs[2].label = "sql.pagerank";
  qs[2].cap = kPageRankIterations;
  qs[2].sql =
      "with P (ID, W) as ("
      " (select V.ID, 0.0 from V)"
      " union by update ID"
      " (select E.T, 0.85 * sum(W * ew) + 0.15 / " +
      std::to_string(g.num_nodes()) +
      " from P, E where P.ID = E.F group by E.T)"
      " maxrecursion " +
      std::to_string(kPageRankIterations) + ") select ID, W from P";
  qs[3].label = "sql.toposort";
  qs[3].sql =
      "with Topo (ID, L) as ("
      " (select ID, 0 from V where ID not in (select E.T from E))"
      " union all"
      " (select ID, L from T_n"
      "  computed by"
      "   L_n(L) as select max(L) + 1 from Topo;"
      "   V_1(ID) as select V.ID from V where ID not in (select ID from Topo);"
      "   E_1(T) as select E.T from V_1, E where V_1.ID = E.F;"
      "   T_n as select ID, L from V_1, L_n"
      "         where ID not in (select T from E_1);))"
      " select * from Topo";
  qs[4].label = "sql.bfs";
  qs[4].source = source;
  qs[4].sql =
      "with R (ID) as ("
      " (select ID from V where ID = " +
      std::to_string(source) +
      ")"
      " union"
      " (select E.T from R, E where R.ID = E.F))"
      " select ID from R";
  const std::string suffix = TableSuffix(graph);
  for (QuerySpec& q : qs) {
    q.graph = graph;
    for (const char* table : {"E", "V", "VL"}) {
      q.sql = std::regex_replace(
          q.sql, std::regex(std::string("\\b") + table + "\\b"),
          table + suffix);
    }
  }
  return qs;
}

std::vector<QuerySpec> MakeCycle(const WorkloadSpec& w,
                                 const std::vector<graph::Graph>& graphs,
                                 uint64_t seed) {
  std::vector<QuerySpec> cycle;
  const graph::Graph& g = graphs[0];
  if (w.engine == Engine::kSql) {
    for (int i = 0; i < w.graphs; ++i) {
      for (QuerySpec& q : SqlQueries(graphs[i], i, seed)) cycle.push_back(q);
    }
  } else {
    // Traversals of one cycle start from distinct sources.
    const auto traversal = [](const std::string& a) {
      return a == "sssp" || a == "bfs";
    };
    const std::vector<int64_t> sources = PickSources(
        g, std::count_if(w.mix.begin(), w.mix.end(), traversal), seed);
    size_t next = 0;
    for (const std::string& algo : w.mix) {
      QuerySpec q = AlgoQuery(algo, g, seed);
      if (traversal(algo)) q.source = sources[next++];
      cycle.push_back(q);
    }
  }
  Shuffle(&cycle, seed);
  return cycle;
}

core::EngineProfile SqlProfile(int dop) {
  core::EngineProfile profile = core::OracleLike();
  profile.degree_of_parallelism = dop;
  return profile;
}

Status TraceSqlFrontEnd(const QuerySpec& q, const ra::Catalog& catalog,
                        int dop, Tracer* tracer, int parent) {
  gpr::sql::BoundWithStatement bound;
  core::PsmProcedure proc;
  return TracedFrontEnd(q, catalog, SqlProfile(dop), tracer, parent, &bound,
                        &proc);
}

Answer Execute(const QuerySpec& q, ra::Catalog& catalog, int dop,
               Tracer* tracer, int parent) {
  Answer out;
  if (!q.algo.empty()) {
    algos::AlgoOptions opt;
    opt.fault_spec = "none";
    opt.degree_of_parallelism = dop;
    opt.source = q.source;
    opt.max_iterations = q.cap;
    const int span =
        tracer != nullptr ? tracer->Open("algos." + q.algo, parent) : -1;
    Result<core::WithPlusResult> r = AlgoFor(q.algo)(catalog, opt);
    if (tracer != nullptr) tracer->Close(span);
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    if (tracer != nullptr) {
      AttributeFixpoint(tracer, span, r->counters, r->iters);
    }
    out.table = std::move(r->table);
    KeepFixpoint(&*r, &out);
    return out;
  }
  const core::EngineProfile profile = SqlProfile(dop);
  if (tracer != nullptr) {
    out.status = TracedSql(q, catalog, profile, tracer, parent, &out);
    return out;
  }
  Result<ra::Table> r = gpr::sql::RunSql(q.sql, catalog, profile);
  if (r.ok()) {
    out.table = std::move(r).value();
  } else {
    out.status = r.status();
  }
  return out;
}

Expectation NativeTwin(const QuerySpec& q, const graph::Graph& g) {
  Expectation e;
  const auto start = std::chrono::steady_clock::now();
  const std::string& a = q.algo.empty() ? q.label : q.algo;
  if (a == "wcc") {
    e.kind = Expectation::Kind::kNodeValues;
    e.values = NodeValues(baseline::Wcc(g));
  } else if (a == "sssp") {
    e.kind = Expectation::Kind::kNodeValues;
    e.values = baseline::SsspBellmanFord(g, q.source);
    e.tolerance = 1e-9;
  } else if (a == "pagerank") {
    e.kind = Expectation::Kind::kNodeValues;
    e.values = NormalizedPageRank(g);
    e.tolerance = 1e-9;
  } else if (a == "sql.pagerank") {
    // The SQL text uses E's stored weights as-is (all 1.0 here).
    e.kind = Expectation::Kind::kNodeValues;
    e.values = baseline::PaperPageRank(g, q.cap, kDamping);
    e.tolerance = 1e-9;
  } else if (a == "toposort") {
    std::vector<int64_t> levels = baseline::TopoSortLevels(g);
    if (!levels.empty()) {  // empty: the graph has a cycle
      e.kind = Expectation::Kind::kNodeValues;
      e.values = NodeValues(levels);
    }
  } else if (a == "labelprop") {
    e.kind = Expectation::Kind::kNodeValues;
    e.values = NodeValues(baseline::LabelPropagation(g, q.cap));
  } else if (a == "kcore") {
    e.kind = Expectation::Kind::kCoreNodes;
    const std::vector<bool> flags = baseline::KCore(g, kCoreK);
    e.values.assign(flags.begin(), flags.end());
  } else if (a == "bfs" || a == "sql.bfs") {
    e.kind = Expectation::Kind::kReachSet;
    e.values = ReachFlags(g, q.source);
  }
  if (e.kind != Expectation::Kind::kChecksum) {
    e.native_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  }
  return e;
}

uint64_t Checksum(const ra::Table& t) {
  uint64_t h = 0xcbf29ce484222325ULL ^ t.NumRows();
  for (const ra::Tuple& row : t.SortedRows()) {
    for (const ra::Value& v : row) {
      h = (h ^ v.Hash()) * 0x100000001b3ULL;
    }
    h = (h ^ 0xff) * 0x100000001b3ULL;
  }
  return h;
}

std::string CheckAnswer(const Expectation& e, const ra::Table& t) {
  using Kind = Expectation::Kind;
  if (e.kind == Kind::kChecksum) {
    if (!e.has_checksum) return "no reference checksum";
    return Checksum(t) == e.checksum ? "" : "checksum differs from warm-up";
  }
  const int64_t n = static_cast<int64_t>(e.values.size());
  std::vector<double> got(e.values.size(), 0.0);
  std::vector<bool> seen(e.values.size(), false);
  for (const ra::Tuple& row : t.rows()) {
    const int64_t id = row[0].ToInt64();
    if (id < 0 || id >= n) {
      return "node id " + std::to_string(id) + " out of range";
    }
    if (e.kind == Kind::kCoreNodes) {
      const int64_t to = row[1].ToInt64();
      if (to < 0 || to >= n) {
        return "node id " + std::to_string(to) + " out of range";
      }
      got[id] = got[to] = 1.0;
      continue;
    }
    if (seen[id]) return "node " + std::to_string(id) + " appears twice";
    seen[id] = true;
    got[id] = e.kind == Kind::kReachSet ? 1.0 : row[1].ToDouble();
  }
  for (int64_t v = 0; v < n; ++v) {
    if (e.kind == Kind::kNodeValues && !seen[v]) {
      return "node " + std::to_string(v) + " missing";
    }
    if (!Near(got[v], e.values[v], e.tolerance)) {
      return Describe("value", v, got[v], e.values[v]);
    }
  }
  return "";
}

}  // namespace perfbench
