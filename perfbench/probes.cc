#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "algos/common.h"
#include "ra/aggregate.h"
#include "ra/column.h"
#include "ra/csr.h"
#include "ra/operators.h"

namespace perfbench {

namespace ra = gpr::ra;

namespace {

constexpr int kRepeats = 3;  // per front-end query and per ra operator

void Record(ProbeResult* r, const std::string& what, const gpr::Status& st) {
  ++r->attempted;
  if (st.ok()) return;
  ++r->failed;
  std::fprintf(stderr, "FAILED probe %s: %s\n", what.c_str(),
               st.ToString().c_str());
}

/// Times `fn` (returning a Status) as span `name` under `parent`.
template <typename Fn>
gpr::Status Timed(Tracer* tracer, const char* name, int parent, Fn&& fn) {
  const int id = tracer->Open(name, parent);
  gpr::Status st = fn();
  tracer->Close(id);
  return st;
}

void Finish(Tracer* tracer, int root) {
  tracer->Close(root);
  tracer->AddRemainder("bench.between_calls", root);
}

/// One MV step of a min/+ fixpoint over E and V, as a CSR SpMV and as a
/// hash join plus group-by.
gpr::Status RaSteps(ra::Catalog& catalog, int dop, Tracer* tracer,
                    int root) {
  GPR_ASSIGN_OR_RETURN(ra::Table * e, catalog.Get("E"));
  GPR_ASSIGN_OR_RETURN(const ra::Table* v,
                       static_cast<const ra::Catalog&>(catalog).Get("V"));
  ra::EvalContext ctx;
  ctx.dop = dop;
  // E(F, T, ew): group on T, join on F, weight ew; V(ID, vw).
  constexpr size_t kF = 0, kT = 1, kW = 2, kId = 0, kVw = 1;
  GPR_RETURN_NOT_OK(Timed(tracer, "ra.analyze", root, [&] {
    e->Analyze();
    return gpr::Status::OK();
  }));
  GPR_RETURN_NOT_OK(Timed(tracer, "ra.columnize", root, [&] {
    const ra::ColumnStore cols = ra::ColumnStore::FromRows(e->schema(),
                                                           e->rows());
    return cols.NumRows() == e->NumRows()
               ? gpr::Status::OK()
               : gpr::Status::Internal("column image lost rows");
  }));
  std::shared_ptr<const ra::CsrMatrix> csr;
  GPR_RETURN_NOT_OK(Timed(tracer, "ra.csr_build", root, [&]() -> gpr::Status {
    GPR_ASSIGN_OR_RETURN(csr, ra::BuildCsr(*e, kT, kF, kW, &ctx));
    return gpr::Status::OK();
  }));
  GPR_RETURN_NOT_OK(Timed(tracer, "ra.spmv", root, [&]() -> gpr::Status {
    return ra::SpmvKernel(*csr, *e, kT, kW, *v, kId, kVw, ra::AggKind::kMin,
                          ra::BinaryOp::kAdd, &ctx)
        .status();
  }));
  return Timed(tracer, "ra.join_groupby", root, [&]() -> gpr::Status {
    GPR_ASSIGN_OR_RETURN(
        ra::Table joined,
        ra::ops::Join(*v, *e, {{"ID"}, {"F"}}, ra::ops::JoinAlgorithm::kHash,
                      nullptr, &ctx));
    return ra::ops::GroupBy(joined, {"E.T"},
                            {ra::MinOf(ra::Add(ra::Col("V.vw"),
                                               ra::Col("E.ew")),
                                       "vw")},
                            &ctx)
        .status();
  });
}

}  // namespace

ProbeResult RunProbes(const WorkloadSpec& w, const gpr::graph::Graph& g,
                      ra::Catalog& catalog,
                      const std::vector<QuerySpec>& cycle, uint64_t seed,
                      Tracer* tracer) {
  ProbeResult result;

  // The SQL front end, where the cycle does not already run it.
  if (w.engine != Engine::kSql) {
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (const QuerySpec& q : SqlQueries(g, /*graph=*/0, seed)) {
        const int root = tracer->OpenRoot("probe.sql");
        Record(&result, q.label,
               TraceSqlFrontEnd(q, catalog, w.dop, tracer, root));
        Finish(tracer, root);
      }
    }
  }

  // The edge tables the MV algorithms build before their fixpoint.
  const gpr::algos::AlgoOptions options;
  for (int rep = 0; rep < kRepeats; ++rep) {
    const int root = tracer->OpenRoot("probe.prep");
    Record(&result, "CreateLoopedEdges",
           Timed(tracer, "algos.prep", root, [&] {
             return gpr::algos::CreateLoopedEdges(
                 catalog, "E", "V", "perfbench_looped", 0.0,
                 /*symmetrize=*/true);
           }));
    Record(&result, "CreateNormalizedEdges",
           Timed(tracer, "algos.prep", root, [&] {
             return gpr::algos::CreateNormalizedEdges(
                 catalog, "E", "perfbench_norm", options.profile);
           }));
    gpr::algos::DropQuietly(catalog, {"perfbench_looped", "perfbench_norm"});
    Finish(tracer, root);
  }

  // Every algorithm the cycle does not run, once, on this graph.
  for (const std::string& algo : AlgoNames()) {
    const bool in_cycle =
        std::any_of(cycle.begin(), cycle.end(),
                    [&](const QuerySpec& q) { return q.algo == algo; });
    if (in_cycle) continue;
    const QuerySpec q = AlgoQuery(algo, g, seed);
    const int root = tracer->OpenRoot("probe.algos");
    Answer a = Execute(q, catalog, w.dop, tracer, root);
    Finish(tracer, root);
    // A probe has no warm-up twin, so only native twins can check it.
    const Expectation e = NativeTwin(q, g);
    std::string error;
    if (a.status.ok() && e.kind != Expectation::Kind::kChecksum) {
      error = CheckAnswer(e, a.table);
    }
    Record(&result, algo,
           error.empty() ? a.status : gpr::Status::Internal(error));
  }

  for (int rep = 0; rep < kRepeats; ++rep) {
    const int root = tracer->OpenRoot("probe.ra");
    Record(&result, "ra steps", RaSteps(catalog, w.dop, tracer, root));
    Finish(tracer, root);
  }
  return result;
}

}  // namespace perfbench
