// Standalone calls into single layers for the traced run: the SQL front
// end, the algorithms' edge preparation, every algorithm the workload's
// cycle does not run, and single ra operator steps over E.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "ra/catalog.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct ProbeResult {
  int attempted = 0;
  int failed = 0;
};

/// `g` is the workload's graph 0 (tables E, V, VL).
ProbeResult RunProbes(const WorkloadSpec& w, const gpr::graph::Graph& g,
                      gpr::ra::Catalog& catalog,
                      const std::vector<QuerySpec>& cycle, uint64_t seed,
                      Tracer* tracer);

}  // namespace perfbench
