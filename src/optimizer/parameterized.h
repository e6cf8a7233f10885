// Parameterized plans: optimization output annotated for shape-cache reuse.
//
// A serving workload sends the same query *template* with varying literals.
// Re-running the optimizer per instance wastes the paper's Section 6.5
// overhead; blindly reusing the first instance's plan risks serving a join
// order chosen for very different selectivities. OptimizeParameterized
// records, next to the optimized plan, what the serving layer needs to
// decide reuse without optimizing again:
//
//  * the constant slot table the plan was bound under,
//  * each relation's optimize-time selectivity, and
//  * every filter's estimated lambda (the observed-lambda drift reference).
//
// The plan-shape cache (src/server/plan_cache.h) then re-binds new
// constants into the cached shape, re-estimates only the moved relations,
// and re-costs the cached plan once at the new selectivities: the plan is
// served iff its re-cost passes the SCR bound (Dutt, Narasayya &
// Chaudhuri, SIGMOD 2017) against the optimize-time cost — escalating to
// full re-optimization otherwise. No probe optimizations are run here.
#pragma once

#include <vector>

#include "src/optimizer/optimizer.h"

namespace bqo {

/// \brief An optimized plan plus the slot/selectivity annotations the
/// plan-shape cache needs to re-bind and re-cost it. All vectors indexed
/// by relation, except estimated_lambda (by filter id).
struct ParameterizedPlan {
  /// optimized.optimize_ns is the wall time of the whole
  /// OptimizeParameterized call (optimize + annotation walk).
  OptimizedQuery optimized;
  /// Constant slot table the plan was optimized under (one vector per
  /// relation — which selectivity estimate depends on which slots).
  std::vector<std::vector<Value>> constants;
  /// Optimize-time selectivity per relation (filtered_rows / base_rows).
  std::vector<double> optimize_sel;
  /// Estimated elimination fraction per filter id at optimize time — the
  /// reference the feedback EWMA drifts against (pruned filters: 0).
  std::vector<double> estimated_lambda;
};

/// \brief Optimize `graph` (which must have statistics attached) and
/// record the reuse annotations: one OptimizeQuery plus one walk of the
/// estimated cost model over the chosen plan.
ParameterizedPlan OptimizeParameterized(const JoinGraph& graph,
                                        StatsCatalog* stats,
                                        const OptimizerOptions& options);

/// \brief Selectivity (filtered_rows / base_rows, clamped to [0, 1]) of
/// relation `rel` — the quantity the re-cost bound compares.
double RelationSelectivity(const JoinGraph& graph, int rel);

}  // namespace bqo
