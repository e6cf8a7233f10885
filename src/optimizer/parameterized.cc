#include "src/optimizer/parameterized.h"

#include <algorithm>
#include <chrono>

#include "src/stats/estimated_cost.h"

namespace bqo {

double RelationSelectivity(const JoinGraph& graph, int rel) {
  const RelationRef& r = graph.relation(rel);
  return std::clamp(r.filtered_rows / std::max(r.base_rows, 1.0), 0.0, 1.0);
}

ParameterizedPlan OptimizeParameterized(const JoinGraph& graph,
                                        StatsCatalog* stats,
                                        const OptimizerOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  ParameterizedPlan out;
  out.optimized = OptimizeQuery(graph, stats, options);
  out.constants = graph.ConstantTable();

  // Estimated lambda per filter from the bitvector-aware model, not from
  // PlanFilter::estimated_lambda — the latter is only filled when pruning
  // runs, and the drift reference must exist either way.
  EstimatedCoutModel aware_model(stats, options.filter_fp_rate);
  out.estimated_lambda = aware_model.Compute(out.optimized.plan).filter_lambda;

  out.optimize_sel.resize(static_cast<size_t>(graph.num_relations()));
  for (int r = 0; r < graph.num_relations(); ++r) {
    out.optimize_sel[static_cast<size_t>(r)] = RelationSelectivity(graph, r);
  }
  // The whole call, not just the inner OptimizeQuery: what a cache hit
  // saves.
  out.optimized.optimize_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  return out;
}

}  // namespace bqo
