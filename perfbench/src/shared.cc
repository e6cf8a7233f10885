// Helpers shared by the batch and serving workloads.
#include <algorithm>
#include <numeric>
#include <random>

#include "perfbench/src/workloads.h"
#include "src/exec/executor.h"
#include "src/optimizer/parameterized.h"

namespace perfbench {

namespace {

/// Specs per query family timed by BandProbeFactor (a CUSTOMER-lite
/// probe pass costs a few hundred ms per graph).
constexpr size_t kBandProbeGraphs = 12;

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<int> SeededPermutation(size_t n, uint64_t seed, uint64_t pass) {
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(MixSeed(seed, pass));
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

void TouchStatistics(const bqo::Catalog& catalog, bqo::StatsCatalog* stats) {
  for (const bqo::Table* table : catalog.tables()) stats->Get(table->name());
}

bqo::OptimizerOptions BqoOptions() {
  bqo::OptimizerOptions options;
  options.mode = bqo::OptimizerMode::kBqoShallow;
  return options;
}

double BandProbeFactor(const bqo::Catalog& catalog,
                       const std::vector<bqo::QuerySpec>& specs,
                       bqo::StatsCatalog* stats) {
  const bqo::OptimizerOptions options = BqoOptions();
  double plain = 0;
  double banded = 0;
  for (size_t q = 0; q < specs.size() && q < kBandProbeGraphs; ++q) {
    auto graph = bqo::BuildJoinGraph(catalog, specs[q]);
    BQO_CHECK_MSG(graph.ok(), ("query failed to bind: " + specs[q].name).c_str());
    const double t0 = ThreadCpuSeconds();
    (void)bqo::OptimizeQuery(graph.value(), stats, options);
    const double t1 = ThreadCpuSeconds();
    (void)bqo::OptimizeParameterized(graph.value(), stats, options);
    plain += t1 - t0;
    banded += ThreadCpuSeconds() - t1;
  }
  return plain > 0 ? banded / plain : 0;
}

Reference ReferenceOf(const bqo::Catalog& catalog, const bqo::QuerySpec& spec,
                      bqo::StatsCatalog* stats) {
  auto graph = bqo::BuildJoinGraph(catalog, spec);
  BQO_CHECK_MSG(graph.ok(), ("query failed to bind: " + spec.name).c_str());
  const bqo::OptimizedQuery optimized =
      bqo::OptimizeQuery(graph.value(), stats, BqoOptions());
  bqo::ExecutionOptions exec;
  exec.agg = spec.agg;
  const bqo::QueryMetrics m = bqo::ExecutePlan(optimized.plan, exec);
  return Reference{m.result_checksum, m.result_rows};
}

void FinishTraced(const Args& args, const Tracing& tracing, RunOutput* out) {
  tracing.tally.Fill(&out->layers);
  // Percent by which tracing (spans plus EXPLAIN ANALYZE) slowed throughput.
  const double untraced = out->window.Qps();
  const double traced = out->traced.Qps();
  out->layers["obs.trace_overhead_pct"] =
      untraced > 0 && traced > 0 ? (untraced / traced - 1.0) * 100.0 : 0;
  if (!args.trace_out.empty() &&
      !WriteSpanLog(args.trace_out, args.workload, tracing.log)) {
    out->problems.push_back("cannot write span log " + args.trace_out);
  }
}

}  // namespace perfbench
