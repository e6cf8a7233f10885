// The benchmark's four workloads. Each runs an untimed set-up, an untraced
// timed window (the end-to-end metrics) and, on traced runs, a second,
// traced window (the per-layer metrics). See perfbench/README.md.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/layers.h"
#include "src/exec/metrics.h"
#include "src/optimizer/optimizer.h"
#include "src/plan/join_graph.h"
#include "src/stats/table_stats.h"
#include "src/workload/query.h"
#include "src/workload/workload.h"

namespace perfbench {

/// Fact-table scale of every generated database (workload.h).
constexpr double kScale = 0.1;

struct RunOutput {
  /// Untraced window: the end-to-end metrics.
  Window window;
  /// Wall time of each set-up repetition; setup_s is their median.
  std::vector<double> setup_samples;
  /// Traced window (traced runs only); its requests count as attempted.
  Window traced;
  /// Per-layer metrics (traced runs only); unset names read 0.
  std::map<std::string, double> layers;
  /// Failed premises or result checks; any entry fails the run.
  std::vector<std::string> problems;
  /// Environment and premise stamps for the run's info line (values are
  /// JSON literals).
  std::map<std::string, std::string> stamps;
  int width = 1;
  int clients = 1;
};

RunOutput RunFig8Batch(const Args& args);
RunOutput RunJobWide(const Args& args);
RunOutput RunServeHot(const Args& args);
RunOutput RunServeSkewed(const Args& args);

// ---- Shared by the workload files ----

/// \brief Width-1 reference result of one spec.
struct Reference {
  uint64_t checksum = 0;
  int64_t rows = 0;

  bool Matches(const bqo::QueryMetrics& m) const {
    return m.result_checksum == checksum && m.result_rows == rows;
  }
};

/// Set-up repetitions of an untraced run: at least kMinSetupReps, and more
/// (up to kMaxSetupReps) while their total stays under kSetupBudgetS, so a
/// cheap set-up's median rests on more samples. A traced run sets up once
/// per window.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 9;
constexpr double kSetupBudgetS = 2.0;

/// \brief Run `make` as many times as the repetition rule above allows
/// (dropping the previous result first, so only one set-up is alive at a
/// time), record each wall time in `out`, and return the last result.
template <typename Make>
auto RepeatSetup(const Args& args, Make make, RunOutput* out)
    -> decltype(make()) {
  std::optional<decltype(make())> setup;
  double total = 0;
  for (int r = 0; r < (args.trace ? 1 : kMaxSetupReps); ++r) {
    if (r >= kMinSetupReps && total >= kSetupBudgetS) break;
    setup.reset();
    const auto start = Clock::now();
    setup.emplace(make());
    out->setup_samples.push_back(SecondsSince(start));
    total += out->setup_samples.back();
  }
  return std::move(*setup);
}

/// \brief Seeded 64-bit generator for stream `stream` of run seed `seed`.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// \brief Seeded permutation of 0..n-1 (pass `pass` of seed `seed`).
std::vector<int> SeededPermutation(size_t n, uint64_t seed, uint64_t pass);

/// \brief First-touch statistics of every table of `catalog`.
void TouchStatistics(const bqo::Catalog& catalog, bqo::StatsCatalog* stats);

/// \brief BQO options the workloads optimize with (engine defaults).
bqo::OptimizerOptions BqoOptions();

/// \brief Thread-CPU of OptimizeParameterized over that of OptimizeQuery
/// on the first few of `specs` — the cost band probes add to a plan-cache
/// miss.
double BandProbeFactor(const bqo::Catalog& catalog,
                       const std::vector<bqo::QuerySpec>& specs,
                       bqo::StatsCatalog* stats);


/// \brief Width-1 reference result of `spec`: OptimizeQuery (BQO) +
/// ExecutePlan, called directly.
Reference ReferenceOf(const bqo::Catalog& catalog, const bqo::QuerySpec& spec,
                      bqo::StatsCatalog* stats);

/// \brief Fill the traced run's tally-derived layers and the tracing
/// overhead (out->window against out->traced), and write the span log.
void FinishTraced(const Args& args, const Tracing& tracing, RunOutput* out);

}  // namespace perfbench
