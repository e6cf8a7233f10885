// Batch workloads: one query at a time, no QueryService.
//
//  fig8_batch  the paper's Figure 8 setup. Every query of JOB-lite,
//              TPC-DS-lite and CUSTOMER-lite is bound, optimized under
//              Original (kBaselinePostProcess) and BQO (kBqoShallow), and
//              both plans are executed at width 1. One request is one query
//              under both modes.
//  job_wide    The heaviest quarter of the JOB-lite BQO plans (by exact
//              intermediate tuples), optimized in set-up, executed one at a
//              time at width = half the hardware threads on the shared
//              WorkerPool.
//
// A window runs whole passes over the workload, each in a seeded order,
// until its seconds have elapsed, so every window runs the same query mix.
// The traced window records the benchmark's own spans around bind,
// optimize and execute, grafts the engine's execution trace under each
// execute span, and joins every execution with its EXPLAIN ANALYZE report.
#include <array>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"
#include "src/exec/executor.h"
#include "src/exec/query_context.h"
#include "src/obs/explain.h"
#include "src/server/worker_pool.h"
#include "src/stats/estimated_cost.h"
#include "src/workload/query.h"

namespace perfbench {
namespace {

using bqo::OptimizerMode;

struct Family {
  std::string key;  ///< job / tpcds / customer
  bqo::Workload workload;
  std::unique_ptr<bqo::StatsCatalog> stats;
};

struct Families {
  std::vector<Family> families;
  double gen_s = 0;
  double stats_s = 0;
};

Families Generate(const std::vector<std::string>& keys) {
  Families out;
  for (const std::string& key : keys) {
    auto start = Clock::now();
    Family f;
    f.key = key;
    f.workload = key == "job"     ? bqo::MakeJobLite(kScale)
                 : key == "tpcds" ? bqo::MakeTpcdsLite(kScale)
                                  : bqo::MakeCustomerLite(kScale);
    out.gen_s += SecondsSince(start);
    start = Clock::now();
    f.stats = std::make_unique<bqo::StatsCatalog>(f.workload.catalog.get());
    TouchStatistics(*f.workload.catalog, f.stats.get());
    out.stats_s += SecondsSince(start);
    out.families.push_back(std::move(f));
  }
  return out;
}

/// A span of the benchmark's own; a no-op without a recorder.
class MaybeSpan {
 public:
  MaybeSpan(SpanRecorder* rec, const char* kind, const std::string& name)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(kind, name) : -1) {}
  ~MaybeSpan() { End(); }
  MaybeSpan(const MaybeSpan&) = delete;
  MaybeSpan& operator=(const MaybeSpan&) = delete;

  void End() {
    if (rec_ != nullptr && !ended_) rec_->End(id_);
    ended_ = true;
  }
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
  bool ended_ = false;
};

/// One execution under an optional recorder: the engine trace is attached
/// to the query's context and grafted under the execute span.
bqo::QueryMetrics Execute(const bqo::OptimizedQuery& optimized,
                          const bqo::QuerySpec& spec, int width,
                          const char* label, SpanRecorder* rec, bool* ok) {
  bqo::ExecutionOptions exec;
  exec.agg = spec.agg;
  exec.exec.threads = width;
  bqo::QueryContext ctx;
  exec.context = &ctx;
  if (rec != nullptr) ctx.AttachTrace(std::make_unique<bqo::QueryTrace>());
  const int64_t offset = rec != nullptr ? rec->NowNs() : 0;
  MaybeSpan span(rec, "execute", label);
  bqo::QueryMetrics metrics = bqo::ExecutePlan(optimized.plan, exec);
  span.End();
  *ok = ctx.status().ok();
  if (rec != nullptr) {
    ctx.trace()->Seal(*ok, ctx.status().ToString());
    rec->Graft(ctx.trace()->spans(), span.id(), offset);
  }
  return metrics;
}

/// Fold one traced execution into the tally, with its EXPLAIN ANALYZE
/// report (estimated per-node cardinalities joined with the run).
void TallyExecution(const bqo::OptimizedQuery& optimized,
                    const bqo::QueryMetrics& metrics, int width,
                    bqo::StatsCatalog* stats, LayerTally* tally) {
  bqo::EstimatedCoutModel model(stats, BqoOptions().filter_fp_rate);
  const bqo::CoutBreakdown estimates = model.Compute(optimized.plan);
  const bqo::ExplainReport explain = bqo::BuildExplainReport(
      optimized.plan, metrics, estimates, bqo::ExecutionOptions().filter_config);
  tally->AddExecution(metrics, width, optimized.estimated_cost,
                      optimized.pruned_filters, &explain);
}

void FinishRequest(const SpanRecorder& rec, int64_t id, Tracing* tracing) {
  tracing->tally.AddRequest(rec.spans());
  tracing->Log(id, rec.spans());
}

/// Run whole passes (each a seeded order of `n` requests) until `seconds`
/// have elapsed; `request(index, id, &latency_ms)` returns false on a failed
/// request. Stamps the pass count into `out` for the untraced window.
template <typename Request>
Window RunPasses(size_t n, const Args& args, RunOutput* out, Request request) {
  Window w;
  const auto start = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  int64_t id = 0;
  uint64_t pass = 0;
  for (; pass == 0 || SecondsSince(start) < args.seconds; ++pass) {
    for (int index : SeededPermutation(n, args.seed, pass)) {
      double latency_ms = 0;
      const bool ok = request(index, id++, &latency_ms);
      ++w.attempted;
      if (!ok) ++w.failed;
      w.latency_ms.push_back(latency_ms);
    }
  }
  w.wall_s = SecondsSince(start);
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  w.pass_requests = n;
  if (out != nullptr) out->stamps["passes"] = std::to_string(pass);
  return w;
}

// ---- fig8_batch ----

constexpr std::array<OptimizerMode, 2> kFig8Modes = {
    OptimizerMode::kBaselinePostProcess, OptimizerMode::kBqoShallow};
constexpr std::array<const char*, 2> kFig8ModeNames = {"original", "bqo"};

struct Fig8Item {
  Family* family;
  const bqo::QuerySpec* spec;
  Reference ref;
};

/// Execution cpu_ns of every pass, per item and mode (Original, BQO).
using Fig8Cpu = std::vector<std::array<std::vector<double>, 2>>;

/// The untraced window passes `out` and `cpu`, the traced one `tracing`.
Window RunFig8Window(const std::vector<Fig8Item>& items, const Args& args,
                     RunOutput* out, Fig8Cpu* cpu, Tracing* tracing) {
  return RunPasses(items.size(), args, out,
                   [&](int index, int64_t id, double* latency_ms) {
    const Fig8Item& item = items[static_cast<size_t>(index)];
    SpanRecorder recorder;
    SpanRecorder* rec = tracing != nullptr ? &recorder : nullptr;
    const auto start = Clock::now();
    bool ok = true;
    std::array<bqo::OptimizedQuery, 2> optimized;
    std::array<bqo::QueryMetrics, 2> metrics;
    MaybeSpan request(rec, "request", item.spec->name);
    MaybeSpan bind(rec, "bind", item.spec->name);
    auto graph =
        bqo::BuildJoinGraph(*item.family->workload.catalog, *item.spec);
    bind.End();
    if (!graph.ok()) return false;
    for (size_t m = 0; m < kFig8Modes.size(); ++m) {
      bqo::OptimizerOptions options = BqoOptions();
      options.mode = kFig8Modes[m];
      MaybeSpan optimize(rec, "optimize", kFig8ModeNames[m]);
      optimized[m] =
          bqo::OptimizeQuery(graph.value(), item.family->stats.get(), options);
      optimize.End();
      bool exec_ok = false;
      metrics[m] = Execute(optimized[m], *item.spec, /*width=*/1,
                           kFig8ModeNames[m], rec, &exec_ok);
      // Original and BQO must both reproduce the reference result.
      ok = ok && exec_ok && item.ref.Matches(metrics[m]);
      if (cpu != nullptr) {
        (*cpu)[static_cast<size_t>(index)][m].push_back(
            static_cast<double>(metrics[m].cpu_ns));
      }
    }
    request.End();
    *latency_ms = SecondsSince(start) * 1e3;
    if (tracing != nullptr) {
      for (size_t m = 0; m < kFig8Modes.size(); ++m) {
        tracing->tally.AddReportedOptimizeNs(optimized[m].optimize_ns);
        TallyExecution(optimized[m], metrics[m], 1, item.family->stats.get(),
                       &tracing->tally);
      }
      FinishRequest(recorder, id, tracing);
    }
    return ok;
  });
}

/// BQO / Original summed execution CPU per family, each query's CPU the
/// median over the window's passes.
void Fig8Ratios(const std::vector<Fig8Item>& items, const Fig8Cpu& cpu,
                std::map<std::string, double>* layers) {
  std::map<std::string, std::array<double, 2>> sums;
  for (size_t i = 0; i < items.size(); ++i) {
    for (size_t m = 0; m < 2; ++m) {
      sums[items[i].family->key][m] += Median(cpu[i][m]);
    }
  }
  for (const auto& [key, sum] : sums) {
    (*layers)["fig8_ratio." + key] = sum[0] > 0 ? sum[1] / sum[0] : 0;
  }
}

// ---- job_wide ----

/// Per-query width of job_wide: half the hardware threads, so a query's
/// workers and the waiting client thread leave the host a spare core and
/// the window measures the engine rather than the host's scheduler.
int JobWideWidth() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / 2);
}

struct JobWide {
  Families job;
  std::vector<std::unique_ptr<bqo::JoinGraph>> graphs;  ///< plans borrow them
  std::vector<bqo::OptimizedQuery> plans;
  std::vector<const bqo::QuerySpec*> specs;  ///< the spec of each plan
};

/// Generate, bind and optimize every JOB-lite query and warm up with one
/// pass at `width` (which also starts the shared WorkerPool). Keep the
/// quarter with the most intermediate tuples (the warm-up's exact counts):
/// the queries with enough work to run in parallel. The rest finish in a
/// millisecond or two, mostly worker hand-off, whose wake-up latency on a
/// shared host swings from run to run.
JobWide SetUpJobWide(int width) {
  JobWide s;
  s.job = Generate({"job"});
  Family& f = s.job.families[0];
  std::vector<std::unique_ptr<bqo::JoinGraph>> graphs;
  std::vector<bqo::OptimizedQuery> plans;
  std::vector<double> tuples;
  for (const bqo::QuerySpec& spec : f.workload.queries) {
    auto graph = bqo::BuildJoinGraph(*f.workload.catalog, spec);
    BQO_CHECK_MSG(graph.ok(), ("query failed to bind: " + spec.name).c_str());
    graphs.push_back(std::make_unique<bqo::JoinGraph>(std::move(graph.value())));
    plans.push_back(
        bqo::OptimizeQuery(*graphs.back(), f.stats.get(), BqoOptions()));
    bool ok = false;
    tuples.push_back(static_cast<double>(
        Execute(plans.back(), spec, width, "bqo", nullptr, &ok)
            .TotalIntermediateTuples()));
  }
  const double min_tuples = Quantile(tuples, 0.75);
  for (size_t i = 0; i < plans.size(); ++i) {
    if (tuples[i] < min_tuples) continue;
    s.graphs.push_back(std::move(graphs[i]));
    s.plans.push_back(std::move(plans[i]));
    s.specs.push_back(&f.workload.queries[i]);
  }
  return s;
}

/// The untraced window passes `out`, the traced one `tracing`.
Window RunJobWideWindow(JobWide& s, const std::vector<Reference>& refs,
                        int width, const Args& args, RunOutput* out,
                        Tracing* tracing) {
  Family& f = s.job.families[0];
  return RunPasses(s.plans.size(), args, out,
                   [&](int index, int64_t id, double* latency_ms) {
    const size_t i = static_cast<size_t>(index);
    const bqo::QuerySpec& spec = *s.specs[i];
    SpanRecorder recorder;
    SpanRecorder* rec = tracing != nullptr ? &recorder : nullptr;
    const auto start = Clock::now();
    MaybeSpan request(rec, "request", spec.name);
    bool ok = false;
    const bqo::QueryMetrics metrics =
        Execute(s.plans[i], spec, width, "bqo", rec, &ok);
    request.End();
    *latency_ms = SecondsSince(start) * 1e3;
    if (tracing != nullptr) {
      TallyExecution(s.plans[i], metrics, width, f.stats.get(), &tracing->tally);
      FinishRequest(recorder, id, tracing);
    }
    return ok && refs[i].Matches(metrics);
  });
}

void SetUpLayers(const Families& families, RunOutput* out) {
  out->layers["workload.gen_s"] = families.gen_s;
  out->layers["stats.collect_s"] = families.stats_s;
}

}  // namespace

RunOutput RunFig8Batch(const Args& args) {
  RunOutput out;
  Families s = RepeatSetup(
      args, [] { return Generate({"job", "tpcds", "customer"}); },
      &out);

  std::vector<Fig8Item> items;
  for (Family& f : s.families) {
    for (const bqo::QuerySpec& spec : f.workload.queries) {
      items.push_back(Fig8Item{
          &f, &spec, ReferenceOf(*f.workload.catalog, spec, f.stats.get())});
    }
  }

  Fig8Cpu cpu(items.size());
  out.window = RunFig8Window(items, args, &out, &cpu, nullptr);
  if (args.trace) {
    SetUpLayers(s, &out);
    Fig8Ratios(items, cpu, &out.layers);
    double factor_sum = 0;
    for (Family& f : s.families) {
      factor_sum += BandProbeFactor(*f.workload.catalog, f.workload.queries,
                                    f.stats.get());
    }
    out.layers["optimizer.band_probe_factor"] =
        factor_sum / static_cast<double>(s.families.size());
    Tracing tracing;
    out.traced = RunFig8Window(items, args, nullptr, nullptr, &tracing);
    FinishTraced(args, tracing, &out);
  }
  return out;
}

RunOutput RunJobWide(const Args& args) {
  RunOutput out;
  out.width = JobWideWidth();
  JobWide s =
      RepeatSetup(args, [&] { return SetUpJobWide(out.width); }, &out);
  Family& f = s.job.families[0];

  std::vector<Reference> refs;
  for (size_t i = 0; i < s.plans.size(); ++i) {
    bqo::ExecutionOptions exec;
    exec.agg = s.specs[i]->agg;
    const bqo::QueryMetrics m = bqo::ExecutePlan(s.plans[i].plan, exec);
    refs.push_back(Reference{m.result_checksum, m.result_rows});
  }

  out.window = RunJobWideWindow(s, refs, out.width, args, &out, nullptr);
  if (args.trace) {
    SetUpLayers(s.job, &out);
    out.layers["optimizer.band_probe_factor"] =
        BandProbeFactor(*f.workload.catalog, f.workload.queries, f.stats.get());
    Tracing tracing;
    out.traced = RunJobWideWindow(s, refs, out.width, args, nullptr, &tracing);
    FinishTraced(args, tracing, &out);
  }
  return out;
}

}  // namespace perfbench
