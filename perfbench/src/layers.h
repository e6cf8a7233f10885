// Per-layer accounting of a traced run.
//
// Every request of a traced window yields one span tree. Serving requests
// bring the tree the QueryService already returns (QueryResult::trace);
// batch requests get spans the benchmark records itself around its calls
// into the engine (bind, optimize, execute), with the engine's own
// execution trace grafted under the execute span. Spans of one request
// share its id. Self time is a span's wall time minus the part of its
// interval its children cover, so the per-layer self times of a request add
// up to its root span.
//
// LayerTally folds span trees and executed-query counters into the
// per-layer metrics; tallies are per client thread and merged after the
// clients join.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/exec/metrics.h"
#include "src/obs/explain.h"
#include "src/obs/trace.h"

namespace perfbench {

struct Span {
  int parent = -1;  ///< index into the request's span vector; -1 = root
  /// Engine spans use SpanKindName; the benchmark's own spans are
  /// "request", "bind", "optimize" and "execute".
  std::string kind;
  std::string name;
  int64_t start_ns = 0;  ///< relative to the request's start
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;  ///< CPU of the thread that opened the span
  int64_t worker_cpu_ns = 0;
};

/// \brief Spans of one batch request, opened and closed on the calling
/// thread in LIFO order.
class SpanRecorder {
 public:
  SpanRecorder();

  int Begin(std::string kind, std::string name);
  void End(int id);
  /// \brief Nanoseconds since the recorder was created.
  int64_t NowNs() const;
  /// \brief Graft a sealed engine trace under span `parent`. The trace's
  /// start times count from its construction, `offset_ns` on this
  /// recorder's clock. Post-hoc operator aggregates carry no interval and
  /// are left out.
  void Graft(const std::vector<bqo::TraceSpan>& trace, int parent,
             int64_t offset_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<double> open_cpu_s_;  ///< per span: thread CPU at Begin
};

/// \brief An engine trace as a request span tree (operator aggregates
/// dropped, parents re-indexed).
std::vector<Span> FromEngineTrace(const std::vector<bqo::TraceSpan>& trace);

class LayerTally {
 public:
  /// \brief Fold one request's span tree.
  void AddRequest(const std::vector<Span>& spans);
  /// \brief Fold one execution's merged counters. `width` is the logical
  /// worker count it ran with; `explain` (optional) supplies measured
  /// filter false-positive rates.
  void AddExecution(const bqo::QueryMetrics& metrics, int width,
                    double estimated_cost, int pruned_filters,
                    const bqo::ExplainReport* explain);
  /// \brief Optimizer time as the engine reports it (OptimizedQuery /
  /// QueryResult::optimize_ns), set against the optimize spans.
  void AddReportedOptimizeNs(int64_t ns) { reported_optimize_ns_ += ns; }

  void Merge(const LayerTally& other);

  /// \brief Write the span- and execution-derived per-layer metrics.
  void Fill(std::map<std::string, double>* values) const;

 private:
  int64_t requests_ = 0;
  std::vector<double> bind_us_;
  std::vector<double> optimize_ms_;
  int64_t optimize_wall_ns_ = 0;
  int64_t optimize_cpu_ns_ = 0;
  int64_t reported_optimize_ns_ = 0;
  std::vector<double> lookup_self_us_;
  std::vector<double> admission_ms_;
  int64_t build_wall_ns_ = 0;
  int64_t build_wait_ns_ = 0;
  std::map<std::string, int64_t> self_ns_;  ///< by layer

  int64_t executions_ = 0;
  int64_t exec_cpu_ns_ = 0;
  int64_t exec_wall_x_width_ns_ = 0;
  std::vector<double> exec_wall_ms_;
  int64_t intermediate_tuples_ = 0;
  int64_t probe_rows_in_ = 0;
  int64_t probe_rows_matched_ = 0;
  int64_t pruned_filters_ = 0;
  std::vector<double> cost_qerror_;
  int64_t filters_created_ = 0;
  int64_t filters_useless_ = 0;
  int64_t filter_probed_ = 0;
  int64_t filter_passed_ = 0;
  int64_t filter_bytes_ = 0;
  std::vector<double> measured_fpr_;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// \brief Every per-layer metric, in report order. A traced run reports
/// each of them; one that does not apply to a workload reads 0.
const std::vector<MetricDef>& PerLayerMetrics();

/// \brief One logged request: its id and span tree.
struct RequestSpans {
  int64_t id = 0;
  std::vector<Span> spans;
};

/// Requests whose spans a traced run keeps for the span log; the tally
/// covers every request regardless.
constexpr size_t kLoggedRequests = 2000;

/// \brief Write the request span trees to `path` as JSON lines, one span
/// per line, tagged with the workload and request id. Returns false when
/// the file cannot be written.
bool WriteSpanLog(const std::string& path, const std::string& workload,
                  const std::vector<RequestSpans>& requests);

/// \brief State of a traced window (or one client's share of it): the
/// tally and the span trees kept for the log.
struct Tracing {
  LayerTally tally;
  std::vector<RequestSpans> log;

  void Log(int64_t id, const std::vector<Span>& spans) {
    if (log.size() < kLoggedRequests) log.push_back(RequestSpans{id, spans});
  }
  void Merge(Tracing&& other);
};

}  // namespace perfbench
