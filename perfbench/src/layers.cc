#include "perfbench/src/layers.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

constexpr double kUselessLambda = 0.05;

/// Wall time of `spans[id]` not covered by its children's intervals
/// (clipped to the parent's interval).
int64_t SelfNs(const std::vector<Span>& spans,
               const std::vector<std::vector<int>>& children, int id) {
  const Span& s = spans[static_cast<size_t>(id)];
  const int64_t begin = s.start_ns;
  const int64_t end = s.start_ns + s.wall_ns;
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (int c : children[static_cast<size_t>(id)]) {
    const Span& child = spans[static_cast<size_t>(c)];
    const int64_t lo = std::max(begin, child.start_ns);
    const int64_t hi = std::min(end, child.start_ns + child.wall_ns);
    if (hi > lo) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  int64_t covered = 0;
  int64_t reach = begin;
  for (const auto& [lo, hi] : cover) {
    const int64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return std::max<int64_t>(0, s.wall_ns - covered);
}

/// Which layer a span kind's self time belongs to.
const char* LayerOfSpan(const std::string& kind) {
  if (kind == "bind" || kind == "rebind") return "plan";
  if (kind == "optimize") return "optimizer";
  if (kind == "execute" || kind == "build") return "exec";
  if (kind == "admission_wait" || kind == "plan_cache_lookup" ||
      kind == "build_acquire") {
    return "server";
  }
  return "other";  // request / query roots: glue between the calls above
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

template <typename T>
void Append(std::vector<T>* into, const std::vector<T>& from) {
  into->insert(into->end(), from.begin(), from.end());
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int SpanRecorder::Begin(std::string kind, std::string name) {
  // The innermost open span is the parent: spans close LIFO, and an open
  // span has wall_ns < 0 until End.
  int parent = -1;
  for (int i = static_cast<int>(spans_.size()) - 1; i >= 0; --i) {
    if (spans_[static_cast<size_t>(i)].wall_ns < 0) {
      parent = i;
      break;
    }
  }
  Span span;
  span.parent = parent;
  span.kind = std::move(kind);
  span.name = std::move(name);
  span.start_ns = NowNs();
  span.wall_ns = -1;
  spans_.push_back(std::move(span));
  open_cpu_s_.push_back(ThreadCpuSeconds());
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.wall_ns = NowNs() - span.start_ns;
  span.cpu_ns = static_cast<int64_t>(
      (ThreadCpuSeconds() - open_cpu_s_[static_cast<size_t>(id)]) * 1e9);
}

void SpanRecorder::Graft(const std::vector<bqo::TraceSpan>& trace, int parent,
                         int64_t offset_ns) {
  std::vector<Span> grafted = FromEngineTrace(trace);
  const int base = static_cast<int>(spans_.size());
  for (Span& s : grafted) {
    s.parent = s.parent < 0 ? parent : s.parent + base;
    s.start_ns += offset_ns;
    spans_.push_back(std::move(s));
    open_cpu_s_.push_back(0);
  }
}

std::vector<Span> FromEngineTrace(const std::vector<bqo::TraceSpan>& trace) {
  std::vector<int> index(trace.size(), -1);
  std::vector<Span> out;
  for (size_t i = 0; i < trace.size(); ++i) {
    const bqo::TraceSpan& t = trace[i];
    if (t.kind == bqo::SpanKind::kOperator) continue;
    Span s;
    s.parent = t.parent >= 0 ? index[static_cast<size_t>(t.parent)] : -1;
    s.kind = bqo::SpanKindName(t.kind);
    s.name = t.name;
    s.start_ns = t.start_ns;
    s.wall_ns = t.wall_ns;
    s.cpu_ns = t.cpu_ns;
    s.worker_cpu_ns = t.worker_cpu_ns;
    index[i] = static_cast<int>(out.size());
    out.push_back(std::move(s));
  }
  return out;
}

void LayerTally::AddRequest(const std::vector<Span>& spans) {
  ++requests_;
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(static_cast<int>(i));
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t self = SelfNs(spans, children, static_cast<int>(i));
    self_ns_[LayerOfSpan(s.kind)] += self;
    if (s.kind == "bind") {
      bind_us_.push_back(static_cast<double>(s.wall_ns) / 1e3);
    } else if (s.kind == "optimize") {
      optimize_ms_.push_back(static_cast<double>(s.wall_ns) / 1e6);
      optimize_wall_ns_ += s.wall_ns;
      optimize_cpu_ns_ += s.cpu_ns;
    } else if (s.kind == "plan_cache_lookup") {
      lookup_self_us_.push_back(static_cast<double>(self) / 1e3);
    } else if (s.kind == "admission_wait") {
      admission_ms_.push_back(static_cast<double>(s.wall_ns) / 1e6);
    } else if (s.kind == "build") {
      build_wall_ns_ += s.wall_ns;
    } else if (s.kind == "build_acquire") {
      int64_t built = 0;
      for (int c : children[i]) {
        if (spans[static_cast<size_t>(c)].kind == "build") {
          built += spans[static_cast<size_t>(c)].wall_ns;
        }
      }
      build_wait_ns_ += std::max<int64_t>(0, s.wall_ns - built);
    }
  }
}

void LayerTally::AddExecution(const bqo::QueryMetrics& metrics, int width,
                              double estimated_cost, int pruned_filters,
                              const bqo::ExplainReport* explain) {
  ++executions_;
  exec_cpu_ns_ += metrics.cpu_ns;
  exec_wall_x_width_ns_ += metrics.total_ns * width;
  exec_wall_ms_.push_back(static_cast<double>(metrics.total_ns) / 1e6);
  const int64_t tuples = metrics.TotalIntermediateTuples();
  intermediate_tuples_ += tuples;
  for (const bqo::OperatorStats& op : metrics.operators) {
    probe_rows_in_ += op.probe_rows_in;
    probe_rows_matched_ += op.probe_rows_matched;
  }
  pruned_filters_ += pruned_filters;
  const double est = std::max(1.0, estimated_cost);
  const double act = std::max<double>(1.0, static_cast<double>(tuples));
  cost_qerror_.push_back(std::max(est / act, act / est));
  for (const bqo::FilterStats& fs : metrics.filters) {
    if (!fs.created) continue;
    ++filters_created_;
    if (fs.ObservedLambda() < kUselessLambda) ++filters_useless_;
    filter_probed_ += fs.probed;
    filter_passed_ += fs.passed;
    filter_bytes_ += fs.size_bytes;
  }
  if (explain != nullptr) {
    for (const bqo::FilterExplainRow& row : explain->filters) {
      if (row.created && row.has_measured_fpr) {
        measured_fpr_.push_back(row.measured_fpr);
      }
    }
  }
}

void LayerTally::Merge(const LayerTally& o) {
  requests_ += o.requests_;
  Append(&bind_us_, o.bind_us_);
  Append(&optimize_ms_, o.optimize_ms_);
  optimize_wall_ns_ += o.optimize_wall_ns_;
  optimize_cpu_ns_ += o.optimize_cpu_ns_;
  reported_optimize_ns_ += o.reported_optimize_ns_;
  Append(&lookup_self_us_, o.lookup_self_us_);
  Append(&admission_ms_, o.admission_ms_);
  build_wall_ns_ += o.build_wall_ns_;
  build_wait_ns_ += o.build_wait_ns_;
  for (const auto& [layer, ns] : o.self_ns_) self_ns_[layer] += ns;
  executions_ += o.executions_;
  exec_cpu_ns_ += o.exec_cpu_ns_;
  exec_wall_x_width_ns_ += o.exec_wall_x_width_ns_;
  Append(&exec_wall_ms_, o.exec_wall_ms_);
  intermediate_tuples_ += o.intermediate_tuples_;
  probe_rows_in_ += o.probe_rows_in_;
  probe_rows_matched_ += o.probe_rows_matched_;
  pruned_filters_ += o.pruned_filters_;
  Append(&cost_qerror_, o.cost_qerror_);
  filters_created_ += o.filters_created_;
  filters_useless_ += o.filters_useless_;
  filter_probed_ += o.filter_probed_;
  filter_passed_ += o.filter_passed_;
  filter_bytes_ += o.filter_bytes_;
  Append(&measured_fpr_, o.measured_fpr_);
}

void LayerTally::Fill(std::map<std::string, double>* v) const {
  const double requests = static_cast<double>(requests_);
  const double executions = static_cast<double>(executions_);
  auto& m = *v;
  m["plan.bind_us_p50"] = Quantile(bind_us_, 0.5);
  m["optimizer.optimize_ms_p50"] = Quantile(optimize_ms_, 0.5);
  m["optimizer.optimize_ms_p95"] = Quantile(optimize_ms_, 0.95);
  m["optimizer.busy_s"] = static_cast<double>(optimize_cpu_ns_) / 1e9;
  m["optimizer.calls_per_query"] =
      Ratio(static_cast<double>(optimize_ms_.size()), requests);
  m["optimizer.reported_gap"] =
      Ratio(static_cast<double>(optimize_wall_ns_),
            static_cast<double>(reported_optimize_ns_));
  m["optimizer.pruned_filters"] =
      Ratio(static_cast<double>(pruned_filters_), executions);
  m["optimizer.cost_qerror_p50"] = Quantile(cost_qerror_, 0.5);
  m["filter.created"] = Ratio(static_cast<double>(filters_created_), executions);
  m["filter.probed"] = Ratio(static_cast<double>(filter_probed_), executions);
  m["filter.lambda"] =
      Ratio(static_cast<double>(filter_probed_ - filter_passed_),
            static_cast<double>(filter_probed_));
  double fpr_sum = 0;
  for (double f : measured_fpr_) fpr_sum += f;
  m["filter.measured_fpr"] =
      Ratio(fpr_sum, static_cast<double>(measured_fpr_.size()));
  m["filter.bytes"] = Ratio(static_cast<double>(filter_bytes_), executions);
  m["filter.useless_frac"] = Ratio(static_cast<double>(filters_useless_),
                                   static_cast<double>(filters_created_));
  m["exec.cpu_s"] = static_cast<double>(exec_cpu_ns_) / 1e9;
  m["exec.wall_ms_p50"] = Quantile(exec_wall_ms_, 0.5);
  m["exec.intermediate_tuples"] =
      Ratio(static_cast<double>(intermediate_tuples_), executions);
  m["exec.probe_match_rate"] =
      Ratio(static_cast<double>(probe_rows_matched_),
            static_cast<double>(probe_rows_in_));
  m["exec.parallel_efficiency"] =
      Ratio(static_cast<double>(exec_cpu_ns_),
            static_cast<double>(exec_wall_x_width_ns_));
  m["exec.build_ms_total"] = static_cast<double>(build_wall_ns_) / 1e6;
  m["plan_cache.lookup_us_p50"] = Quantile(lookup_self_us_, 0.5);
  m["build_cache.wait_ms_total"] = static_cast<double>(build_wait_ns_) / 1e6;
  m["server.admission_wait_ms_p95"] = Quantile(admission_ms_, 0.95);
  for (const char* layer : {"plan", "optimizer", "exec", "server", "other"}) {
    const auto it = self_ns_.find(layer);
    const double ns = it == self_ns_.end() ? 0 : static_cast<double>(it->second);
    m[std::string("self_ms.") + layer] = Ratio(ns / 1e6, requests);
  }
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"workload.gen_s", "s"},
      {"stats.collect_s", "s"},
      {"plan.bind_us_p50", "us"},
      {"optimizer.optimize_ms_p50", "ms"},
      {"optimizer.optimize_ms_p95", "ms"},
      {"optimizer.busy_s", "s"},
      {"optimizer.calls_per_query", "count"},
      {"optimizer.band_probe_factor", "x"},
      {"optimizer.reported_gap", "x"},
      {"optimizer.pruned_filters", "count"},
      {"optimizer.cost_qerror_p50", "x"},
      {"filter.created", "count"},
      {"filter.probed", "count"},
      {"filter.lambda", "fraction"},
      {"filter.measured_fpr", "fraction"},
      {"filter.bytes", "bytes"},
      {"filter.useless_frac", "fraction"},
      {"exec.cpu_s", "s"},
      {"exec.wall_ms_p50", "ms"},
      {"exec.intermediate_tuples", "count"},
      {"exec.probe_match_rate", "fraction"},
      {"exec.parallel_efficiency", "fraction"},
      {"exec.build_ms_total", "ms"},
      {"plan_cache.distinct_shapes", "count"},
      {"plan_cache.hit_rate", "fraction"},
      {"plan_cache.misses", "count"},
      {"plan_cache.rebinds", "count"},
      {"plan_cache.reoptimizations", "count"},
      {"plan_cache.evictions", "count"},
      {"plan_cache.drift_invalidations", "count"},
      {"plan_cache.lookup_us_p50", "us"},
      {"build_cache.hit_rate", "fraction"},
      {"build_cache.builds", "count"},
      {"build_cache.single_flight_waits", "count"},
      {"build_cache.evictions", "count"},
      {"build_cache.resident_mb", "MB"},
      {"build_cache.wait_ms_total", "ms"},
      {"server.admission_wait_ms_p95", "ms"},
      {"obs.trace_overhead_pct", "%"},
      {"self_ms.plan", "ms"},
      {"self_ms.optimizer", "ms"},
      {"self_ms.exec", "ms"},
      {"self_ms.server", "ms"},
      {"self_ms.other", "ms"},
      {"fig8_ratio.job", "x"},
      {"fig8_ratio.tpcds", "x"},
      {"fig8_ratio.customer", "x"},
  };
  return kMetrics;
}

void Tracing::Merge(Tracing&& other) {
  tally.Merge(other.tally);
  for (RequestSpans& r : other.log) {
    if (log.size() >= kLoggedRequests) break;
    log.push_back(std::move(r));
  }
}

bool WriteSpanLog(const std::string& path, const std::string& workload,
                  const std::vector<RequestSpans>& requests) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string wl = JsonEscape(workload);
  for (const RequestSpans& r : requests) {
    for (size_t i = 0; i < r.spans.size(); ++i) {
      const Span& s = r.spans[i];
      std::fprintf(f,
                   "{\"workload\":\"%s\",\"request\":%lld,\"span\":%zu,"
                   "\"parent\":%d,\"kind\":\"%s\",\"name\":\"%s\","
                   "\"start_ns\":%lld,\"wall_ns\":%lld,\"cpu_ns\":%lld,"
                   "\"worker_cpu_ns\":%lld}\n",
                   wl.c_str(), static_cast<long long>(r.id), i, s.parent,
                   JsonEscape(s.kind).c_str(), JsonEscape(s.name).c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.wall_ns),
                   static_cast<long long>(s.cpu_ns),
                   static_cast<long long>(s.worker_cpu_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
