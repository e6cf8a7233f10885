// Shared plumbing of the benchmark program: arguments, clocks, order
// statistics, the timed window, and the metric report printed as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its span log (JSON lines); empty = nowhere.
  std::string trace_out;
  /// Provenance stamps passed through to the environment line.
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

double SecondsSince(Clock::time_point start);
/// \brief User + system CPU of the whole process (every thread), seconds.
double ProcessCpuSeconds();
/// \brief Peak resident set size of the process, MiB.
double PeakRssMb();
/// \brief Thread CPU of the calling thread, seconds.
double ThreadCpuSeconds();

/// \brief Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// \brief Named metrics in insertion order, rendered as the result line's
/// "metrics" object. Values are printed with every digit measured.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// \brief One timed window: every request sent, how many failed (non-OK
/// status or a result that differs from the reference), the window's wall
/// and process-CPU time, and per-request wall latencies.
struct Window {
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> latency_ms;
  /// Requests per pass when the window runs whole passes over a fixed set
  /// of queries (latency_ms then holds the passes in order); 0 otherwise.
  size_t pass_requests = 0;

  int64_t ok() const { return attempted - failed; }
  double Qps() const { return wall_s > 0 ? static_cast<double>(ok()) / wall_s : 0; }
  /// \brief Latency quantile `q`. A pass-based window takes the median over
  /// passes of each pass's quantile: every pass holds each query once, so a
  /// pass's quantile sits at a fixed rank among the queries, where a
  /// quantile over all requests moves between two queries' latencies as
  /// the pass count changes.
  double LatencyQuantile(double q) const;
};

/// \brief Append the end-to-end metrics of `window` (plus `setup_s`).
void AddEndToEnd(const Window& window, double setup_s, Report* report);

std::string JsonEscape(const std::string& s);
/// \brief `v` with every digit it holds (round-trips exactly).
std::string JsonNumber(double v);

}  // namespace perfbench
