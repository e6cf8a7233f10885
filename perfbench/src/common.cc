#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <ctime>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::Add(const std::string& name, double value, const std::string& unit) {
  entries_.push_back(Entry{name, value, unit});
}

std::string Report::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(e.name) + "\": {\"value\": " + JsonNumber(e.value) +
           ", \"unit\": \"" + JsonEscape(e.unit) + "\"}";
  }
  return out + "}";
}

double Window::LatencyQuantile(double q) const {
  if (pass_requests == 0) return Quantile(latency_ms, q);
  std::vector<double> per_pass;
  for (size_t begin = 0; begin + pass_requests <= latency_ms.size();
       begin += pass_requests) {
    per_pass.push_back(Quantile(
        std::vector<double>(latency_ms.begin() + static_cast<std::ptrdiff_t>(begin),
                            latency_ms.begin() +
                                static_cast<std::ptrdiff_t>(begin + pass_requests)),
        q));
  }
  return Median(per_pass);
}

void AddEndToEnd(const Window& window, double setup_s, Report* report) {
  report->Add("setup_s", setup_s, "s");
  report->Add("throughput_qps", window.Qps(), "1/s");
  report->Add("latency_p50_ms", window.LatencyQuantile(0.50), "ms");
  report->Add("latency_p95_ms", window.LatencyQuantile(0.95), "ms");
  report->Add("cpu_ms_per_query",
              window.ok() > 0 ? window.cpu_s * 1e3 / static_cast<double>(window.ok())
                              : 0,
              "ms");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
