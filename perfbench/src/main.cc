// perfbench: runs one workload of the engine benchmark and prints, as the
// last line of stdout, one JSON object with the run's correctness, request
// counts, and metrics (end-to-end metrics on untraced runs, per-layer
// metrics on traced runs). The line before it stamps the environment.
//
//   perfbench --workload <fig8_batch|job_wide|serve_hot|serve_skewed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <span log path>] [--commit <id>]
//             [--source-digest <hash>]
//
// Exit code 0 = every request matched its reference result and every
// premise held; 1 = a check failed (the result line says so); 2 = bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"
#include "src/common/simd.h"
#include "src/server/worker_pool.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--commit <id>] [--source-digest <hash>]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string Quoted(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

void PrintInfo(const Args& args, const RunOutput& out) {
  std::map<std::string, std::string> info = out.stamps;
  info["workload"] = Quoted(args.workload);
  info["seed"] = std::to_string(args.seed);
  info["seconds"] = JsonNumber(args.seconds);
  info["trace"] = args.trace ? "1" : "0";
  info["nproc"] = std::to_string(std::thread::hardware_concurrency());
  info["simd_tier"] = Quoted(bqo::SimdTierName(bqo::ActiveSimdTier()));
  info["pool_threads"] = std::to_string(bqo::WorkerPool::Global().num_threads());
  info["width"] = std::to_string(out.width);
  info["clients"] = std::to_string(out.clients);
  info["scale"] = JsonNumber(kScale);
  info["commit"] = Quoted(args.commit);
  info["source_digest"] = Quoted(args.source_digest);
  info["latency_samples"] = std::to_string(out.window.latency_ms.size());
  info["window_s"] = JsonNumber(out.window.wall_s);
  std::string setups = "[";
  for (size_t i = 0; i < out.setup_samples.size(); ++i) {
    setups += (i > 0 ? ", " : "") + JsonNumber(out.setup_samples[i]);
  }
  info["setup_s_samples"] = setups + "]";
  std::string problems = "[";
  for (size_t i = 0; i < out.problems.size(); ++i) {
    problems += (i > 0 ? ", " : "") + Quoted(out.problems[i]);
  }
  info["problems"] = problems + "]";

  std::string line = "{\"info\": {";
  bool first = true;
  for (const auto& [key, value] : info) {
    line += (first ? "" : ", ") + Quoted(key) + ": " + value;
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  const std::map<std::string, std::function<RunOutput(const Args&)>> workloads = {
      {"fig8_batch", RunFig8Batch},
      {"job_wide", RunJobWide},
      {"serve_hot", RunServeHot},
      {"serve_skewed", RunServeSkewed},
  };
  const auto it = workloads.find(args.workload);
  if (it == workloads.end()) return Usage("unknown workload");

  const RunOutput out = it->second(args);

  Report report;
  if (args.trace) {
    size_t reported = 0;
    for (const MetricDef& def : PerLayerMetrics()) {
      const auto v = out.layers.find(def.name);
      reported += v != out.layers.end() ? 1 : 0;
      report.Add(def.name, v == out.layers.end() ? 0.0 : v->second, def.unit);
    }
    // Every layer value a workload sets must be a listed metric.
    BQO_CHECK_MSG(reported == out.layers.size(), "unlisted per-layer metric");
  } else {
    AddEndToEnd(out.window, Median(out.setup_samples), &report);
  }
  const int64_t attempted = out.window.attempted + out.traced.attempted;
  const int64_t failed = out.window.failed + out.traced.failed;
  const bool correct = failed == 0 && out.problems.empty();
  PrintInfo(args, out);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), report.ToJson().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
