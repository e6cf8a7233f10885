// Serving workloads: a closed loop of client threads (each sends its next
// request when the previous one returns) against one QueryService with the
// engine's default options. Each query runs at the service's default width.
//
//  serve_hot     TPC-DS-lite, a fixed set of kHotShapes query shapes that
//                fits the plan cache; literals unchanged; picks uniform
//                (every block of kHotShapes requests is a seeded
//                permutation of the set).
//  serve_skewed  CUSTOMER-lite, all of its templates (more shapes than the
//                plan cache holds); each request picks a template by
//                Zipf(s = 1) over the workload's query order and scales its
//                int literals by one of five fixed factors (±8 %, the
//                JitterSpecConstants scheme of bench_concurrent_queries).
//                Each block of kSkewBlock requests holds the Zipf mix at
//                fixed quantiles, offset per block along the golden-ratio
//                sequence so the tail rotates through every template; the
//                seed orders each block and deals out the literal variants.
//                Runs of different seeds thus send the same mix, which
//                keeps their spread down to that of the serving itself.
//
// The untraced window runs with collect_traces off; the traced window runs
// on a second, identically set-up service with traces and EXPLAIN ANALYZE
// on, and reads its per-layer numbers from the QueryTrace span trees and
// the plan- and build-cache counters.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"
#include "src/plan/predicate_shape.h"
#include "src/server/plan_cache.h"
#include "src/server/query_service.h"

namespace perfbench {
namespace {

constexpr size_t kHotShapes = 48;
constexpr size_t kHotBlocks = 2048;
constexpr size_t kSkewBlock = 100;
constexpr size_t kSkewBlocks = 40;
constexpr size_t kSkewWarmup = 64;
constexpr int kJitterVariants = 5;

/// Requests of one workload: the distinct specs, the warm-up requests
/// sent in set-up, and the seeded stream the timed windows walk in whole
/// blocks (spec indices).
struct Traffic {
  std::vector<bqo::QuerySpec> templates;
  std::vector<bqo::QuerySpec> specs;
  std::vector<int> warmup;
  std::vector<int> stream;
  size_t block = 1;
};

/// Scale every int64 literal of `spec` by one of five fixed factors
/// (variant 0 leaves the spec unchanged).
bqo::QuerySpec JitterLiterals(const bqo::QuerySpec& spec, int variant) {
  static constexpr double kFactors[kJitterVariants] = {1.0, 1.05, 0.95, 1.08,
                                                       0.92};
  const double factor = kFactors[variant % kJitterVariants];
  if (factor == 1.0) return spec;
  bqo::QuerySpec out = spec;
  for (bqo::QueryRelation& rel : out.relations) {
    if (rel.predicate == nullptr) continue;
    std::vector<bqo::Value> constants =
        bqo::CollectPredicateConstants(rel.predicate);
    bool moved = false;
    for (bqo::Value& v : constants) {
      if (v.type() != bqo::DataType::kInt64) continue;
      v = bqo::Value(
          static_cast<int64_t>(static_cast<double>(v.AsInt64()) * factor));
      moved = true;
    }
    if (moved) {
      rel.predicate = bqo::RebindPredicateConstants(rel.predicate, constants);
    }
  }
  return out;
}

Traffic HotTraffic(const bqo::Workload& workload, uint64_t seed) {
  Traffic t;
  const size_t n = std::min(kHotShapes, workload.queries.size());
  t.templates.assign(workload.queries.begin(), workload.queries.begin() + n);
  t.specs = t.templates;
  t.block = n;
  t.warmup = SeededPermutation(n, seed, 0);  // every shape once
  for (size_t b = 1; b <= kHotBlocks; ++b) {
    const std::vector<int> block = SeededPermutation(n, seed, b);
    t.stream.insert(t.stream.end(), block.begin(), block.end());
  }
  return t;
}

Traffic SkewedTraffic(const bqo::Workload& workload, uint64_t seed) {
  Traffic t;
  t.templates = workload.queries;
  const size_t n = t.templates.size();
  for (const bqo::QuerySpec& spec : t.templates) {
    for (int v = 0; v < kJitterVariants; ++v) {
      t.specs.push_back(JitterLiterals(spec, v));
    }
  }
  // Zipf(s = 1): template i has weight 1 / (i + 1).
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) cdf[i] = total += 1.0 / static_cast<double>(i + 1);
  for (double& c : cdf) c /= total;
  std::mt19937_64 rng(MixSeed(seed, 0x5EED));
  constexpr double kGolden = 0.6180339887498949;
  t.block = kSkewBlock;
  // Block 0 opens the warm-up; the timed stream starts at block 1.
  for (size_t b = 0; b <= kSkewBlocks; ++b) {
    const double offset = std::fmod(0.5 + kGolden * static_cast<double>(b), 1.0);
    std::vector<int> picks;
    std::vector<int> variants;
    for (size_t j = 0; j < kSkewBlock; ++j) {
      const double u = (static_cast<double>(j) + offset) /
                       static_cast<double>(kSkewBlock);
      const size_t tmpl = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      picks.push_back(static_cast<int>(std::min(tmpl, n - 1)));
      variants.push_back(static_cast<int>(j % kJitterVariants));
    }
    std::shuffle(picks.begin(), picks.end(), rng);
    std::shuffle(variants.begin(), variants.end(), rng);
    std::vector<int>& into = b == 0 ? t.warmup : t.stream;
    for (size_t j = 0; j < kSkewBlock && (b > 0 || j < kSkewWarmup); ++j) {
      into.push_back(picks[j] * kJitterVariants + variants[j]);
    }
  }
  return t;
}

bqo::QueryServiceOptions ServiceOptions(bool traced) {
  bqo::QueryServiceOptions options;  // engine defaults otherwise
  options.optimizer = BqoOptions();
  options.collect_traces = traced;
  options.explain_analyze = traced;
  return options;
}

struct Served {
  bqo::Workload workload;  ///< declared first: the service borrows its catalog
  Traffic traffic;
  std::unique_ptr<bqo::QueryService> service;
  double gen_s = 0;
  int64_t warmup_failed = 0;
};

/// Hands request indices to the client threads: all of [0, count) for a
/// counted loop; for a timed loop, indices until the first block boundary
/// at or after the moment the deadline is seen, so a window sends whole
/// blocks and every window of a workload runs the same request mix.
class Dispenser {
 public:
  Dispenser(size_t count, size_t block, Clock::time_point deadline, bool timed)
      : block_(block), deadline_(deadline), timed_(timed),
        stop_(timed ? SIZE_MAX : count) {}

  bool Next(size_t* index) {
    std::lock_guard<std::mutex> lock(mu_);
    if (timed_ && stop_ == SIZE_MAX && Clock::now() >= deadline_) {
      stop_ = (next_ + block_ - 1) / block_ * block_;
    }
    if (next_ >= stop_) return false;
    *index = next_++;
    return true;
  }

 private:
  const size_t block_;
  const Clock::time_point deadline_;
  const bool timed_;
  std::mutex mu_;
  size_t next_ = 0;  ///< guarded by mu_
  size_t stop_;      ///< guarded by mu_
};

/// Closed loop over `requests`: every entry once (seconds <= 0), or whole
/// blocks of them until `seconds` have elapsed. Results are checked against
/// `refs` when given, otherwise only their status.
Window ClosedLoop(Served& s, const std::vector<int>& requests,
                  double seconds, const std::vector<Reference>* refs,
                  int clients, Tracing* tracing) {
  std::vector<Window> per_client(static_cast<size_t>(clients));
  std::vector<Tracing> per_client_tracing(static_cast<size_t>(clients));
  const auto start = Clock::now();
  Dispenser dispenser(requests.size(), s.traffic.block,
                      start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds)),
                      seconds > 0);
  const double cpu0 = ProcessCpuSeconds();
  auto client = [&](size_t c) {
    Window& w = per_client[c];
    Tracing& tr = per_client_tracing[c];
    for (size_t i = 0; dispenser.Next(&i);) {
      const size_t spec = static_cast<size_t>(requests[i % requests.size()]);
      const auto sent = Clock::now();
      const bqo::QueryResult r = s.service->Execute(s.traffic.specs[spec]);
      w.latency_ms.push_back(SecondsSince(sent) * 1e3);
      ++w.attempted;
      if (!r.status.ok() || (refs != nullptr && !(*refs)[spec].Matches(r.metrics))) {
        ++w.failed;
      }
      if (tracing != nullptr && r.trace != nullptr) {
        const std::vector<Span> spans = FromEngineTrace(r.trace->spans());
        tr.tally.AddRequest(spans);
        tr.tally.AddExecution(r.metrics, s.service->workers_per_query(),
                              r.estimated_cost, r.pruned_filters,
                              r.explain.get());
        tr.tally.AddReportedOptimizeNs(r.optimize_ns);
        tr.Log(static_cast<int64_t>(i), spans);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < per_client.size(); ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  Window w;
  w.wall_s = SecondsSince(start);
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  for (size_t c = 0; c < per_client.size(); ++c) {
    w.attempted += per_client[c].attempted;
    w.failed += per_client[c].failed;
    w.latency_ms.insert(w.latency_ms.end(), per_client[c].latency_ms.begin(),
                        per_client[c].latency_ms.end());
    if (tracing != nullptr) tracing->Merge(std::move(per_client_tracing[c]));
  }
  return w;
}

/// Generate, build the service, and warm it up with the warm-up requests.
template <typename MakeTraffic>
Served SetUp(const std::string& family, bool traced, int clients,
             const Args& args, MakeTraffic make_traffic) {
  Served s;
  const auto start = Clock::now();
  s.workload = family == "tpcds" ? bqo::MakeTpcdsLite(kScale)
                                 : bqo::MakeCustomerLite(kScale);
  s.gen_s = SecondsSince(start);
  s.traffic = make_traffic(s.workload, args.seed);
  s.service = std::make_unique<bqo::QueryService>(s.workload.catalog.get(),
                                                  ServiceOptions(traced));
  s.warmup_failed =
      ClosedLoop(s, s.traffic.warmup, 0, nullptr, clients, nullptr).failed;
  return s;
}

size_t DistinctShapes(const Served& s) {
  const bqo::OptimizerOptions options = ServiceOptions(false).optimizer;
  std::set<std::string> shapes;
  for (const bqo::QuerySpec& spec : s.traffic.templates) {
    auto graph = bqo::BuildJoinGraph(*s.workload.catalog, spec,
                                     /*attach_statistics=*/false);
    BQO_CHECK_MSG(graph.ok(), ("query failed to bind: " + spec.name).c_str());
    shapes.insert(bqo::PlanCache::ShapeSignature(graph.value(), options));
  }
  return shapes.size();
}

/// Width-1 references of every distinct spec, computed on `clients` threads.
std::vector<Reference> References(const Served& s, int clients) {
  bqo::StatsCatalog stats(s.workload.catalog.get());
  std::vector<Reference> refs(s.traffic.specs.size());
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (size_t i; (i = cursor.fetch_add(1)) < refs.size();) {
        refs[i] = ReferenceOf(*s.workload.catalog, s.traffic.specs[i], &stats);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return refs;
}

/// Plan- and build-cache counters over a window (deltas), as layer metrics.
void CacheLayers(const bqo::PlanCacheStats& p0, const bqo::PlanCacheStats& p1,
                 const bqo::BuildCacheStats& b0, const bqo::BuildCacheStats& b1,
                 std::map<std::string, double>* layers) {
  auto& m = *layers;
  const double hits = static_cast<double>(p1.hits - p0.hits);
  const double lookups =
      hits + static_cast<double>((p1.misses - p0.misses) +
                                 (p1.reoptimizations - p0.reoptimizations));
  m["plan_cache.hit_rate"] = lookups > 0 ? hits / lookups : 0;
  m["plan_cache.misses"] = static_cast<double>(p1.misses - p0.misses);
  m["plan_cache.rebinds"] = static_cast<double>(p1.rebinds - p0.rebinds);
  m["plan_cache.reoptimizations"] =
      static_cast<double>(p1.reoptimizations - p0.reoptimizations);
  m["plan_cache.evictions"] = static_cast<double>(p1.evictions - p0.evictions);
  m["plan_cache.drift_invalidations"] =
      static_cast<double>(p1.drift_invalidations - p0.drift_invalidations);
  const double bc_lookups = static_cast<double>(b1.lookups - b0.lookups);
  m["build_cache.hit_rate"] =
      bc_lookups > 0 ? static_cast<double>(b1.hits - b0.hits) / bc_lookups : 0;
  m["build_cache.builds"] = static_cast<double>(b1.misses - b0.misses);
  m["build_cache.single_flight_waits"] =
      static_cast<double>(b1.single_flight_waits - b0.single_flight_waits);
  m["build_cache.evictions"] = static_cast<double>(b1.evictions - b0.evictions);
  m["build_cache.resident_mb"] = static_cast<double>(b1.bytes) / (1 << 20);
}

/// Runs either serving workload. `fits_cache` states the
/// premise: the shapes fit the plan cache (serve_hot) or exceed it
/// (serve_skewed).
template <typename MakeTraffic>
RunOutput RunServing(const Args& args, const std::string& family,
                     bool fits_cache, MakeTraffic make_traffic) {
  RunOutput out;
  out.clients = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  Served s = RepeatSetup(
      args,
      [&] { return SetUp(family, /*traced=*/false, out.clients, args, make_traffic); },
      &out);
  out.width = s.service->workers_per_query();
  const std::vector<Reference> refs = References(s, out.clients);

  // The premise the workload is named for.
  const bqo::QueryServiceOptions defaults = ServiceOptions(false);
  const size_t shapes = DistinctShapes(s);
  const size_t capacity = defaults.plan_cache_capacity;
  if (fits_cache != (shapes <= capacity)) {
    out.problems.push_back("premise: " + std::to_string(shapes) +
                           " distinct shapes vs plan-cache capacity " +
                           std::to_string(capacity));
  }
  int64_t warmup_failed = s.warmup_failed;

  const bqo::PlanCacheStats p0 = s.service->cache_stats();
  const bqo::BuildCacheStats b0 = s.service->build_cache_stats();
  out.window = ClosedLoop(s, s.traffic.stream, args.seconds, &refs,
                          out.clients, nullptr);
  // The untraced window's cache counters, stamped on every run.
  std::map<std::string, double> caches;
  CacheLayers(p0, s.service->cache_stats(), b0, s.service->build_cache_stats(),
              &caches);
  std::string stamp;
  for (const auto& [name, value] : caches) {
    stamp += (stamp.empty() ? "{" : ", ") + ("\"" + name + "\": ") + JsonNumber(value);
  }
  out.stamps["window_caches"] = stamp + "}";
  out.stamps["distinct_shapes"] = std::to_string(shapes);
  out.stamps["plan_cache_capacity"] = std::to_string(capacity);
  out.stamps["build_cache_bound_mb"] = std::to_string(defaults.build_cache_mb);
  out.stamps["distinct_specs"] = std::to_string(s.traffic.specs.size());

  if (args.trace) {
    out.layers["workload.gen_s"] = s.gen_s;
    const auto start = Clock::now();
    bqo::StatsCatalog stats(s.workload.catalog.get());
    TouchStatistics(*s.workload.catalog, &stats);
    out.layers["stats.collect_s"] = SecondsSince(start);
    out.layers["optimizer.band_probe_factor"] =
        BandProbeFactor(*s.workload.catalog, s.traffic.templates, &stats);
    out.layers["plan_cache.distinct_shapes"] = static_cast<double>(shapes);

    // One served database at a time; the service goes before its catalog.
    s.service.reset();
    s = Served();
    Served traced = SetUp(family, /*traced=*/true, out.clients, args, make_traffic);
    warmup_failed += traced.warmup_failed;
    const bqo::PlanCacheStats tp0 = traced.service->cache_stats();
    const bqo::BuildCacheStats tb0 = traced.service->build_cache_stats();
    Tracing tracing;
    out.traced = ClosedLoop(traced, traced.traffic.stream, args.seconds, &refs,
                            out.clients, &tracing);
    CacheLayers(tp0, traced.service->cache_stats(), tb0,
                traced.service->build_cache_stats(), &out.layers);
    FinishTraced(args, tracing, &out);
  }
  if (warmup_failed > 0) {
    out.problems.push_back(std::to_string(warmup_failed) +
                           " warm-up requests failed");
  }
  return out;
}

}  // namespace

RunOutput RunServeHot(const Args& args) {
  return RunServing(args, "tpcds", /*fits_cache=*/true, HotTraffic);
}

RunOutput RunServeSkewed(const Args& args) {
  return RunServing(args, "customer", /*fits_cache=*/false, SkewedTraffic);
}

}  // namespace perfbench
