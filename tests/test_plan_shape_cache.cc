// Plan-shape cache correctness: the predicate structure/constant split,
// the JoinGraph shape signature, and the PlanCache's match + re-bind +
// re-cost + escalate protocol. Pins:
//
//  * Shape split is lossless: PredicateShape ignores literals but nothing
//    else; RebindPredicateConstants(structure, constants) reproduces a
//    predicate with the same shape and exactly those constants.
//  * ShapeSignature equality across literal changes, inequality across
//    structural changes (predicate family, relation/join count).
//  * Re-cost guarantee: a served rebind's re-cost is at most
//    kRecostBound times the estimated cost of a fresh optimization at the
//    same literals; a far selectivity move escalates.
//  * PlanCache protocol: exact-constant lookups serve the shared entry
//    (the zero-slot degenerate case IS the old exact-match cache); moved
//    constants passing the re-cost check serve a private rebound
//    instance; a failed check or a stale entry escalates to kReoptimize
//    and Insert replaces the entry. Counters land each lookup in exactly
//    one of hits / misses / reoptimizations.
//  * Drift feedback: observed lambda far from the estimate marks the
//    entry stale exactly once and pins exactly one re-optimization; the
//    replacement is re-anchored on the observed lambda, so the same
//    feedback keeps it served — but only at the same literals: one
//    optimized at moved literals keeps its own estimates. Through QueryService, a fixed-literal
//    workload re-optimizes at most once per shape, however many rounds.
//  * End-to-end parity: a shape hit that re-binds constants produces
//    checksums and merged filter stats identical to a cold optimize of
//    the same literals — swept over pool sizes {1,2,4} and star /
//    snowflake / sort-merge plans.
//  * A templated workload (same shape, jittered literals) achieves a
//    shape-hit rate >= 0.9 with zero re-optimizations.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/optimizer/parameterized.h"
#include "src/plan/predicate_shape.h"
#include "src/server/plan_cache.h"
#include "src/server/query_service.h"
#include "src/server/worker_pool.h"
#include "src/stats/estimated_cost.h"
#include "test_util.h"

namespace bqo {
namespace {

using ::bqo::testing::MakeSnowflakeDb;
using ::bqo::testing::MakeStarDb;
using ::bqo::testing::TestDb;

struct GlobalPoolGuard {
  ~GlobalPoolGuard() { WorkerPool::ResetGlobal(0); }
};

// ---- Predicate shape: structure/constant split ----

TEST(PredicateShape, LiteralsBecomeSlotsStructureStays) {
  // Null predicate: the zero-slot degenerate case.
  EXPECT_EQ(PredicateShape(nullptr), "TRUE");
  EXPECT_TRUE(CollectPredicateConstants(nullptr).empty());

  // Same structure, different literal: one shape, different constants.
  const ExprPtr a = Lt("attr0", 100);
  const ExprPtr b = Lt("attr0", 900);
  EXPECT_EQ(PredicateShape(a), PredicateShape(b));
  EXPECT_NE(CollectPredicateConstants(a), CollectPredicateConstants(b));

  // Different column or comparison: different shape.
  EXPECT_NE(PredicateShape(a), PredicateShape(Lt("attr1", 100)));
  EXPECT_NE(PredicateShape(a),
            PredicateShape(
                Compare("attr0", CompareOp::kLe, Value(int64_t{100}))));

  // IN list length is structure; its elements are slots.
  EXPECT_EQ(PredicateShape(In("attr0", {1, 2, 3})),
            PredicateShape(In("attr0", {7, 8, 9})));
  EXPECT_NE(PredicateShape(In("attr0", {1, 2, 3})),
            PredicateShape(In("attr0", {1, 2})));

  // The modulo divisor is structure (it names the predicate family); the
  // bound is a slot.
  EXPECT_EQ(PredicateShape(ModLess("attr0", 10, 3)),
            PredicateShape(ModLess("attr0", 10, 7)));
  EXPECT_NE(PredicateShape(ModLess("attr0", 10, 3)),
            PredicateShape(ModLess("attr0", 20, 3)));

  // Boolean structure distinguishes shapes.
  const ExprPtr conj = And({Lt("attr0", 5), Between("attr1", 1, 9)});
  EXPECT_NE(PredicateShape(conj), PredicateShape(Lt("attr0", 5)));
  EXPECT_EQ(CollectPredicateConstants(conj).size(), 3u);
}

TEST(PredicateShape, RebindIsLossless) {
  const ExprPtr original =
      And({Between("attr0", 100, 400), Not(In("attr1", {3, 5, 8})),
           Or({LikeContains("label", "foo"), ModLess("attr0", 16, 4)})});
  const std::vector<Value> constants = CollectPredicateConstants(original);
  ASSERT_EQ(constants.size(), 7u);  // 2 + 3 + 1 + 1

  // Round trip with its own constants.
  const ExprPtr same = RebindPredicateConstants(original, constants);
  EXPECT_EQ(PredicateShape(same), PredicateShape(original));
  EXPECT_EQ(CollectPredicateConstants(same), constants);

  // Re-bind moved constants: shape invariant, new slot table installed.
  std::vector<Value> moved = constants;
  moved[0] = Value(int64_t{200});
  moved[6] = Value(int64_t{11});
  const ExprPtr rebound = RebindPredicateConstants(original, moved);
  EXPECT_EQ(PredicateShape(rebound), PredicateShape(original));
  EXPECT_EQ(CollectPredicateConstants(rebound), moved);
}

// ---- JoinGraph shape signature ----

TEST(JoinGraphShape, SignatureIgnoresLiteralsNotStructure) {
  auto db = MakeStarDb(2, 5000, 100, {0.4, 0.5}, 21);
  auto graph = db->Graph();
  ASSERT_TRUE(graph.ok());

  // Changed literal: same shape, different constant table.
  QuerySpec shifted = db->spec;
  shifted.relations[1].predicate = Lt("attr0", 123);
  auto graph2 = BuildJoinGraph(db->catalog, shifted);
  ASSERT_TRUE(graph2.ok());
  EXPECT_EQ(graph.value().ShapeSignature(), graph2.value().ShapeSignature());
  EXPECT_NE(graph.value().ConstantTable(), graph2.value().ConstantTable());

  // Changed predicate family on the same relation: different shape.
  QuerySpec reshaped = db->spec;
  reshaped.relations[1].predicate = Between("attr0", 100, 400);
  auto graph3 = BuildJoinGraph(db->catalog, reshaped);
  ASSERT_TRUE(graph3.ok());
  EXPECT_NE(graph.value().ShapeSignature(), graph3.value().ShapeSignature());

  // Fewer relations/joins: different shape.
  QuerySpec narrower = db->spec;
  narrower.relations.pop_back();
  narrower.joins.pop_back();
  auto graph4 = BuildJoinGraph(db->catalog, narrower);
  ASSERT_TRUE(graph4.ok());
  EXPECT_NE(graph.value().ShapeSignature(), graph4.value().ShapeSignature());

  // Optimizer knobs are part of the cache key (they change the plan).
  OptimizerOptions opt;
  OptimizerOptions pruned = opt;
  pruned.lambda_thresh = 0.5;
  EXPECT_NE(PlanCache::ShapeSignature(graph.value(), opt),
            PlanCache::ShapeSignature(graph.value(), pruned));
}

// ---- PlanCache protocol ----

struct CacheHarness {
  std::unique_ptr<TestDb> db;
  StatsCatalog stats;
  OptimizerOptions opt;
  PlanCache cache;

  explicit CacheHarness(std::unique_ptr<TestDb> d,
                        PlanCacheOptions options = {})
      : db(std::move(d)), stats(&db->catalog), cache(options) {}

  std::string Sig(const JoinGraph& graph) const {
    return PlanCache::ShapeSignature(graph, opt);
  }

  /// Optimize `spec` cold and insert it, replacing `refused` (the entry a
  /// kReoptimize lookup returned, if any); returns the cache entry.
  std::shared_ptr<const CachedPlan> OptimizeAndInsert(
      const QuerySpec& spec, const CachedPlan* refused = nullptr) {
    auto graph = BuildJoinGraph(db->catalog, spec);
    BQO_CHECK(graph.ok());
    ParameterizedPlan p = OptimizeParameterized(graph.value(), &stats, opt);
    return cache.Insert(Sig(graph.value()), db->catalog.version(),
                        graph.value(), std::move(p), refused);
  }

  /// Serving-path lookup: statistics deferred, literals bound.
  PlanCache::LookupOutcome Lookup(const QuerySpec& spec) {
    auto graph =
        BuildJoinGraph(db->catalog, spec, /*attach_statistics=*/false);
    BQO_CHECK(graph.ok());
    return cache.Lookup(Sig(graph.value()), db->catalog.version(),
                        graph.value(), &stats, opt.filter_fp_rate);
  }

  /// Estimated cost of a fresh OptimizeQuery of `spec`.
  double FreshCost(const QuerySpec& spec) {
    auto graph = BuildJoinGraph(db->catalog, spec);
    BQO_CHECK(graph.ok());
    return OptimizeQuery(graph.value(), &stats, opt).estimated_cost;
  }
};

QuerySpec WithBound(const TestDb& db, size_t relation, int64_t bound) {
  QuerySpec spec = db.spec;
  spec.relations[relation].predicate = Lt("attr0", bound);
  return spec;
}

TEST(PlanCacheShape, ExactConstantsServeTheSharedEntry) {
  CacheHarness h(MakeStarDb(2, 8000, 200, {0.4, 0.5}, 77));
  const auto entry = h.OptimizeAndInsert(h.db->spec);

  const auto outcome = h.Lookup(h.db->spec);
  ASSERT_EQ(outcome.kind, PlanCache::LookupOutcome::Kind::kServed);
  EXPECT_FALSE(outcome.rebound);
  EXPECT_EQ(outcome.instance.get(), entry.get());  // zero-copy
  EXPECT_EQ(outcome.entry.get(), entry.get());

  const PlanCacheStats s = h.cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.shape_hits, 1);
  EXPECT_EQ(s.rebinds, 0);
  EXPECT_EQ(s.reoptimizations, 0);
}

TEST(PlanCacheShape, MovedConstantsPassingRecostRebindPrivately) {
  // A small nudge of one literal barely moves the cached plan's cost, so
  // the re-cost check passes with room to spare.
  CacheHarness h(MakeStarDb(3, 12000, 300, {0.3, 0.6, 0.15}, 991));
  const auto entry = h.OptimizeAndInsert(h.db->spec);

  // Nudge relation 2's bound 600 -> 640 (selectivity 0.60 -> 0.64).
  const QuerySpec moved = WithBound(*h.db, 2, 640);
  const auto outcome = h.Lookup(moved);
  ASSERT_EQ(outcome.kind, PlanCache::LookupOutcome::Kind::kServed);
  EXPECT_TRUE(outcome.rebound);
  ASSERT_NE(outcome.instance, nullptr);
  EXPECT_NE(outcome.instance.get(), entry.get());  // private instance
  EXPECT_EQ(outcome.entry.get(), entry.get());     // feedback target

  // The instance owns its graph, carries the query's literal, and its
  // plan points at the owned copy; the join order is the cached one.
  const CachedPlan& inst = *outcome.instance;
  EXPECT_EQ(inst.plan.graph, &inst.graph);
  EXPECT_EQ(CollectPredicateConstants(inst.graph.relation(2).predicate),
            CollectPredicateConstants(moved.relations[2].predicate));
  EXPECT_EQ(inst.plan.Signature(), entry->plan.Signature());
  // The instance reports its re-cost: more rows pass the moved predicate.
  EXPECT_GT(inst.estimated_cost, entry->estimated_cost);

  const PlanCacheStats s = h.cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.rebinds, 1);
  EXPECT_EQ(s.reoptimizations, 0);
}

TEST(PlanCacheShape, FailedRecostEscalatesAndInsertReplaces) {
  CacheHarness h(MakeStarDb(2, 8000, 200, {0.4, 0.5}, 77));
  h.OptimizeAndInsert(h.db->spec);

  // Bound 400 -> 1: selectivity collapses from 0.4 to ~0.001, so the
  // optimum may have fallen ~400x while the cached plan's re-cost cannot
  // follow it (its other inputs did not move).
  const QuerySpec collapsed = WithBound(*h.db, 1, 1);
  const auto refused = h.Lookup(collapsed);
  EXPECT_EQ(refused.kind, PlanCache::LookupOutcome::Kind::kReoptimize);
  EXPECT_EQ(refused.instance, nullptr);

  // The escalation path re-optimizes and Insert replaces the entry — the
  // shape's slot now belongs to the new literals.
  h.OptimizeAndInsert(collapsed, refused.entry.get());
  EXPECT_EQ(h.cache.stats().entries, 1);
  const auto now_exact = h.Lookup(collapsed);
  EXPECT_EQ(now_exact.kind, PlanCache::LookupOutcome::Kind::kServed);
  EXPECT_FALSE(now_exact.rebound);

  const PlanCacheStats s = h.cache.stats();
  EXPECT_EQ(s.reoptimizations, 1);
  EXPECT_EQ(s.shape_hits, 2);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 0);
}

/// For jittered and far-moved literals, every served rebind's re-cost is
/// within kRecostBound of a fresh optimization's estimated cost at the
/// same literals, and a far move escalates.
TEST(PlanCacheShape, RecostGuaranteeBoundsServedRebinds) {
  CacheHarness h(MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 1177));
  const auto entry = h.OptimizeAndInsert(h.db->spec);
  ASSERT_EQ(static_cast<int>(entry->optimize_sel.size()),
            entry->graph.num_relations());
  ASSERT_FALSE(entry->lambda_reference.empty());

  // SelPredicate's bounds for the selectivities above.
  const int64_t warm_bounds[] = {300, 600, 150};
  int served = 0;
  for (size_t rel = 1; rel <= 3; ++rel) {
    const int64_t warm = warm_bounds[rel - 1];
    for (double scale : {0.92, 0.95, 1.05, 1.08, 1.5, 0.5, 0.02}) {
      const int64_t bound =
          std::max<int64_t>(1, static_cast<int64_t>(warm * scale));
      const QuerySpec spec = WithBound(*h.db, rel, bound);
      const auto outcome = h.Lookup(spec);
      const std::string what =
          "rel " + std::to_string(rel) + " bound " + std::to_string(bound);
      if (outcome.kind != PlanCache::LookupOutcome::Kind::kServed) {
        ASSERT_EQ(outcome.kind, PlanCache::LookupOutcome::Kind::kReoptimize)
            << what;
        continue;
      }
      ++served;
      EXPECT_LE(outcome.instance->estimated_cost,
                kRecostBound * h.FreshCost(spec) * (1 + 1e-9))
          << what;
    }
  }
  // Jitter within 8% passes the check for every relation.
  EXPECT_GE(served, 3 * 4);

  // A far move (selectivity 0.6 -> 0.001) escalates.
  EXPECT_EQ(h.Lookup(WithBound(*h.db, 2, 1)).kind,
            PlanCache::LookupOutcome::Kind::kReoptimize);
  // The entry itself was never replaced: jitter rebinds privately.
  EXPECT_EQ(h.cache.stats().entries, 1);
}

/// Synthesized feedback as far from the reference as possible: a filter
/// that eliminated everything if the reference was low, nothing if high —
/// guaranteed past the default 0.25 margin.
std::vector<FilterStats> DriftedFeedback(const CachedPlan& entry) {
  std::vector<FilterStats> observed(entry.lambda_reference.size());
  for (size_t id = 0; id < observed.size(); ++id) {
    observed[id].filter_id = static_cast<int>(id);
    observed[id].created = true;
    observed[id].probed = 1000;
    observed[id].passed = entry.lambda_reference[id] > 0.5 ? 1000 : 0;
  }
  return observed;
}

/// Forcing observed lambda outside the drift margin marks the entry stale
/// exactly once and pins exactly one re-optimization; the replacement is
/// re-anchored on the observed lambda, so the same feedback keeps it
/// served.
TEST(PlanCacheShape, LambdaDriftPinsExactlyOneReoptimization) {
  CacheHarness h(MakeStarDb(2, 8000, 200, {0.4, 0.5}, 77));
  const auto entry = h.OptimizeAndInsert(h.db->spec);
  ASSERT_FALSE(entry->lambda_reference.empty());

  const std::vector<FilterStats> observed = DriftedFeedback(*entry);
  h.cache.RecordObservedLambdas(entry, observed);
  h.cache.RecordObservedLambdas(entry, observed);  // already stale: no-op
  EXPECT_EQ(h.cache.stats().drift_invalidations, 1);

  // Same constants, but the entry is stale: the hit must escalate...
  const auto refused = h.Lookup(h.db->spec);
  ASSERT_EQ(refused.kind, PlanCache::LookupOutcome::Kind::kReoptimize);
  // ...exactly once: the replacing insert clears the staleness.
  const auto replacement =
      h.OptimizeAndInsert(h.db->spec, refused.entry.get());
  EXPECT_EQ(h.Lookup(h.db->spec).kind,
            PlanCache::LookupOutcome::Kind::kServed);

  // The same statistics reproduce the same estimates; the replacement's
  // reference is the drifted observation instead, so feeding it the same
  // lambdas again neither marks it stale nor re-optimizes.
  for (size_t id = 0; id < observed.size(); ++id) {
    EXPECT_EQ(replacement->lambda_reference[id],
              observed[id].ObservedLambda())
        << id;
  }
  for (int i = 0; i < 3; ++i) {
    h.cache.RecordObservedLambdas(replacement, observed);
    EXPECT_EQ(h.Lookup(h.db->spec).kind,
              PlanCache::LookupOutcome::Kind::kServed);
  }
  EXPECT_FALSE(replacement->stale.load());
  EXPECT_EQ(h.cache.stats().reoptimizations, 1);
  EXPECT_EQ(h.cache.stats().drift_invalidations, 1);
}

/// A stale entry refused for far-moved literals observed its lambdas at
/// other literals: the replacement, optimized at the new point, keeps its
/// own estimates as drift reference.
TEST(PlanCacheShape, StaleRefusalAtMovedConstantsKeepsEstimates) {
  CacheHarness h(MakeStarDb(2, 8000, 200, {0.4, 0.5}, 77));
  const auto entry = h.OptimizeAndInsert(h.db->spec);
  const std::vector<FilterStats> observed = DriftedFeedback(*entry);
  h.cache.RecordObservedLambdas(entry, observed);
  ASSERT_TRUE(entry->stale.load());

  // Bound 400 -> 1: selectivity 0.4 -> ~0.001.
  const QuerySpec moved = WithBound(*h.db, 1, 1);
  const auto refused = h.Lookup(moved);
  ASSERT_EQ(refused.kind, PlanCache::LookupOutcome::Kind::kReoptimize);
  const auto replacement = h.OptimizeAndInsert(moved, refused.entry.get());

  auto graph = BuildJoinGraph(h.db->catalog, moved);
  ASSERT_TRUE(graph.ok());
  const std::vector<double> estimated =
      OptimizeParameterized(graph.value(), &h.stats, h.opt).estimated_lambda;
  ASSERT_EQ(replacement->lambda_reference.size(), estimated.size());
  int matched = 0;  // filters re-anchoring would have overwritten
  for (const PlanFilter& f : replacement->plan.filters) {
    const size_t id = static_cast<size_t>(f.id);
    EXPECT_EQ(replacement->lambda_reference[id], estimated[id]) << id;
    for (const PlanFilter& old : entry->plan.filters) {
      if (old.source_join == f.source_join &&
          old.applied_at == f.applied_at &&
          observed[static_cast<size_t>(old.id)].ObservedLambda() !=
              estimated[id]) {
        ++matched;
      }
    }
  }
  EXPECT_GT(matched, 0);
}

// ---- End-to-end: shape hits execute identically to cold optimizes ----

void ExpectMetricsEqual(const QueryMetrics& base, const QueryMetrics& m,
                        const std::string& what) {
  EXPECT_EQ(m.result_rows, base.result_rows) << what;
  EXPECT_EQ(m.result_checksum, base.result_checksum) << what;
  EXPECT_EQ(m.leaf_tuples, base.leaf_tuples) << what;
  EXPECT_EQ(m.join_tuples, base.join_tuples) << what;
  ASSERT_EQ(m.filters.size(), base.filters.size()) << what;
  for (size_t i = 0; i < m.filters.size(); ++i) {
    EXPECT_EQ(m.filters[i].created, base.filters[i].created)
        << what << " f" << i;
    EXPECT_EQ(m.filters[i].probed, base.filters[i].probed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].passed, base.filters[i].passed) << what << " f" << i;
    EXPECT_EQ(m.filters[i].inserted, base.filters[i].inserted)
        << what << " f" << i;
  }
}

struct TemplateUnderTest {
  std::unique_ptr<TestDb> db;
  size_t jitter_relation;    ///< relation whose literal the template moves
  int64_t warm_bound;        ///< literal the cache is warmed with
  int64_t hit_bound;         ///< moved literal served as a rebind
  QueryServiceOptions options;
};

std::vector<TemplateUnderTest> MakeTemplates() {
  std::vector<TemplateUnderTest> out;

  TemplateUnderTest star;
  star.db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 991, /*zipf=*/0.0);
  star.jitter_relation = 2;  // d1, selectivity 0.6
  star.warm_bound = 600;
  star.hit_bound = 640;
  star.db->spec.agg.kind = AggKind::kSum;
  star.db->spec.agg.sum_column = BoundColumn{0, "measure"};
  star.db->spec.agg.has_group_by = true;
  star.db->spec.agg.group_column = BoundColumn{1, "d0_id"};
  out.push_back(std::move(star));

  TemplateUnderTest snowflake;
  snowflake.db = MakeSnowflakeDb({2, 2}, 15000, 400, 0.5, {0.4, 0.5}, 2088,
                                 /*zipf=*/0.0);
  snowflake.jitter_relation = 2;  // b0_2 (outermost of branch 0), sel 0.4
  snowflake.warm_bound = 400;
  snowflake.hit_bound = 430;
  out.push_back(std::move(snowflake));

  TemplateUnderTest merge;
  merge.db = MakeStarDb(2, 12000, 250, {0.4, 0.25}, 337, /*zipf=*/0.0);
  merge.jitter_relation = 1;  // d0, selectivity 0.4
  merge.warm_bound = 400;
  merge.hit_bound = 430;
  merge.options.execution.use_sort_merge_join = true;
  out.push_back(std::move(merge));
  return out;
}

/// A rebound shape hit must produce checksums and merged filter stats
/// identical to a cold optimize of the same literals, at every pool size
/// and over star / snowflake / sort-merge plans.
TEST(PlanShapeCacheE2E, RebindMatchesColdOptimizeAcrossPoolSizes) {
  GlobalPoolGuard guard;
  std::vector<TemplateUnderTest> templates = MakeTemplates();

  for (TemplateUnderTest& t : templates) {
    const QuerySpec warm = WithBound(*t.db, t.jitter_relation, t.warm_bound);
    const QuerySpec moved = WithBound(*t.db, t.jitter_relation, t.hit_bound);

    for (int pool : {1, 2, 4}) {
      WorkerPool::ResetGlobal(pool);
      QueryServiceOptions options = t.options;
      options.execution.exec.threads = 2;
      const std::string what = t.db->spec.name + " pool=" +
                               std::to_string(pool);

      // Cold: a fresh service optimizes `moved` from scratch.
      QueryService cold(&t.db->catalog, options);
      const QueryResult baseline = cold.Execute(moved);
      ASSERT_TRUE(baseline.status.ok()) << what;
      EXPECT_FALSE(baseline.plan_cache_hit) << what;

      // Warm with the template's original literals, then serve the moved
      // literals as a shape hit: the answer must be the cold one's.
      QueryService service(&t.db->catalog, options);
      ASSERT_TRUE(service.Execute(warm).status.ok()) << what;
      const QueryResult hit = service.Execute(moved);
      ASSERT_TRUE(hit.status.ok()) << what;
      EXPECT_TRUE(hit.plan_cache_hit) << what;
      EXPECT_TRUE(hit.plan_rebound) << what;
      EXPECT_EQ(hit.optimize_ns, 0) << what;
      ExpectMetricsEqual(baseline.metrics, hit.metrics, what);

      const PlanCacheStats s = service.cache_stats();
      EXPECT_EQ(s.misses, 1) << what;
      EXPECT_EQ(s.rebinds, 1) << what;
      EXPECT_EQ(s.reoptimizations, 0) << what;
    }
  }
}

/// Templated traffic — one shape, literals jittering a few percent —
/// must be served almost entirely from the cache: shape-hit rate >= 0.9
/// and zero re-optimizations, with every answer equal to a cold optimize
/// of the same literals.
TEST(PlanShapeCacheE2E, TemplatedWorkloadShapeHitRate) {
  GlobalPoolGuard guard;
  WorkerPool::ResetGlobal(2);
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 991, /*zipf=*/0.0);
  QueryServiceOptions options;
  QueryService service(&db->catalog, options);

  const std::vector<int64_t> bounds = {600, 620, 580, 640, 600,
                                       610, 590, 630, 600, 620};
  int64_t rounds = 0;
  for (int lap = 0; lap < 2; ++lap) {
    for (int64_t bound : bounds) {
      const QuerySpec spec = WithBound(*db, 2, bound);
      const QueryResult served = service.Execute(spec);
      ASSERT_TRUE(served.status.ok());
      ++rounds;

      QueryService cold(&db->catalog, options);
      const QueryResult baseline = cold.Execute(spec);
      ASSERT_TRUE(baseline.status.ok());
      ExpectMetricsEqual(baseline.metrics, served.metrics,
                         "bound=" + std::to_string(bound));
    }
  }

  const PlanCacheStats s = service.cache_stats();
  EXPECT_EQ(s.hits + s.misses + s.reoptimizations, rounds);
  EXPECT_EQ(s.misses, 1);              // only the very first template
  EXPECT_EQ(s.reoptimizations, 0);     // every jitter passed the re-cost
  EXPECT_GT(s.rebinds, 0);
  EXPECT_GE(s.ShapeHitRate(), 0.9);
  EXPECT_GE(s.HitRate(), 0.9);
}

/// Drift re-optimization converges: on a fixed-literal workload whose
/// filters drift (skewed foreign keys the uniform estimate misses, under a
/// tight margin), each shape re-optimizes at most once, so the count after
/// 3 rounds equals the count after 12.
TEST(PlanShapeCacheE2E, DriftReoptimizationConverges) {
  auto db = MakeStarDb(3, 20000, 300, {0.3, 0.6, 0.15}, 4242, /*zipf=*/1.2);
  std::vector<QuerySpec> shapes(4, db->spec);
  shapes[1].relations[3].predicate = nullptr;
  shapes[2].relations[2].predicate = Between("attr0", 100, 700);
  shapes[3].relations.pop_back();
  shapes[3].joins.pop_back();

  QueryServiceOptions options;
  options.lambda_drift_margin = 0.02;
  auto run = [&](int rounds) {
    QueryService service(&db->catalog, options);
    for (int round = 0; round < rounds; ++round) {
      for (const QuerySpec& spec : shapes) {
        EXPECT_TRUE(service.Execute(spec).status.ok());
      }
    }
    return service.cache_stats();
  };
  const PlanCacheStats three = run(3);
  const PlanCacheStats twelve = run(12);

  EXPECT_GT(three.drift_invalidations, 0);  // the filters do drift
  EXPECT_LE(three.reoptimizations, static_cast<int64_t>(shapes.size()));
  EXPECT_EQ(twelve.reoptimizations, three.reoptimizations);
  EXPECT_EQ(twelve.drift_invalidations, three.drift_invalidations);
  EXPECT_EQ(twelve.misses, static_cast<int64_t>(shapes.size()));
}

/// Queries without constant slots degenerate to the exact-match cache:
/// every repeat is a zero-copy exact hit, never a rebind.
TEST(PlanShapeCacheE2E, ZeroSlotQueriesAreExactHits) {
  auto db = MakeStarDb(2, 8000, 200, {-1.0, -1.0}, 55);  // no predicates
  QueryServiceOptions options;
  QueryService service(&db->catalog, options);

  const QueryResult miss = service.Execute(db->spec);
  ASSERT_TRUE(miss.status.ok());
  EXPECT_FALSE(miss.plan_cache_hit);
  const QueryResult hit = service.Execute(db->spec);
  ASSERT_TRUE(hit.status.ok());
  EXPECT_TRUE(hit.plan_cache_hit);
  EXPECT_FALSE(hit.plan_rebound);
  ExpectMetricsEqual(miss.metrics, hit.metrics, "zero-slot");

  const PlanCacheStats s = service.cache_stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.rebinds, 0);
  EXPECT_EQ(s.reoptimizations, 0);
}

}  // namespace
}  // namespace bqo
