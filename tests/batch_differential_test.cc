// Differential suite for the batch execution engine (DESIGN.md §11): the
// vectorized engine (kBatchRows-wide operators, union-subplan factoring,
// radix-partitioned hash dedup) must produce the bit-identical row set AND
// row ordering of the seed tuple-at-a-time engine, at worker_threads 1 and
// 4, across the LUBM and DBLP evaluation query sets. Emulated per-row /
// per-term overheads are zeroed so the comparison exercises the real
// operator paths, not the latency model.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/evaluator.h"
#include "optimizer/cover.h"
#include "reformulation/reformulator.h"
#include "sparql/parser.h"
#include "workload/dblp.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt {
namespace {

// Reformulations beyond this are skipped (a handful of the LUBM queries
// expand to hundreds of thousands of terms; they are covered by the plan
// limit tests, not here).
constexpr size_t kMaxTermsCompared = 4096;

struct Workload {
  Graph graph;
  TripleStore store;
};

Workload& Lubm() {
  static Workload& w = *[] {
    auto* w = new Workload();
    LubmOptions options;
    options.num_universities = 1;
    GenerateLubm(options, &w->graph);
    w->graph.FinalizeSchema();
    w->store = TripleStore::Build(w->graph.data_triples());
    return w;
  }();
  return w;
}

Workload& Dblp() {
  static Workload& w = *[] {
    auto* w = new Workload();
    DblpOptions options;
    options.num_publications = 1500;
    GenerateDblp(options, &w->graph);
    w->graph.FinalizeSchema();
    w->store = TripleStore::Build(w->graph.data_triples());
    return w;
  }();
  return w;
}

/// The seed engine with the emulated latency model switched off: plans and
/// row-level behavior are those of the tuple engine, without the sleeps.
EngineProfile TupleProfile() {
  EngineProfile p = PostgresLikeProfile();
  p.tuple_us_per_row = 0.0;
  p.union_term_overhead_us = 0.0;
  p.materialization_us_per_row = 0.0;
  p.max_union_terms = 1u << 20;
  p.timeout_seconds = 300.0;
  return p;
}

/// The batch engine over the same base: vector_width = kBatchRows, which
/// also turns on union-subplan factoring (Vectorized also rescales the
/// already-zero overheads, a no-op here).
EngineProfile BatchProfile(size_t worker_threads) {
  EngineProfile p = Vectorized(TupleProfile());
  p.worker_threads = worker_threads;
  return p;
}

void ExpectIdenticalRelations(const Relation& a, const Relation& b,
                              const std::string& label) {
  ASSERT_EQ(a.columns(), b.columns()) << label;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.arity(); ++c) {
      ASSERT_EQ(a.at(r, c), b.at(r, c))
          << label << " row " << r << " col " << c;
    }
  }
}

/// Evaluates every in-range query of `set` under the tuple engine (the
/// reference) and under the batch engine at 1 and 4 workers, and requires
/// identical rows in identical order. `*compared` counts the queries
/// actually checked.
void RunDifferential(Workload* w, const std::vector<BenchmarkQuery>& set,
                     size_t* compared) {
  Reformulator reformulator(&w->graph.schema(), &w->graph.vocab());
  EngineProfile tuple_profile = TupleProfile();
  EngineProfile batch1 = BatchProfile(1);
  EngineProfile batch4 = BatchProfile(4);
  Evaluator tuple_engine(&w->store, &tuple_profile);
  Evaluator batch_engine1(&w->store, &batch1);
  Evaluator batch_engine4(&w->store, &batch4);

  *compared = 0;
  for (const BenchmarkQuery& bq : set) {
    Result<Query> parsed = ParseQuery(bq.text, &w->graph.dict());
    ASSERT_TRUE(parsed.ok()) << bq.name << ": " << parsed.status().ToString();
    Query q = parsed.TakeValue();
    Result<UnionQuery> ucq = reformulator.ReformulateCQ(q.cq, &q.vars);
    if (!ucq.ok() || ucq.ValueOrDie().size() > kMaxTermsCompared) {
      continue;  // Over the differential's term budget; skip, don't fail.
    }

    Result<Relation> reference =
        tuple_engine.EvaluateUCQ(ucq.ValueOrDie(), nullptr);
    ASSERT_TRUE(reference.ok())
        << bq.name << ": " << reference.status().ToString();
    Result<Relation> batch_seq =
        batch_engine1.EvaluateUCQ(ucq.ValueOrDie(), nullptr);
    ASSERT_TRUE(batch_seq.ok())
        << bq.name << ": " << batch_seq.status().ToString();
    Result<Relation> batch_par =
        batch_engine4.EvaluateUCQ(ucq.ValueOrDie(), nullptr);
    ASSERT_TRUE(batch_par.ok())
        << bq.name << ": " << batch_par.status().ToString();

    ExpectIdenticalRelations(reference.ValueOrDie(), batch_seq.ValueOrDie(),
                             bq.name + " (batch, 1 worker)");
    ExpectIdenticalRelations(reference.ValueOrDie(), batch_par.ValueOrDie(),
                             bq.name + " (batch, 4 workers)");
    ++*compared;
  }
}

TEST(BatchDifferentialTest, LubmQuerySetIdenticalRowsAndOrder) {
  size_t compared = 0;
  RunDifferential(&Lubm(), LubmQuerySet(), &compared);
  // Most of the 28 queries reformulate within the term budget; if this
  // drops, the suite silently lost its coverage.
  EXPECT_GE(compared, 20u);
}

TEST(BatchDifferentialTest, DblpQuerySetIdenticalRowsAndOrder) {
  size_t compared = 0;
  RunDifferential(&Dblp(), DblpQuerySet(), &compared);
  EXPECT_GE(compared, 6u);
}

TEST(BatchDifferentialTest, JucqScqCoverIdenticalAcrossEngines) {
  // The JUCQ path (per-component dedup + component joins + final project)
  // through the motivating q1 under its SCQ cover.
  Workload& w = Lubm();
  Result<Query> parsed = ParseQuery(LubmMotivatingQ1().text, &w.graph.dict());
  ASSERT_TRUE(parsed.ok());
  Query q = parsed.TakeValue();
  Reformulator reformulator(&w.graph.schema(), &w.graph.vocab());

  Cover cover = ScqCover(q.cq.atoms.size());
  VarTable vars = q.vars;
  Result<JoinOfUnions> jucq_result = CoverBasedReformulation(
      q.cq, cover, reformulator, &vars, /*max_disjuncts_per_fragment=*/1u << 20);
  ASSERT_TRUE(jucq_result.ok()) << jucq_result.status().ToString();
  const JoinOfUnions& jucq = jucq_result.ValueOrDie();

  EngineProfile tuple_profile = TupleProfile();
  EngineProfile batch = BatchProfile(4);
  Evaluator tuple_engine(&w.store, &tuple_profile);
  Evaluator batch_engine(&w.store, &batch);
  Result<Relation> reference = tuple_engine.EvaluateJUCQ(jucq, nullptr);
  Result<Relation> vectorized = batch_engine.EvaluateJUCQ(jucq, nullptr);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE(vectorized.ok()) << vectorized.status().ToString();
  ExpectIdenticalRelations(reference.ValueOrDie(), vectorized.ValueOrDie(),
                           "q1 SCQ JUCQ");
}

}  // namespace
}  // namespace rdfopt
