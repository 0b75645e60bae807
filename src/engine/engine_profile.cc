#include "engine/engine_profile.h"

#include "engine/relation.h"

namespace rdfopt {

namespace {

// Profiles live forever (function-local static references to heap objects:
// trivially-destructible statics only, per style).
//
// The three reformulation targets reproduce the qualitative differences the
// paper reports (§5.2):
//  * DB2-like: tightest plan-size limit (fails first on huge UCQs, like
//    DB2's stack-depth error) and the highest per-union-term setup cost
//    (multi-thousand-term UCQ plans are the slowest there), but cheap
//    materialization.
//  * Postgres-like: the most permissive plan limit, balanced constants.
//  * MySQL-like: very expensive materialization (the paper: "SCQ is very
//    inefficient on MySQL") and a modest plan limit.
//
// The per-term and per-row overheads are physically consumed (busy-wait) by
// the evaluator, so measured wall-clock genuinely differs per profile. Each
// profile's default cost constants mirror its physical overheads (one cost
// unit = one microsecond); Calibration (cost/calibration.h) re-fits them.

EngineProfile MakeDb2Like() {
  EngineProfile p;
  p.name = "engine-A(db2-like)";
  p.max_union_terms = 6000;
  p.max_materialized_cells = 120u * 1000 * 1000;
  p.tuple_us_per_row = 1.0;
  p.materialization_us_per_row = 1.0;
  p.union_term_overhead_us = 400.0;
  p.cost.c_union_term = 400.0;
  p.cost.c_m = 1.0;
  p.cost.c_t = 1.0;
  p.cost.c_j = 1.0;
  return p;
}

EngineProfile MakePostgresLike() {
  EngineProfile p;
  p.name = "engine-B(postgres-like)";
  p.max_union_terms = 40000;
  p.max_materialized_cells = 240u * 1000 * 1000;
  p.tuple_us_per_row = 1.5;
  p.materialization_us_per_row = 2.0;
  p.union_term_overhead_us = 150.0;
  p.cost.c_union_term = 150.0;
  p.cost.c_m = 2.0;
  p.cost.c_t = 1.5;
  p.cost.c_j = 1.5;
  return p;
}

EngineProfile MakeMysqlLike() {
  EngineProfile p;
  p.name = "engine-C(mysql-like)";
  p.max_union_terms = 12000;
  p.max_materialized_cells = 80u * 1000 * 1000;
  p.tuple_us_per_row = 2.5;
  p.materialization_us_per_row = 8.0;
  p.union_term_overhead_us = 250.0;
  p.cost.c_union_term = 250.0;
  p.cost.c_m = 8.0;
  p.cost.c_t = 2.5;
  p.cost.c_j = 2.5;
  return p;
}

EngineProfile MakeNativeStore() {
  EngineProfile p;
  p.name = "native-store";
  p.max_union_terms = 100000;
  p.max_materialized_cells = 400u * 1000 * 1000;
  p.tuple_us_per_row = 0.2;
  p.materialization_us_per_row = 0.2;
  p.union_term_overhead_us = 20.0;
  p.cost.c_union_term = 20.0;
  p.cost.c_m = 0.2;
  p.cost.c_t = 0.2;
  p.cost.c_j = 0.2;
  return p;
}

}  // namespace

EngineProfile Vectorized(const EngineProfile& base, size_t width) {
  EngineProfile p = base;
  if (width == 0) width = 1;
  // The executor's batch loops and selection vectors are physically sized
  // kBatchRows; a wider width would amortize costs the engine never
  // amortizes (and fail plan verification's batch-width rule).
  if (width > kBatchRows) width = kBatchRows;
  p.name = base.name + "+vectorized";
  p.vector_width = width;
  const double w = static_cast<double>(width);
  // Per-row emulated overheads model tuple-at-a-time interpretation; a
  // vectorized engine pays them once per batch.
  p.tuple_us_per_row = base.tuple_us_per_row / w;
  p.materialization_us_per_row = base.materialization_us_per_row / w;
  p.union_term_overhead_us = base.union_term_overhead_us / w;
  // The matching per-tuple cost constants scale with them so estimates keep
  // tracking the emulated engine; c_db (per-query) and the dedup spill
  // threshold are width-independent.
  p.cost.c_t = base.cost.c_t / w;
  p.cost.c_j = base.cost.c_j / w;
  p.cost.c_m = base.cost.c_m / w;
  p.cost.c_l = base.cost.c_l / w;
  p.cost.c_k = base.cost.c_k / w;
  p.cost.c_union_term = base.cost.c_union_term / w;
  return p;
}

const EngineProfile& Db2LikeProfile() {
  static const EngineProfile& p = *new EngineProfile(MakeDb2Like());
  return p;
}

const EngineProfile& PostgresLikeProfile() {
  static const EngineProfile& p = *new EngineProfile(MakePostgresLike());
  return p;
}

const EngineProfile& MysqlLikeProfile() {
  static const EngineProfile& p = *new EngineProfile(MakeMysqlLike());
  return p;
}

const EngineProfile& NativeStoreProfile() {
  static const EngineProfile& p = *new EngineProfile(MakeNativeStore());
  return p;
}

}  // namespace rdfopt
