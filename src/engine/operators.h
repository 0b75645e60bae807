#ifndef RDFOPT_ENGINE_OPERATORS_H_
#define RDFOPT_ENGINE_OPERATORS_H_

#include <vector>

#include "engine/relation.h"
#include "sparql/query.h"
#include "storage/triple_store.h"

namespace rdfopt {

/// Physical operators of the embedded engine: selections/projections (scan),
/// joins and unions — exactly the operator set the paper assumes of the
/// target engine ("any system capable of evaluating selections, projections,
/// joins and unions", §1). All operators are pure functions; resource
/// accounting, timeouts and profile emulation live in the Evaluator.

/// Index scan of one triple pattern: selects the matching triples via the
/// best permutation index and projects them onto the pattern's distinct
/// variables (columns in first-occurrence s,p,o order). Repeated variables
/// within the atom (e.g. `?x ?p ?x`) are enforced as a filter.
Relation ScanAtom(const TripleStore& store, const TriplePattern& atom);

/// Number of index entries the scan reads (before repeated-variable
/// filtering); O(log n).
size_t ScanAtomInputSize(const TripleStore& store, const TriplePattern& atom);

/// Natural hash join on the shared columns (build on the smaller input).
/// With no shared column this is the cartesian product. Output columns:
/// left columns, then right-only columns.
Relation HashJoin(const Relation& left, const Relation& right);

/// Index nested-loop join of `left` with one triple pattern: for every left
/// row, the atom's variable positions covered by `left` are bound to the
/// row's values and the matching triples are fetched through the best
/// permutation index. Output columns: left columns, then the atom's
/// remaining variables in first-occurrence s,p,o order. `rows_probed`, if
/// non-null, accumulates the number of index entries touched (the engine's
/// work metric for this operator).
///
/// This is the selective join pushdown real engines apply to reformulated
/// queries — the reason a fragment like (t1,t3) evaluates its 500+ union
/// terms quickly: each term probes the index with the few bindings of the
/// selective atom instead of scanning the whole type table.
Relation IndexJoinAtom(const TripleStore& store, const Relation& left,
                       const TriplePattern& atom, size_t* rows_probed);

/// Appends `input`, projected/reordered to `acc`'s columns, directly to
/// `acc` — no intermediate Relation is materialized. `bindings` supplies
/// constant values for acc columns missing from `input` (reformulation-time
/// head bindings, see ConjunctiveQuery::head_bindings).
void ProjectInto(Relation* acc, const Relation& input,
                 const std::vector<std::pair<VarId, ValueId>>& bindings);

/// Projection of `input` onto `head`, with constants for head variables
/// covered by `bindings` rather than by input columns.
Relation ProjectWithBindings(
    const Relation& input, const std::vector<VarId>& head,
    const std::vector<std::pair<VarId, ValueId>>& bindings);

}  // namespace rdfopt

#endif  // RDFOPT_ENGINE_OPERATORS_H_
