#ifndef RDFOPT_SERVICE_CANONICAL_H_
#define RDFOPT_SERVICE_CANONICAL_H_

#include <string>

#include "sparql/query.h"

namespace rdfopt {

// The one place that renumbers query variables and serializes a query into
// an identity key. Two entry points share the variable assignment and the
// serializer: Canonicalize (order-free; keys the plan cache and the
// estimate-feedback store) and ViewSignature (order-preserving; keys the
// view catalog). Both render in one syntax: variables `v<n>` by canonical
// number, constants `c<id>`, atoms `(s,p,o)` joined by `;`, a head
// `v0,v1` closed by `:`, and head bindings sorted as `!v<n>=<id>`.

/// A BGP query normalized into the service's cache identity.
///
/// Two parsed queries that differ only in variable names (α-equivalence) or
/// in the order of their triple patterns describe the same answering work:
/// the same reformulation, the same cover choice, the same physical plan.
/// Canonicalization maps both onto one representative so the plan cache sees
/// one key.
struct CanonicalizedQuery {
  /// The canonical form: variables renumbered 0..n-1 (head variables first,
  /// in head order; body-only variables in canonical atom order), atoms
  /// reordered canonically, with synthesized names "c0".."cN-1" so the query
  /// is answerable as-is (reformulation draws fresh "_f*" variables on top).
  Query query;
  /// Stable serialization of `query.cq` — the cache key (the cache pairs it
  /// with the data epoch). It is the ViewSignature of `query.cq` as a
  /// one-disjunct union. Equal keys imply literally identical canonical
  /// queries, hence identical answer rows in identical column order.
  std::string key;
};

/// Canonicalizes `cq`. Soundness is unconditional: the key is a
/// serialization of the canonical query itself, so a key collision *is*
/// syntactic equality of the canonical forms. Completeness (every pair of
/// α-equivalent / atom-permuted inputs mapping to one key) holds for the
/// practical case: variables are renamed by head position and first
/// canonical use, and atoms are picked greedily by a (constants, assigned
/// variables, local variable pattern) ranking that is independent of input
/// atom order. Queries with non-trivial automorphisms may canonicalize to
/// different-but-equivalent keys depending on input order — a missed cache
/// hit, never a wrong answer.
CanonicalizedQuery Canonicalize(const ConjunctiveQuery& cq);

/// Canonical signature of a whole component UCQ — the key of the
/// materialized-view catalog (DESIGN.md §14). Invariant under variable
/// renaming, but deliberately NOT under disjunct or atom permutation, and it
/// includes the head and per-disjunct head bindings: a view substitutes a
/// component's *rows in order*, and the planner derives atom order (greedy,
/// tie-broken by input position) and union output order from exactly this
/// syntactic shape. Each disjunct is numbered on its own: the union head
/// first, then the disjunct's head, its atoms in query order and its
/// bindings. Two components with equal ViewSignature therefore plan to the
/// same tree modulo variable names and produce bit-identical rows against
/// the same snapshot.
std::string ViewSignature(const UnionQuery& ucq);

}  // namespace rdfopt

#endif  // RDFOPT_SERVICE_CANONICAL_H_
