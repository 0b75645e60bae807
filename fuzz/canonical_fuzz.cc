// Fuzz target: the canonical-form module (service/canonical.h). Whatever
// the parser accepts, Canonicalize must (a) not crash, (b) be idempotent —
// the canonical form canonicalizes to itself — and (c) produce a key that
// is a pure function of the canonical query. ViewSignature over the query
// wrapped as a one-disjunct union must be deterministic and must not change
// when every variable id is shifted by a constant. A violation here is a
// plan-cache or view-catalog corruption bug: two runs of the same query
// landing on different entries, or worse, different queries sharing one.

#include <string>
#include <string_view>

#include "fuzz/fuzz_target.h"
#include "rdf/dictionary.h"
#include "service/canonical.h"
#include "sparql/parser.h"

namespace {

/// `ucq` with every variable id moved up by `offset` — an α-renaming.
rdfopt::UnionQuery ShiftVariables(rdfopt::UnionQuery ucq,
                                  rdfopt::VarId offset) {
  auto shift = [offset](rdfopt::PatternTerm* t) {
    if (t->is_var()) *t = rdfopt::PatternTerm::Var(t->var() + offset);
  };
  for (rdfopt::VarId& v : ucq.head) v += offset;
  for (rdfopt::ConjunctiveQuery& d : ucq.disjuncts) {
    for (rdfopt::VarId& v : d.head) v += offset;
    for (rdfopt::TriplePattern& atom : d.atoms) {
      shift(&atom.s);
      shift(&atom.p);
      shift(&atom.o);
    }
    for (auto& binding : d.head_bindings) binding.first += offset;
  }
  return ucq;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > 1 << 16) return 0;
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  rdfopt::Dictionary dict;
  rdfopt::Result<rdfopt::Query> parsed = rdfopt::ParseQuery(input, &dict);
  if (!parsed.ok()) return 0;
  const rdfopt::ConjunctiveQuery& cq = parsed.ValueOrDie().cq;

  const rdfopt::CanonicalizedQuery first = rdfopt::Canonicalize(cq);
  // Determinism: same input, same key.
  const rdfopt::CanonicalizedQuery again = rdfopt::Canonicalize(cq);
  if (first.key != again.key) __builtin_trap();
  // Idempotence: the canonical form is its own canonical form.
  const rdfopt::CanonicalizedQuery fixpoint =
      rdfopt::Canonicalize(first.query.cq);
  if (fixpoint.key != first.key) __builtin_trap();

  rdfopt::UnionQuery ucq;
  ucq.head = cq.head;
  ucq.disjuncts.push_back(cq);
  const std::string signature = rdfopt::ViewSignature(ucq);
  if (rdfopt::ViewSignature(ucq) != signature) __builtin_trap();
  if (rdfopt::ViewSignature(ShiftVariables(ucq, 1000)) != signature) {
    __builtin_trap();
  }
  return 0;
}
