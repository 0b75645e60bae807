#include "service/canonical.h"

#include <algorithm>
#include <array>
#include <unordered_map>

namespace rdfopt {

namespace {

using Assignment = std::unordered_map<VarId, VarId>;

/// Ordering rank of one pattern term under a partial canonical assignment:
/// constants sort before already-assigned variables, which sort before
/// not-yet-assigned ones; within a class, by value / canonical id / local
/// first-occurrence pattern. The unassigned rank uses the variable's
/// first-occurrence index *within the atom*, which distinguishes
/// `?a p ?a` from `?a p ?b` without depending on input naming.
struct TermRank {
  int kind;
  uint64_t value;
  auto operator<=>(const TermRank&) const = default;
};

using AtomRank = std::array<TermRank, 3>;

AtomRank RankAtom(const TriplePattern& atom, const Assignment& assigned) {
  std::unordered_map<VarId, uint64_t> local;
  auto rank = [&](const PatternTerm& t) -> TermRank {
    if (!t.is_var()) return {0, t.value()};
    auto it = assigned.find(t.var());
    if (it != assigned.end()) return {1, it->second};
    uint64_t index = local.emplace(t.var(), local.size()).first->second;
    return {2, index};
  };
  return {rank(atom.s), rank(atom.p), rank(atom.o)};
}

/// Gives `v` the next canonical number unless it already has one.
void AssignVar(Assignment* assigned, VarId v) {
  assigned->emplace(v, static_cast<VarId>(assigned->size()));
}

/// Commits the atom's not-yet-assigned variables in s,p,o order.
void AssignAtomVars(Assignment* assigned, const TriplePattern& atom) {
  for (const PatternTerm* t : {&atom.s, &atom.p, &atom.o}) {
    if (t->is_var()) AssignVar(assigned, t->var());
  }
}

void AppendTerm(std::string* out, const PatternTerm& t,
                const Assignment& assigned) {
  if (t.is_var()) {
    *out += 'v';
    *out += std::to_string(assigned.at(t.var()));
  } else {
    *out += 'c';
    *out += std::to_string(t.value());
  }
}

/// Serializes `atom` as `(s,p,o)` under `assigned`, which must cover all its
/// variables. Canonicalize's tie-break compares these strings, so the
/// syntax fixes its order: constants (`c`) before variables (`v`), and
/// separators before digits (a shorter number sorts first).
void AppendAtom(std::string* out, const TriplePattern& atom,
                const Assignment& assigned) {
  *out += '(';
  AppendTerm(out, atom.s, assigned);
  *out += ',';
  AppendTerm(out, atom.p, assigned);
  *out += ',';
  AppendTerm(out, atom.o, assigned);
  *out += ')';
}

/// Serializes one conjunctive query under `assigned`: its head `v0,v1`,
/// `:`, its atoms in order joined by `;`, then its head bindings sorted by
/// renamed variable as `!v<n>=<id>` (a binding list is a map; its order
/// does not affect projection).
void AppendDisjunct(std::string* out, const ConjunctiveQuery& cq,
                    const Assignment& assigned) {
  for (size_t i = 0; i < cq.head.size(); ++i) {
    if (i != 0) *out += ',';
    *out += 'v';
    *out += std::to_string(assigned.at(cq.head[i]));
  }
  *out += ':';
  for (size_t i = 0; i < cq.atoms.size(); ++i) {
    if (i != 0) *out += ';';
    AppendAtom(out, cq.atoms[i], assigned);
  }
  std::vector<std::pair<VarId, ValueId>> bindings;
  bindings.reserve(cq.head_bindings.size());
  for (const auto& [var, value] : cq.head_bindings) {
    bindings.emplace_back(assigned.at(var), value);
  }
  std::sort(bindings.begin(), bindings.end());
  for (const auto& [var, value] : bindings) {
    *out += "!v";
    *out += std::to_string(var);
    *out += '=';
    *out += std::to_string(value);
  }
}

size_t MinRankedAtom(const std::vector<const TriplePattern*>& remaining,
                     const Assignment& assigned,
                     std::vector<size_t>* tied_with_min) {
  size_t best = 0;
  AtomRank best_rank = RankAtom(*remaining[0], assigned);
  if (tied_with_min != nullptr) tied_with_min->assign(1, 0);
  for (size_t i = 1; i < remaining.size(); ++i) {
    AtomRank rank = RankAtom(*remaining[i], assigned);
    if (rank < best_rank) {
      best = i;
      best_rank = rank;
      if (tied_with_min != nullptr) tied_with_min->assign(1, i);
    } else if (tied_with_min != nullptr && rank == best_rank) {
      tied_with_min->push_back(i);
    }
  }
  return best;
}

/// Runs the greedy emission to completion (first-index tie-breaking) and
/// returns the serialized atom sequence. Used to score tied candidates:
/// copies its inputs, never commits anything.
std::string SimulateCompletion(Assignment assigned,
                               std::vector<const TriplePattern*> remaining) {
  std::string out;
  while (!remaining.empty()) {
    size_t pick = MinRankedAtom(remaining, assigned, nullptr);
    const TriplePattern* atom = remaining[pick];
    AssignAtomVars(&assigned, *atom);
    AppendAtom(&out, *atom, assigned);
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick));
  }
  return out;
}

}  // namespace

CanonicalizedQuery Canonicalize(const ConjunctiveQuery& cq) {
  Assignment assigned;

  // Head variables are anchored by position: the i-th head slot of every
  // α-equivalent input names the same output column.
  for (VarId v : cq.head) AssignVar(&assigned, v);

  // Greedily emit the minimally-ranked remaining atom, then commit its new
  // variables in s,p,o order. The ranking depends only on constants and on
  // canonical ids assigned so far, never on input order or input names.
  // When several atoms tie for the minimum (symmetric shapes, e.g. headless
  // chains), each tied candidate's full greedy completion is simulated and
  // the lexicographically smallest one wins — which again is a property of
  // the query's shape, not of its input order.
  std::vector<const TriplePattern*> remaining;
  remaining.reserve(cq.atoms.size());
  for (const TriplePattern& atom : cq.atoms) remaining.push_back(&atom);

  // `cq` with its atoms in canonical order, still under its own names.
  ConjunctiveQuery ordered;
  ordered.head = cq.head;
  ordered.head_bindings = cq.head_bindings;
  ordered.atoms.reserve(cq.atoms.size());
  std::vector<size_t> tied;
  while (!remaining.empty()) {
    size_t pick = MinRankedAtom(remaining, assigned, &tied);
    if (tied.size() > 1) {
      std::string best_completion;
      for (size_t candidate : tied) {
        Assignment trial_assigned = assigned;
        std::vector<const TriplePattern*> trial_remaining = remaining;
        const TriplePattern* atom = trial_remaining[candidate];
        AssignAtomVars(&trial_assigned, *atom);
        std::string completion;
        AppendAtom(&completion, *atom, trial_assigned);
        trial_remaining.erase(trial_remaining.begin() +
                              static_cast<ptrdiff_t>(candidate));
        completion += SimulateCompletion(std::move(trial_assigned),
                                         std::move(trial_remaining));
        if (best_completion.empty() || completion < best_completion) {
          best_completion = std::move(completion);
          pick = candidate;
        }
      }
    }
    const TriplePattern& atom = *remaining[pick];
    AssignAtomVars(&assigned, atom);
    ordered.atoms.push_back(atom);
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(pick));
  }

  CanonicalizedQuery result;
  result.key = "h" + std::to_string(cq.head.size()) + '|';
  AppendDisjunct(&result.key, ordered, assigned);

  auto map = [&](const PatternTerm& t) {
    return t.is_var() ? PatternTerm::Var(assigned.at(t.var())) : t;
  };
  ConjunctiveQuery& canonical = result.query.cq;
  canonical.head.reserve(ordered.head.size());
  for (VarId v : ordered.head) canonical.head.push_back(assigned.at(v));
  canonical.atoms.reserve(ordered.atoms.size());
  for (const TriplePattern& atom : ordered.atoms) {
    canonical.atoms.push_back({map(atom.s), map(atom.p), map(atom.o)});
  }
  // Parsed queries carry no head bindings; remap for totality (the service
  // only canonicalizes parsed queries, but the function shouldn't care).
  canonical.head_bindings.reserve(ordered.head_bindings.size());
  for (const auto& [var, value] : ordered.head_bindings) {
    canonical.head_bindings.emplace_back(assigned.at(var), value);
  }
  std::sort(canonical.head_bindings.begin(), canonical.head_bindings.end());

  for (size_t i = 0; i < assigned.size(); ++i) {
    result.query.vars.GetOrCreate("c" + std::to_string(i));
  }
  return result;
}

std::string ViewSignature(const UnionQuery& ucq) {
  std::string signature = "h" + std::to_string(ucq.head.size());
  for (const ConjunctiveQuery& d : ucq.disjuncts) {
    // Per-disjunct numbering in query order, no sorting anywhere: atom
    // order is part of the key. The union head comes first — it is the
    // view's column layout.
    Assignment assigned;
    for (VarId v : ucq.head) AssignVar(&assigned, v);
    for (VarId v : d.head) AssignVar(&assigned, v);
    for (const TriplePattern& atom : d.atoms) AssignAtomVars(&assigned, atom);
    for (const auto& binding : d.head_bindings) {
      AssignVar(&assigned, binding.first);
    }
    signature += '|';
    AppendDisjunct(&signature, d, assigned);
  }
  return signature;
}

}  // namespace rdfopt
