#ifndef RDFOPT_STORAGE_TRIPLE_STORE_H_
#define RDFOPT_STORAGE_TRIPLE_STORE_H_

#include <span>
#include <vector>

#include "rdf/triple.h"

namespace rdfopt {

/// Wildcard marker for TripleStore::Match / CountMatches. Safe because
/// dictionary ids are dense from 0 and never reach kInvalidValueId.
inline constexpr ValueId kAnyValue = kInvalidValueId;

/// Immutable, fully-indexed `Triples(s,p,o)` table.
///
/// Mirrors the paper's storage layout (§5.1): one dictionary-encoded triples
/// table "indexed by all permutations of the s,p,o columns ... to give the
/// RDBMS efficient query evaluation opportunities". Four sorted orders (SPO,
/// PSO, POS, OSP) suffice to make every bound-position combination a prefix
/// lookup, so every access pattern — and every exact pattern count the cost
/// model needs — is O(log n) plus output size.
///
/// Stores are immutable once built; saturation and updates produce a new
/// store (Build sorts and removes duplicates, implementing set semantics).
class TripleStore {
 public:
  /// Builds the four indexes from `triples` (duplicates removed).
  static TripleStore Build(std::vector<Triple> triples);

  /// Merges two stores in O(|a| + |b|): each of the four sorted indexes is
  /// merged directly, skipping the O(n log n) re-sort of Build. This is what
  /// makes incremental saturation maintenance linear in the database size.
  static TripleStore Merge(const TripleStore& a, const TripleStore& b);

  TripleStore() = default;
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  TripleStore(TripleStore&&) = default;
  TripleStore& operator=(TripleStore&&) = default;

  /// Number of (distinct) triples.
  size_t size() const { return spo_.size(); }

  /// All triples matching the pattern, where each position is a bound
  /// ValueId or kAnyValue. The result is a contiguous range of one of the
  /// sorted indexes; its iteration order depends on the chosen index.
  std::span<const Triple> Match(ValueId s, ValueId p, ValueId o) const;

  /// Exact count of matching triples; O(log n).
  size_t CountMatches(ValueId s, ValueId p, ValueId o) const {
    return Match(s, p, o).size();
  }

  bool Contains(const Triple& t) const {
    return CountMatches(t.s, t.p, t.o) > 0;
  }

  /// All triples in SPO order.
  std::span<const Triple> All() const { return spo_; }

  /// Distinct subjects (resp. objects) among triples with property `p`;
  /// O(result) using the PSO (resp. POS) index. Used by statistics.
  size_t CountDistinctSubjectsOfProperty(ValueId p) const;
  size_t CountDistinctObjectsOfProperty(ValueId p) const;

  /// Distinct properties in the store, sorted; O(n) on first call cost is
  /// avoided by precomputing at Build time.
  const std::vector<ValueId>& properties() const { return properties_; }

 private:
  template <typename Order>
  std::span<const Triple> PrefixRange(const std::vector<Triple>& index,
                                      Triple lo, Triple hi) const;

  std::vector<Triple> spo_;
  std::vector<Triple> pso_;
  std::vector<Triple> pos_;
  std::vector<Triple> osp_;
  std::vector<ValueId> properties_;
};

}  // namespace rdfopt

#endif  // RDFOPT_STORAGE_TRIPLE_STORE_H_
