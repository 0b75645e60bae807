#ifndef RDFOPT_SCHEMA_SCHEMA_H_
#define RDFOPT_SCHEMA_SCHEMA_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rdf/term.h"

namespace rdfopt {

/// In-memory store of the RDFS constraints of an RDF database
/// (paper Fig. 2, bottom): subclass, subproperty, domain and range
/// statements, interpreted under the open-world assumption.
///
/// The paper keeps "RDFS constraints in memory, while RDF facts are stored in
/// a Triples(s,p,o) table" (§5.1); this class is that in-memory side. It
/// precomputes, in `Finalize()`, every reachability set both the forward
/// chainer (saturation) and the backward chainer (reformulation) need:
///
///  * reflexive-transitive sub/super closures of ≼sc and ≼sp;
///  * *entailed* domain/range class sets: `EntailedDomainClasses(p)` is the
///    set of classes c such that a triple `s p o` RDF-entails `s rdf:type c`
///    (follow ≼sp upward from p, take declared domains, follow ≼sc upward);
///  * their inverses, used by reformulation rules: which properties' domain
///    (resp. range) entails membership in a given class.
///
/// All result vectors are sorted by ValueId for determinism.
class Schema {
 public:
  Schema() = default;
  Schema(const Schema&) = delete;
  Schema& operator=(const Schema&) = delete;
  Schema(Schema&&) = default;
  Schema& operator=(Schema&&) = default;

  /// Constraint insertion. Self-loops (c ≼sc c) are accepted and harmless.
  /// Invalidates a previous Finalize().
  void AddSubClass(ValueId sub, ValueId super);
  void AddSubProperty(ValueId sub, ValueId super);
  void AddDomain(ValueId property, ValueId cls);
  void AddRange(ValueId property, ValueId cls);

  /// Computes all closures. Must be called after the last Add* and before
  /// any query below. Safe to call repeatedly. Handles ≼sc/≼sp cycles.
  void Finalize();

  bool finalized() const { return finalized_; }

  /// Number of declared (pre-closure) constraint statements.
  size_t num_constraints() const { return num_constraints_; }

  /// Reflexive-transitive closures. `SubClassesOf(c)` always contains c,
  /// even for classes unknown to the schema.
  std::vector<ValueId> SubClassesOf(ValueId cls) const;
  std::vector<ValueId> SuperClassesOf(ValueId cls) const;
  std::vector<ValueId> SubPropertiesOf(ValueId property) const;
  std::vector<ValueId> SuperPropertiesOf(ValueId property) const;

  /// Classes c such that `s p o` entails `s rdf:type c` (resp.
  /// `o rdf:type c`). Empty for properties without (inherited) domain/range.
  std::vector<ValueId> EntailedDomainClasses(ValueId property) const;
  std::vector<ValueId> EntailedRangeClasses(ValueId property) const;

  /// Inverse maps, the backbone of the type-atom reformulation rules:
  /// properties p such that `s p o` entails `s rdf:type cls` (resp.
  /// `o rdf:type cls`).
  std::vector<ValueId> PropertiesWithDomainEntailing(ValueId cls) const;
  std::vector<ValueId> PropertiesWithRangeEntailing(ValueId cls) const;

  /// All classes (resp. properties) mentioned by at least one constraint,
  /// sorted. Used to instantiate class-/property-position query variables
  /// (paper Example 4: "instantiating the variable y with classes from db").
  const std::vector<ValueId>& AllClasses() const;
  const std::vector<ValueId>& AllProperties() const;

  bool IsSchemaClass(ValueId cls) const;
  bool IsSchemaProperty(ValueId property) const;

  /// Two RDF databases "have the same schema iff their saturations have the
  /// same RDFS statements" (paper Def. 3.2). Compares closures.
  bool EquivalentTo(const Schema& other) const;

 private:
  using AdjacencyMap = std::unordered_map<ValueId, std::vector<ValueId>>;
  using ClosureMap = std::unordered_map<ValueId, std::vector<ValueId>>;

  static void AddEdge(AdjacencyMap* map, ValueId from, ValueId to);
  // Reflexive-transitive closure of `edges` from every node in `nodes`.
  static ClosureMap ComputeClosure(const AdjacencyMap& edges,
                                   const std::unordered_set<ValueId>& nodes);
  // Closure lookup with reflexive fallback for unknown nodes.
  static std::vector<ValueId> LookupClosure(const ClosureMap& closure,
                                            ValueId node);
  static std::vector<ValueId> LookupSet(const ClosureMap& map, ValueId node);

  void CheckFinalized() const;

  // Declared constraints (direct edges).
  AdjacencyMap sub_class_;     // sub -> direct supers
  AdjacencyMap super_class_;   // super -> direct subs
  AdjacencyMap sub_prop_;      // sub -> direct supers
  AdjacencyMap super_prop_;    // super -> direct subs
  AdjacencyMap domain_;        // property -> declared domain classes
  AdjacencyMap range_;         // property -> declared range classes
  size_t num_constraints_ = 0;

  // Closures, valid when finalized_.
  bool finalized_ = false;
  std::unordered_set<ValueId> class_set_;
  std::unordered_set<ValueId> property_set_;
  std::vector<ValueId> all_classes_;
  std::vector<ValueId> all_properties_;
  ClosureMap sub_classes_closure_;
  ClosureMap super_classes_closure_;
  ClosureMap sub_props_closure_;
  ClosureMap super_props_closure_;
  ClosureMap entailed_domain_;          // property -> classes
  ClosureMap entailed_range_;           // property -> classes
  ClosureMap domain_entailing_props_;   // class -> properties
  ClosureMap range_entailing_props_;    // class -> properties
};

}  // namespace rdfopt

#endif  // RDFOPT_SCHEMA_SCHEMA_H_
