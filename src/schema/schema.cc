#include "schema/schema.h"

#include <algorithm>
#include "common/check.h"

namespace rdfopt {

namespace {

void SortUnique(std::vector<ValueId>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

void Schema::AddEdge(AdjacencyMap* map, ValueId from, ValueId to) {
  (*map)[from].push_back(to);
}

void Schema::AddSubClass(ValueId sub, ValueId super) {
  AddEdge(&sub_class_, sub, super);
  AddEdge(&super_class_, super, sub);
  ++num_constraints_;
  finalized_ = false;
}

void Schema::AddSubProperty(ValueId sub, ValueId super) {
  AddEdge(&sub_prop_, sub, super);
  AddEdge(&super_prop_, super, sub);
  ++num_constraints_;
  finalized_ = false;
}

void Schema::AddDomain(ValueId property, ValueId cls) {
  AddEdge(&domain_, property, cls);
  ++num_constraints_;
  finalized_ = false;
}

void Schema::AddRange(ValueId property, ValueId cls) {
  AddEdge(&range_, property, cls);
  ++num_constraints_;
  finalized_ = false;
}

Schema::ClosureMap Schema::ComputeClosure(
    const AdjacencyMap& edges, const std::unordered_set<ValueId>& nodes) {
  ClosureMap closure;
  for (ValueId start : nodes) {
    std::vector<ValueId> reached;
    std::unordered_set<ValueId> visited;
    std::vector<ValueId> stack = {start};
    visited.insert(start);
    while (!stack.empty()) {
      ValueId node = stack.back();
      stack.pop_back();
      reached.push_back(node);
      auto it = edges.find(node);
      if (it == edges.end()) continue;
      for (ValueId next : it->second) {
        if (visited.insert(next).second) stack.push_back(next);
      }
    }
    SortUnique(&reached);
    closure.emplace(start, std::move(reached));
  }
  return closure;
}

void Schema::Finalize() {
  class_set_.clear();
  property_set_.clear();
  // Classes: endpoints of subclass edges, plus declared domains/ranges.
  for (const auto& [sub, supers] : sub_class_) {
    class_set_.insert(sub);
    class_set_.insert(supers.begin(), supers.end());
  }
  for (const auto& [prop, classes] : domain_) {
    property_set_.insert(prop);
    class_set_.insert(classes.begin(), classes.end());
  }
  for (const auto& [prop, classes] : range_) {
    property_set_.insert(prop);
    class_set_.insert(classes.begin(), classes.end());
  }
  for (const auto& [sub, supers] : sub_prop_) {
    property_set_.insert(sub);
    property_set_.insert(supers.begin(), supers.end());
  }

  all_classes_.assign(class_set_.begin(), class_set_.end());
  std::sort(all_classes_.begin(), all_classes_.end());
  all_properties_.assign(property_set_.begin(), property_set_.end());
  std::sort(all_properties_.begin(), all_properties_.end());

  sub_classes_closure_ = ComputeClosure(super_class_, class_set_);
  super_classes_closure_ = ComputeClosure(sub_class_, class_set_);
  sub_props_closure_ = ComputeClosure(super_prop_, property_set_);
  super_props_closure_ = ComputeClosure(sub_prop_, property_set_);

  // Entailed domain/range sets: for each property p, walk ≼sp upward, gather
  // declared domains (ranges), then close upward through ≼sc.
  entailed_domain_.clear();
  entailed_range_.clear();
  for (ValueId p : all_properties_) {
    std::vector<ValueId> dom_classes;
    std::vector<ValueId> range_classes;
    for (ValueId q : super_props_closure_[p]) {
      for (const AdjacencyMap* declared : {&domain_, &range_}) {
        auto it = declared->find(q);
        if (it == declared->end()) continue;
        std::vector<ValueId>* out =
            declared == &domain_ ? &dom_classes : &range_classes;
        for (ValueId d : it->second) {
          const std::vector<ValueId>& ups = super_classes_closure_[d];
          out->insert(out->end(), ups.begin(), ups.end());
        }
      }
    }
    SortUnique(&dom_classes);
    SortUnique(&range_classes);
    if (!dom_classes.empty()) entailed_domain_[p] = std::move(dom_classes);
    if (!range_classes.empty()) entailed_range_[p] = std::move(range_classes);
  }

  // Inverse maps.
  domain_entailing_props_.clear();
  range_entailing_props_.clear();
  for (const auto& [p, classes] : entailed_domain_) {
    for (ValueId c : classes) domain_entailing_props_[c].push_back(p);
  }
  for (const auto& [p, classes] : entailed_range_) {
    for (ValueId c : classes) range_entailing_props_[c].push_back(p);
  }
  for (auto& [c, props] : domain_entailing_props_) SortUnique(&props);
  for (auto& [c, props] : range_entailing_props_) SortUnique(&props);

  finalized_ = true;
}

void Schema::CheckFinalized() const {
  RDFOPT_CHECK(finalized_) << "Schema::Finalize() must be called before queries";
}

std::vector<ValueId> Schema::LookupClosure(const ClosureMap& closure,
                                           ValueId node) {
  auto it = closure.find(node);
  if (it != closure.end()) return it->second;
  return {node};  // Reflexive fallback for nodes unknown to the schema.
}

std::vector<ValueId> Schema::LookupSet(const ClosureMap& map, ValueId node) {
  auto it = map.find(node);
  if (it != map.end()) return it->second;
  return {};
}

std::vector<ValueId> Schema::SubClassesOf(ValueId cls) const {
  CheckFinalized();
  return LookupClosure(sub_classes_closure_, cls);
}

std::vector<ValueId> Schema::SuperClassesOf(ValueId cls) const {
  CheckFinalized();
  return LookupClosure(super_classes_closure_, cls);
}

std::vector<ValueId> Schema::SubPropertiesOf(ValueId property) const {
  CheckFinalized();
  return LookupClosure(sub_props_closure_, property);
}

std::vector<ValueId> Schema::SuperPropertiesOf(ValueId property) const {
  CheckFinalized();
  return LookupClosure(super_props_closure_, property);
}

std::vector<ValueId> Schema::EntailedDomainClasses(ValueId property) const {
  CheckFinalized();
  return LookupSet(entailed_domain_, property);
}

std::vector<ValueId> Schema::EntailedRangeClasses(ValueId property) const {
  CheckFinalized();
  return LookupSet(entailed_range_, property);
}

std::vector<ValueId> Schema::PropertiesWithDomainEntailing(ValueId cls) const {
  CheckFinalized();
  return LookupSet(domain_entailing_props_, cls);
}

std::vector<ValueId> Schema::PropertiesWithRangeEntailing(ValueId cls) const {
  CheckFinalized();
  return LookupSet(range_entailing_props_, cls);
}

const std::vector<ValueId>& Schema::AllClasses() const {
  CheckFinalized();
  return all_classes_;
}

const std::vector<ValueId>& Schema::AllProperties() const {
  CheckFinalized();
  return all_properties_;
}

bool Schema::IsSchemaClass(ValueId cls) const {
  CheckFinalized();
  return class_set_.count(cls) > 0;
}

bool Schema::IsSchemaProperty(ValueId property) const {
  CheckFinalized();
  return property_set_.count(property) > 0;
}

bool Schema::EquivalentTo(const Schema& other) const {
  CheckFinalized();
  other.CheckFinalized();
  if (all_classes_ != other.all_classes_ ||
      all_properties_ != other.all_properties_) {
    return false;
  }
  for (ValueId c : all_classes_) {
    if (SubClassesOf(c) != other.SubClassesOf(c)) return false;
  }
  for (ValueId p : all_properties_) {
    if (SubPropertiesOf(p) != other.SubPropertiesOf(p)) return false;
    if (EntailedDomainClasses(p) != other.EntailedDomainClasses(p))
      return false;
    if (EntailedRangeClasses(p) != other.EntailedRangeClasses(p)) return false;
  }
  return true;
}

}  // namespace rdfopt
