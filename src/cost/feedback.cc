#include "cost/feedback.h"

#include <algorithm>

#include "common/metrics.h"
#include "engine/plan.h"
#include "service/canonical.h"

namespace rdfopt {

namespace {

/// The store's key: the Canonicalize key of the fragment's body alone.
std::string BodyKey(const ConjunctiveQuery& cq) {
  ConjunctiveQuery body;
  body.atoms = cq.atoms;
  return Canonicalize(body).key;
}

}  // namespace

void EstimateFeedbackStore::Record(const ConjunctiveQuery& cq,
                                   double estimated_rows, size_t actual_rows) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static MetricCounter* records =
      registry.GetCounter("cost.feedback_records");
  static MetricCounter* evictions =
      registry.GetCounter("cost.feedback_evictions");
  // Folded estimate-error ratio: 1.0 = exact, 10.0 = one order of magnitude
  // off in either direction. +1 smoothing keeps zero-row fragments finite.
  static MetricHistogram* drift =
      registry.GetHistogram("cost.estimate_drift");

  if (estimated_rows < 0.0) estimated_rows = 0.0;
  const double ratio =
      (estimated_rows + 1.0) / (static_cast<double>(actual_rows) + 1.0);
  drift->Observe(std::max(ratio, 1.0 / ratio));
  records->Increment();

  std::string key = BodyKey(cq);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    while (entries_.size() >= options_.max_entries &&
           !insertion_order_.empty()) {
      entries_.erase(insertion_order_.front());
      insertion_order_.pop_front();
      evictions->Increment();
    }
    Entry entry;
    entry.observed_rows = static_cast<double>(actual_rows);
    entry.last_estimate = estimated_rows;
    entry.observations = 1;
    insertion_order_.push_back(key);
    entries_.emplace(std::move(key), entry);
    return;
  }
  Entry& entry = it->second;
  entry.observed_rows = options_.ewma_alpha * static_cast<double>(actual_rows) +
                        (1.0 - options_.ewma_alpha) * entry.observed_rows;
  entry.last_estimate = estimated_rows;
  ++entry.observations;
}

std::optional<double> EstimateFeedbackStore::Lookup(
    const ConjunctiveQuery& cq) const {
  static MetricCounter* hits =
      MetricsRegistry::Global().GetCounter("cost.feedback_hits");
  const std::string key = BodyKey(cq);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  hits->Increment();
  return it->second.observed_rows;
}

void EstimateFeedbackStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  insertion_order_.clear();
}

size_t EstimateFeedbackStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<std::pair<std::string, EstimateFeedbackStore::Entry>>
EstimateFeedbackStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

void RecordPlanFeedback(const PhysicalPlan& plan,
                        EstimateFeedbackStore* store) {
  if (store == nullptr) return;
  plan.ForEachNode([store](const PlanNode& node) {
    if (node.kind != PlanNodeKind::kUnionAll) return;
    // disjuncts[i] is the source CQ of children[i] (planner invariant); an
    // over-limit union plans only a sample, so sizes can differ — skip it.
    if (node.disjuncts.size() != node.children.size()) return;
    for (size_t i = 0; i < node.children.size(); ++i) {
      const PlanNode* child = node.children[i].get();
      if (!child->executed) continue;  // Short-circuited: no observation.
      store->Record(node.disjuncts[i], child->est_rows, child->actual_rows);
    }
  });
}

}  // namespace rdfopt
