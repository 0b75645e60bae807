#ifndef RDFOPT_VIEWS_VIEW_ADVISOR_H_
#define RDFOPT_VIEWS_VIEW_ADVISOR_H_

#include <cstddef>
#include <cstdint>

#include "views/view_catalog.h"

namespace rdfopt {

struct ViewAdvisorOptions {
  /// Ceiling on concurrently pinned views. Pinned views survive LRU
  /// pressure and are maintained across epochs, so each one is a standing
  /// maintenance obligation — the limit keeps that bill bounded.
  size_t pin_limit = 8;
  /// A fragment must have been planned this often before it can be pinned:
  /// fewer observations are indistinguishable from one-off queries.
  uint64_t min_observations = 3;
};

/// The log-mining half of the materialized-view subsystem (DESIGN.md §14).
///
/// The catalog's ledger *is* the mined query log: every planned component
/// deposits an observation (signature, frequency, latest cost estimate), the
/// same stream the slow-query log samples, without re-parsing anything. A
/// pass ranks resident fragments by expected benefit per byte —
///
///     score = observations × est_cost / (bytes + 1)
///
/// observations × est_cost is the execution cost the view keeps saving if
/// the workload continues (frequency × benefit); bytes is what it costs to
/// keep; the +1 guards empty results. The top `pin_limit` fragments clearing
/// `min_observations` become pinned (promoted); pinned fragments falling out
/// of that set are demoted back to LRU citizenship. Only resident fragments
/// are considered: admission already proved they fit, and their byte size is
/// known rather than estimated.
///
/// Deterministic: ties break on signature order, so tests and repeated
/// passes over an unchanged ledger are stable (and idempotent).
class ViewAdvisor {
 public:
  explicit ViewAdvisor(ViewAdvisorOptions options = {});

  struct PassResult {
    size_t considered = 0;  ///< Resident fragments scored.
    size_t promoted = 0;
    size_t demoted = 0;
  };

  /// One scoring pass over `catalog`'s ledger. Thread-safe via the
  /// catalog's own locking; concurrent passes are harmless (idempotent).
  PassResult RunPass(ViewCatalog* catalog) const;

  /// The scoring function, exposed for tests.
  static double Score(const ViewInfo& info);

 private:
  const ViewAdvisorOptions options_;
};

}  // namespace rdfopt

#endif  // RDFOPT_VIEWS_VIEW_ADVISOR_H_
