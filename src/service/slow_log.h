#ifndef RDFOPT_SERVICE_SLOW_LOG_H_
#define RDFOPT_SERVICE_SLOW_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/evaluator.h"
#include "storage/epoch.h"

namespace rdfopt {

/// Per-plan-node roll-up carried from an executed plan into ServiceOutcome
/// and the slow-query log: the per-operator accounting (engine/plan.h) in a
/// plain-data form that outlives the plan tree.
struct PlanNodeStats {
  int id = -1;
  std::string_view kind;  ///< PlanNodeKindName — static storage.
  /// For SharedRef nodes and shared-subplan roots: the index of the
  /// execute-once shared subplan (union-subplan factoring); -1 otherwise.
  int shared_index = -1;
  size_t actual_rows = 0;
  double actual_ms = 0.0;
  size_t rows_scanned = 0;
  size_t hash_probes = 0;
  size_t bytes_materialized = 0;
};

/// Structured slow-query log (DESIGN.md §8): a bounded ring of JSON-lines
/// records for requests that were slow (>= threshold) or failed. Each line
/// is one self-contained JSON object — canonical query, outcome status,
/// plan digest, cache hit/miss, snapshot epoch, queue wait, phase times,
/// resource totals, and per-node timings — so `grep | jq` works on the
/// `slowlog` admin command's output (service/admin.h) directly.
///
/// Sampling: with `sample_every = N`, every Nth qualifying request is
/// rendered and kept; the rest only bump the `service.slow_queries`
/// counter. Rendering a record costs ~1µs per plan node, so sampling is the
/// overload valve, not the common-case cost.
///
/// Thread-safe; the service records from concurrent request threads.
class SlowQueryLog {
 public:
  struct Options {
    double threshold_ms = 100.0;  ///< Requests at/above qualify; failed
                                  ///< requests qualify regardless.
    size_t capacity = 128;        ///< Most recent records kept.
    size_t sample_every = 1;      ///< Keep every Nth qualifying record.
  };

  explicit SlowQueryLog(Options options);

  /// Everything one log line is rendered from.
  struct Record {
    std::string canonical_query;  ///< Canonical key of the request.
    Status status = Status::OK();
    uint64_t plan_digest = 0;  ///< 0 when no plan was kept/built.
    bool cache_hit = false;
    Epoch epoch = 0;
    double queue_wait_ms = 0.0;
    double optimize_ms = 0.0;
    double reformulate_ms = 0.0;
    double plan_ms = 0.0;
    double evaluate_ms = 0.0;
    double total_ms = 0.0;
    size_t vector_width = 1;  ///< Batch size of the executed plan (1 =
                              ///< tuple-at-a-time).
    EvalMetrics eval;  ///< Resource totals of the evaluation.
    std::vector<PlanNodeStats> nodes;
  };

  /// Applies the qualification rule (slow or failed) and sampling; safe to
  /// call for every request.
  void MaybeRecord(const Record& record);

  /// The most recent records as JSON lines, oldest first. `max` > 0 limits
  /// to the newest `max` lines.
  std::vector<std::string> Lines(size_t max = 0) const;

  void Clear();

  size_t size() const;
  double threshold_ms() const {
    return threshold_ms_.load(std::memory_order_relaxed);
  }
  /// Runtime-adjustable (the admin command `slowlog ms X`).
  void set_threshold_ms(double ms) {
    threshold_ms_.store(ms, std::memory_order_relaxed);
  }

  /// Renders one record to its JSON line (exposed for tests).
  static std::string RenderLine(const Record& record);

 private:
  const Options options_;
  std::atomic<double> threshold_ms_;
  std::atomic<uint64_t> qualifying_{0};  ///< Sampling clock.
  mutable std::mutex mu_;
  std::deque<std::string> lines_;
};

/// Flattens an executed plan's per-operator accounting into PlanNodeStats
/// rows (preorder; nodes that never executed are skipped).
struct PhysicalPlan;
std::vector<PlanNodeStats> CollectNodeStats(const PhysicalPlan& plan);

}  // namespace rdfopt

#endif  // RDFOPT_SERVICE_SLOW_LOG_H_
