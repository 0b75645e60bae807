#ifndef RDFOPT_PERFBENCH_BENCH_HELPERS_H_
#define RDFOPT_PERFBENCH_BENCH_HELPERS_H_

// Helpers of the end-to-end benchmark (e2e_bench.cc) that carry a rule the
// reported numbers depend on, kept apart so helpers_test.cc can check them:
// the tail-percentile rule, the answer fingerprint, the update-delta
// generator and the in-memory span log of the traced run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/relation.h"
#include "rdf/graph.h"
#include "rdf/triple.h"
#include "workload/lubm.h"

namespace rdfopt::perfbench {

/// A timing is reported at a percentile only when at least this many
/// samples lie beyond it; fewer make the tail a single outlier's value.
constexpr size_t kTailSamples = 10;

/// Nearest-rank index of percentile `pct` (0 < pct <= 100) in `n` sorted
/// samples; n > 0.
inline size_t PercentileIndex(size_t n, double pct) {
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n));
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) -
         1;
}

/// True when at least kTailSamples of `n` samples lie beyond percentile
/// `pct`, so a value reported there is backed by a tail, not one sample.
inline bool HasTail(size_t n, double pct) {
  return n > 0 && n - 1 - PercentileIndex(n, pct) >= kTailSamples;
}

/// The highest percentile of `n` samples with at least kTailSamples beyond
/// it, or 0 when there are too few samples for any.
inline double HighestTailPercentile(size_t n) {
  if (n <= kTailSamples) return 0.0;
  return 100.0 * static_cast<double>(n - kTailSamples) /
         static_cast<double>(n);
}

/// Value at percentile `pct` of `sorted` (ascending, non-empty).
inline double PercentileOf(const std::vector<double>& sorted, double pct) {
  return sorted[PercentileIndex(sorted.size(), pct)];
}

/// Order-insensitive fingerprint of a relation's rows: equal row sets hash
/// equal whatever order they were produced in, while swapping two columns
/// (or changing the arity) changes the hash.
inline uint64_t RowFingerprint(const Relation& relation) {
  uint64_t hash = 0x9E3779B97F4A7C15ull * (relation.arity() + 1);
  for (size_t i = 0; i < relation.num_rows(); ++i) {
    uint64_t row_hash = 0xCBF29CE484222325ull;  // FNV-1a: position-aware.
    for (ValueId v : relation.row(i)) {
      row_hash ^= v;
      row_hash *= 0x100000001B3ull;
    }
    row_hash ^= row_hash >> 29;  // Spread before the commutative sum.
    row_hash *= 0xBF58476D1CE4E5B9ull;
    hash += row_hash;
  }
  return hash + relation.num_rows();
}

/// Update deltas for the write path: `count` deltas of `size` data triples
/// each, all new to `graph` and to each other. Every triple is a new edge
/// (s1, p, o2) built from two existing edges (s1, p, o1) and (s2, p, o2) of
/// one entity-to-entity property, so it uses only interned ids, keeps the
/// property's domain and range, and is never a schema or rdf:type triple.
/// Deterministic for a given graph and seed.
inline std::vector<std::vector<Triple>> GenerateDeltas(const Graph& graph,
                                                       size_t count,
                                                       size_t size,
                                                       uint64_t seed) {
  const Vocabulary& vocab = graph.vocab();
  const Dictionary& dict = graph.dict();
  // Edges grouped by property, properties in first-seen order so the
  // grouping (and thus the deltas) depends only on the graph.
  std::vector<ValueId> properties;
  std::unordered_map<ValueId, std::vector<Triple>> edges;
  std::unordered_set<Triple, TripleHash> existing;
  existing.reserve(graph.data_triples().size());
  for (const Triple& t : graph.data_triples()) {
    existing.insert(t);
    if (t.p == vocab.rdf_type || vocab.IsSchemaProperty(t.p) ||
        dict.term(t.o).kind != TermKind::kIri) {
      continue;
    }
    auto [it, inserted] = edges.try_emplace(t.p);
    if (inserted) properties.push_back(t.p);
    it->second.push_back(t);
  }
  // Pick properties in proportion to their edge counts.
  std::vector<const Triple*> pool;
  for (ValueId p : properties) {
    for (const Triple& t : edges[p]) pool.push_back(&t);
  }
  std::vector<std::vector<Triple>> deltas(count);
  if (pool.empty()) return deltas;
  WorkloadRng rng(seed ^ 0xD3E7A5C1B9F24680ull);
  for (std::vector<Triple>& delta : deltas) {
    delta.reserve(size);
    while (delta.size() < size) {
      const Triple& first = *pool[rng.Uniform(pool.size())];
      const std::vector<Triple>& same_p = edges[first.p];
      const Triple& second = same_p[rng.Uniform(same_p.size())];
      const Triple added{first.s, first.p, second.o};
      if (existing.insert(added).second) delta.push_back(added);
    }
  }
  return deltas;
}

/// In-memory span log of one traced thread. A span has a name whose prefix
/// up to the first '.' names its layer ("engine.plan" belongs to
/// "engine"), a start and an end on the steady clock, the span that
/// caused it (-1 for a request's root) and the request it belongs to.
/// Spans stay in memory until the run ends; nesting follows the call
/// order, so a thread must close spans in reverse opening order.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint32_t request = 0;

    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Opens a span under the innermost open one; returns its index.
  int32_t Open(const char* name, uint32_t request) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  /// Closes the innermost open span, which must be `index`; returns its
  /// duration in milliseconds.
  double Close(int32_t index) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    open_.pop_back();
    return span.ms();
  }

  /// Records an already-measured child of the innermost open span, ending
  /// now (used for times the library measures itself, such as the
  /// evaluator's own wall clock).
  void AddMeasured(const char* name, uint32_t request, double ms) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    span.end_ns = NowNs();
    span.start_ns = span.end_ns - static_cast<int64_t>(ms * 1e6);
    spans_.push_back(span);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer in milliseconds: each span's duration minus the
  /// part its children cover (children of one span run one after another
  /// on this thread, so their durations add up without overlap).
  std::unordered_map<std::string, double> SelfMsByLayer() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    std::unordered_map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const std::string name = spans_[i].name;
      const int64_t own = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
      self[name.substr(0, name.find('.'))] +=
          static_cast<double>(std::max<int64_t>(own, 0)) / 1e6;
    }
    return self;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Opens a span for the enclosing scope; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t request)
      : log_(log), index_(log != nullptr ? log->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr && index_ >= 0) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Closes the span early and returns its duration (ms); idempotent.
  double End() {
    if (log_ == nullptr || index_ < 0) return 0.0;
    const double ms = log_->Close(index_);
    index_ = -1;
    return ms;
  }

 private:
  SpanLog* log_;
  int32_t index_;
};

}  // namespace rdfopt::perfbench

#endif  // RDFOPT_PERFBENCH_BENCH_HELPERS_H_
