#ifndef RDFOPT_COMMON_METRICS_H_
#define RDFOPT_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rdfopt {

/// Process-wide named counters, gauges and histograms (see DESIGN.md
/// "Observability"). Unlike a TraceSession — one span tree per query —
/// the registry accumulates across queries: `engine.union_terms`,
/// `optimizer.covers_examined`, the `engine.evaluate_ms` latency histogram
/// with p50/p95/p99, etc.
///
/// Instruments are created on first use and never deleted, so call sites
/// cache the pointer in a function-local static:
///
///   static MetricCounter* terms =
///       MetricsRegistry::Global().GetCounter("engine.union_terms");
///   terms->Add(n);
///
/// Counters and gauges are lock-free; histogram observation takes a short
/// mutex. `Reset()` zeroes every instrument in place (for tests and the
/// shell).
///
/// Concurrency contract: `Add`/`Increment`/`Set`/`Observe` and the
/// registry's `GetCounter`/`GetGauge`/`GetHistogram`/`GetWindowedHistogram`
/// may be called from any thread concurrently — the parallel union/JUCQ
/// executor (engine/evaluator.cc, worker_threads > 1) reports from pool
/// workers, so every increment must stay race-free. Totals are sums of
/// atomic adds and therefore independent of the thread count and
/// interleaving.

class MetricCounter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time level (queue depth, run slots in use, current epoch):
/// unlike a counter it moves both ways and is exported as-is, never rated.
class MetricGauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  void Decrement() { Add(-1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Shared exponential bucket scheme of the histogram instruments: bucket i
/// holds samples in (bound(i-1), bound(i)] with bound(i) = 0.001 * 2^i,
/// covering ~1µs .. ~10^16 (values in ms).
inline constexpr size_t kMetricNumBuckets = 64;
size_t MetricBucketIndex(double value);
double MetricBucketUpperBound(size_t index);

/// Fixed-bucket exponential histogram for non-negative samples (latencies in
/// ms, row counts), accumulating over the process lifetime; quantiles
/// interpolate within the winning bucket and are clamped to the exact
/// observed min/max.
class MetricHistogram {
 public:
  static constexpr size_t kNumBuckets = kMetricNumBuckets;

  void Observe(double value);

  uint64_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  /// Estimated q-quantile (q in [0,1]); 0 when empty.
  double Quantile(double q) const;

  void Reset();

 private:
  mutable std::mutex mu_;
  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Rolling time-windowed histogram: the same exponential buckets as
/// MetricHistogram, but quantiles cover only the trailing window (p99 over
/// the last minute, not the process lifetime — a process-lifetime p99 can
/// never recover from one startup spike, which makes it useless for
/// alerting).
///
/// Implementation: the window is divided into `num_slices` time slices, each
/// its own bucket array. An observation lands in the slice owning the
/// current instant; slices whose time range has rotated out of the window
/// are lazily zeroed and reused. A snapshot merges the live slices, so it
/// covers between (window - slice) and window seconds of history depending
/// on where in the current slice "now" falls. min/max are per-slice exact,
/// window-level conservative (the min/max of live slices).
class MetricWindowedHistogram {
 public:
  explicit MetricWindowedHistogram(double window_seconds = 60.0,
                                   size_t num_slices = 6);

  void Observe(double value);

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  /// Merged view of the trailing window.
  Snapshot WindowSnapshot() const;

  double window_seconds() const { return window_seconds_; }

  void Reset();

  /// Shifts this instrument's notion of "now" forward — lets tests age
  /// observations out of the window without sleeping.
  void AdvanceClockForTest(double seconds);

 private:
  struct Slice {
    int64_t index = -1;  ///< Global slice number, -1 = empty/stale.
    std::array<uint64_t, kMetricNumBuckets> buckets{};
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  /// Global slice number of the current instant.
  int64_t NowSliceIndex() const;

  const double window_seconds_;
  const double slice_seconds_;

  mutable std::mutex mu_;
  std::vector<Slice> slices_;
  std::chrono::steady_clock::time_point origin_;
  double test_offset_seconds_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the pipeline reports into.
  static MetricsRegistry& Global();

  /// Returns the named instrument, creating it on first use. Pointers are
  /// stable for the registry's lifetime. The window parameters of
  /// GetWindowedHistogram apply on first use only (later calls return the
  /// existing instrument unchanged).
  MetricCounter* GetCounter(std::string_view name);
  MetricGauge* GetGauge(std::string_view name);
  MetricHistogram* GetHistogram(std::string_view name);
  MetricWindowedHistogram* GetWindowedHistogram(std::string_view name,
                                                double window_seconds = 60.0,
                                                size_t num_slices = 6);

  /// Snapshot: {"counters":{name:value,...},"gauges":{...},
  /// "histograms":{name:{count,sum,min,max,p50,p95,p99},...},
  /// "windowed":{name:{window_s,count,sum,min,max,p50,p95,p99},...}}
  /// with names in sorted order. `indent` > 0 pretty-prints.
  std::string ToJson(int indent = 0) const;

  /// Prometheus text-exposition snapshot (one scrape): counters as
  /// `counter`, gauges as `gauge`, histograms as `summary` with
  /// quantile-labelled lines plus _sum/_count, windowed histograms as
  /// gauges labelled {quantile,window}. Names are mangled
  /// `engine.evaluate_ms` -> `rdfopt_engine_evaluate_ms`. Ends with the
  /// OpenMetrics `# EOF` terminator (the `prom` admin command of
  /// service/admin.h leaves that line to the transport).
  std::string ToPrometheusText() const;

  /// Zeroes every registered instrument (instruments stay registered, so
  /// cached pointers remain valid). For tests and the shell's baseline.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<MetricHistogram>, std::less<>>
      histograms_;
  std::map<std::string, std::unique_ptr<MetricWindowedHistogram>, std::less<>>
      windowed_;
};

}  // namespace rdfopt

#endif  // RDFOPT_COMMON_METRICS_H_
