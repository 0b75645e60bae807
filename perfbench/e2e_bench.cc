// End-to-end query-answering benchmark: closed-loop clients (and, on one
// workload, a writer) drive QueryService over generated LUBM data with the
// engine's busy-wait emulation switched off, so every number is real work.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//   e2e_bench --describe
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run (which re-drives each request
// through the layers' public functions and times them from here; nothing
// inside the library is instrumented). Either way the last line of stdout
// is one JSON object {"correct","attempted","failed","metrics"}, every
// answer is checked, and any wrong answer makes the exit code non-zero.
// `--describe` prints the workload and metric definitions as JSON, which
// perfbench/test.py compares with BENCHMARK.json and workloads.json.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_helpers.h"
#include "engine/engine_profile.h"
#include "engine/planner.h"
#include "optimizer/answering.h"
#include "optimizer/gcov.h"
#include "reasoner/saturation.h"
#include "service/canonical.h"
#include "service/query_service.h"
#include "sparql/parser.h"
#include "storage/statistics.h"
#include "storage/triple_store.h"
#include "workload/lubm.h"
#include "workload/query_sets.h"

namespace rdfopt::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Definitions: scale, workloads, metrics.

constexpr size_t kUniversities = 8;
/// Set-ups per run; setup_s is their median.
constexpr size_t kSetupRepeats = 5;
/// Reads per run at least, so read_p99_ms has ten samples beyond it.
constexpr size_t kMinReads = 1000;
/// Triples per update delta.
constexpr size_t kDeltaTriples = 200;
/// Writes per run at least, so update_p90_ms has ten samples beyond it.
constexpr size_t kMinWrites = 102;
/// Writes per second of --seconds (and at least kMinWrites), a count, not a
/// rate: both sides of a comparison do the same writes. On workloads
/// without interleaved writes they form the update probe after the last
/// read, which thus spans a fixed share of the run rather than a few
/// seconds of it.
constexpr size_t kWritesPerSecond = 6;
/// A run that has not finished its work by then stops and fails, so a hung
/// or very slow build can never run without bound.
constexpr double kRunLimitSeconds = 120.0;
/// Reads per phase at least in the traced run, whose phases report only
/// medians.
constexpr size_t kMinTracedReads = 100;

struct Workload {
  const char* name;
  const char* why;
  const char* stresses;  // Layers the workload is predicted to stress.
  size_t clients;
  size_t writers;
  bool cache;
  bool views;
  bool feedback;
  /// 0: read-only phase followed by the update probe; otherwise one write
  /// after every this many completed reads.
  size_t reads_per_write;
};

/// No workload runs more than three load threads: on a shared 4-vCPU host,
/// runs that keep every vCPU busy spread about twice as much from run to
/// run as runs that leave one or two idle. The plan-cache hit path is
/// measured on lubm-churn, between its writes.
const Workload kWorkloads[] = {
    {"lubm-cold",
     "Every read runs the full pipeline with no history: parse, "
     "canonicalize, GCov cover search, reformulate, plan, execute.",
     "sparql service optimizer cost reformulation engine", 1, 0,
     /*cache=*/false, /*views=*/false, /*feedback=*/false, 0},
    {"lubm-churn",
     "Reads with a paced writer of data-only deltas: storage merge, "
     "incremental saturation, statistics, epoch invalidation and view "
     "refresh, with reads forced back onto the miss path.",
     "service storage reasoner views optimizer engine", 2, 1,
     /*cache=*/true, /*views=*/true, /*feedback=*/true, 28},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Update deltas one run applies: the update probe, or the interleaved
/// writes.
size_t DeltasPerRun(size_t seconds) {
  return std::max(kMinWrites, kWritesPerSecond * seconds);
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by the untraced run. error_rate is always
/// printed too, but enters the result line as "failed"/"attempted" only:
/// it is zero whenever the run is correct.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"read_p50_ms", "ms"},
    {"read_p99_ms", "ms"},     {"read_qps", "1/s"},
    {"update_p50_ms", "ms"},   {"update_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, printed by the traced run. Times are per-request (or
/// per-call) means, counts per-request means, unless the name says rate.
const MetricDef kPerLayer[] = {
    {"sparql.parse_ms", "ms"},
    {"service.canonicalize_ms", "ms"},
    {"service.answer_ms", "ms"},
    {"service.cache_hit_rate", "ratio"},
    {"service.queue_wait_ms", "ms"},
    {"service.shed", "count"},
    {"service.apply_update_ms", "ms"},
    {"optimizer.cover_search_ms", "ms"},
    {"optimizer.covers_examined", "count"},
    {"cost.oracle_ms", "ms"},
    {"cost.oracle_calls", "count"},
    {"reformulation.assemble_ms", "ms"},
    {"reformulation.union_terms", "count"},
    {"engine.plan_ms", "ms"},
    {"engine.plan_nodes", "count"},
    {"engine.execute_ms", "ms"},
    {"engine.rows_scanned", "count"},
    {"engine.hash_probes", "count"},
    {"engine.join_input_rows", "count"},
    {"engine.rows_materialized", "count"},
    {"engine.duplicates_removed", "count"},
    {"engine.answer_yield", "ratio"},
    {"storage.build_ms", "ms"},
    {"storage.merge_ms", "ms"},
    {"storage.statistics_ms", "ms"},
    {"reasoner.saturate_ms", "ms"},
    {"reasoner.incremental_saturate_ms", "ms"},
    {"views.hit_rate", "ratio"},
    {"views.bytes", "bytes"},
    {"views.evictions", "count"},
    {"views.refreshes", "count"},
    {"workload.generate_ms", "ms"},
    {"self.read.sparql_ms", "ms"},
    {"self.read.service_ms", "ms"},
    {"self.read.optimizer_ms", "ms"},
    {"self.read.cost_ms", "ms"},
    {"self.read.reformulation_ms", "ms"},
    {"self.read.engine_ms", "ms"},
    {"self.write.service_ms", "ms"},
    {"self.write.storage_ms", "ms"},
    {"self.write.reasoner_ms", "ms"},
    {"tracing.untraced_read_p50_ms", "ms"},
    {"tracing.traced_read_p50_ms", "ms"},
    {"tracing.overhead_ms", "ms"},
};

/// The one engine profile of every workload: the vectorized Postgres-like
/// engine with its three busy-wait charges zeroed (cost constants kept, so
/// cover choice is unchanged) and a single evaluation thread.
EngineProfile BenchProfile() {
  EngineProfile profile = Vectorized(PostgresLikeProfile());
  profile.tuple_us_per_row = 0.0;
  profile.materialization_us_per_row = 0.0;
  profile.union_term_overhead_us = 0.0;
  profile.worker_threads = 1;
  return profile;
}

ServiceOptions OptionsFor(const Workload& w) {
  ServiceOptions options;
  options.enable_cache = w.cache;
  options.enable_views = w.views;
  options.enable_feedback = w.feedback;
  return options;
}

ServiceOptions ColdOptions() { return OptionsFor(kWorkloads[0]); }

// ---------------------------------------------------------------------------
// Environment.

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<size_t>(CPU_COUNT(&set));
}

/// Restarts VmHWM at the current resident set, after handing freed heap
/// back to the system, so a later PeakRssMb() covers only what follows.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

const char* BuildType() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// Empty when the numbers can be trusted, else why not.
std::string GuardConditions(const Workload& w, const EngineProfile& profile) {
#ifndef NDEBUG
  return "the build is not optimized (NDEBUG is not defined)";
#endif
  if (profile.tuple_us_per_row != 0.0 ||
      profile.materialization_us_per_row != 0.0 ||
      profile.union_term_overhead_us != 0.0) {
    return "the engine profile emulates busy-wait costs";
  }
  if (profile.worker_threads != 1) {
    return "the engine profile runs more than one evaluation thread";
  }
  if (w.clients + w.writers > Nproc()) {
    return "the workload needs " + std::to_string(w.clients + w.writers) +
           " load threads but nproc is " + std::to_string(Nproc());
  }
  return "";
}

// ---------------------------------------------------------------------------
// Samples and result printing.

/// The samples of one metric.
struct Samples {
  std::vector<double> values;

  void Add(double v) { values.push_back(v); }
  void Merge(const Samples& other) {
    values.insert(values.end(), other.values.begin(), other.values.end());
  }
  size_t n() const { return values.size(); }
  double Mean() const {
    return values.empty() ? 0.0
                          : std::accumulate(values.begin(), values.end(), 0.0) /
                                static_cast<double>(values.size());
  }
  std::vector<double> Sorted() const {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }
};

struct Reported {
  double value = 0.0;
  size_t samples = 0;
};

struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Reported> metrics;

  void Fail(const std::string& problem) {
    ++failed;
    if (problems.size() < 20) problems.push_back(problem);
  }
};

/// Prints each metric with its unit and sample count, then the result line;
/// returns the exit code.
int PrintResult(const MetricDef* defs, size_t num_defs,
                const RunResult& result) {
  for (size_t i = 0; i < num_defs; ++i) {
    auto it = result.metrics.find(defs[i].name);
    if (it == result.metrics.end()) {
      std::printf("metric %-34s missing\n", defs[i].name);
      continue;
    }
    std::printf("metric %-34s %.6g %s (n=%zu)\n", defs[i].name,
                it->second.value, defs[i].unit, it->second.samples);
  }
  std::printf("metric %-34s %.6g ratio (n=%zu)\n", "error_rate",
              result.attempted == 0
                  ? 0.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
              result.attempted);
  for (const std::string& problem : result.problems) {
    std::printf("problem: %s\n", problem.c_str());
  }
  bool complete = true;
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < num_defs; ++i) {
    auto it = result.metrics.find(defs[i].name);
    if (it == result.metrics.end()) {
      complete = false;
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", it->second.value);
    if (json.back() != '{') json += ", ";
    json += "\"" + std::string(defs[i].name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.failed == 0 && complete ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Inputs.

/// Each client cycles through the 28 queries in its own seeded order.
std::vector<size_t> ShuffledOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  WorkloadRng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  return order;
}

/// A generated database with a warmed service over it.
struct Setup {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<QueryService> service;
  double seconds = 0.0;
  double generate_ms = 0.0;
};

Setup BuildSetup(const Workload& w, uint64_t seed,
                 const EngineProfile& profile,
                 const std::vector<BenchmarkQuery>& queries, SpanLog* log) {
  Setup setup;
  const Clock::time_point start = Clock::now();
  setup.graph = std::make_unique<Graph>();
  LubmOptions lubm;
  lubm.num_universities = kUniversities;
  lubm.seed = seed;
  {
    ScopedSpan span(log, "workload.generate", 0);
    GenerateLubm(lubm, setup.graph.get());
    setup.graph->FinalizeSchema();
  }
  setup.generate_ms = MsSince(start);
  setup.service = std::make_unique<QueryService>(setup.graph.get(), profile,
                                                 OptionsFor(w));
  // Warm-up: one pass over the pool (fills the plan cache where it is on).
  for (const BenchmarkQuery& q : queries) {
    (void)setup.service->AnswerText(q.text);
  }
  setup.seconds = MsSince(start) / 1e3;
  return setup;
}

/// The benchmark's own copy of a snapshot, built with the layers' public
/// functions (storage, reasoner, statistics), optionally timing each.
struct OwnStore {
  TripleStore data;
  TripleStore saturated;
  Statistics stats;
};

struct LayerTimes {
  Samples build_ms, saturate_ms, statistics_ms, merge_ms,
      incremental_saturate_ms;
};

OwnStore BuildOwnStore(const Graph& graph, SpanLog* log, LayerTimes* times) {
  ScopedSpan build_span(log, "storage.build", 0);
  TripleStore data = TripleStore::Build(graph.data_triples());
  const double build_ms = build_span.End();
  ScopedSpan saturate_span(log, "reasoner.saturate", 0);
  TripleStore saturated = Saturate(data, graph.schema(), graph.vocab()).store;
  const double saturate_ms = saturate_span.End();
  ScopedSpan stats_span(log, "storage.statistics", 0);
  Statistics stats = Statistics::Compute(data);
  const double statistics_ms = stats_span.End();
  if (times != nullptr) {
    times->build_ms.Add(build_ms);
    times->saturate_ms.Add(saturate_ms);
    times->statistics_ms.Add(statistics_ms);
  }
  return OwnStore{std::move(data), std::move(saturated), std::move(stats)};
}

/// Applies one data-only delta to `store` the way the service does, timing
/// Build+Merge, IncrementalSaturate and Statistics::Compute.
void MirrorUpdate(const Graph& graph, const std::vector<Triple>& delta,
                  OwnStore* store, SpanLog* log, uint32_t request,
                  LayerTimes* times) {
  ScopedSpan merge_span(log, "storage.merge", request);
  TripleStore data = TripleStore::Merge(store->data, TripleStore::Build(delta));
  const double merge_ms = merge_span.End();
  ScopedSpan saturate_span(log, "reasoner.incremental_saturate", request);
  TripleStore saturated =
      IncrementalSaturate(store->saturated, delta, graph.schema(),
                          graph.vocab())
          .store;
  const double saturate_ms = saturate_span.End();
  ScopedSpan stats_span(log, "storage.statistics", request);
  Statistics stats = Statistics::Compute(data);
  const double statistics_ms = stats_span.End();
  if (times != nullptr) {
    times->merge_ms.Add(merge_ms);
    times->incremental_saturate_ms.Add(saturate_ms);
    times->statistics_ms.Add(statistics_ms);
  }
  *store = OwnStore{std::move(data), std::move(saturated), std::move(stats)};
}

/// Serial reference answers: a QueryAnswerer over `store`, answering by
/// saturation (an evaluation path independent of the reformulation
/// pipeline the service runs). Parses against the graph's dictionary, so
/// nothing may answer through the service meanwhile.
std::vector<uint64_t> ReferenceFingerprints(
    Graph* graph, const OwnStore& store, const EngineProfile& profile,
    const std::vector<BenchmarkQuery>& queries, RunResult* result) {
  QueryAnswerer answerer(&store.data, &store.saturated, &graph->schema(),
                         &graph->vocab(), &store.stats, &profile);
  AnswerOptions options;
  options.strategy = Strategy::kSaturation;
  std::vector<uint64_t> out;
  for (const BenchmarkQuery& q : queries) {
    Result<Query> parsed = ParseQuery(q.text, &graph->dict());
    Result<AnswerOutcome> answered =
        parsed.ok() ? answerer.Answer(parsed.ValueOrDie(), options)
                    : Result<AnswerOutcome>(parsed.status());
    if (!answered.ok()) {
      result->Fail(q.name + " reference: " + answered.status().ToString());
      out.push_back(0);
      continue;
    }
    out.push_back(RowFingerprint(answered.ValueOrDie().answers));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The re-driven cold pipeline (traced run).

/// Times every CoverCost/FragmentCost call the cover search makes, and
/// records each as a cost.oracle span.
class TimedOracle : public CoverCostOracle {
 public:
  TimedOracle(CoverCostOracle* inner, SpanLog* log, uint32_t request)
      : inner_(inner), log_(log), request_(request) {}

  double CoverCost(const Cover& cover) override {
    ScopedSpan span(log_, "cost.oracle", request_);
    const double cost = inner_->CoverCost(cover);
    Count(span.End());
    return cost;
  }
  double FragmentCost(const std::vector<int>& fragment) override {
    ScopedSpan span(log_, "cost.oracle", request_);
    const double cost = inner_->FragmentCost(fragment);
    Count(span.End());
    return cost;
  }

  double ms() const { return ms_; }
  size_t calls() const { return calls_; }

 private:
  void Count(double ms) {
    ms_ += ms;
    ++calls_;
  }

  CoverCostOracle* inner_;
  SpanLog* log_;
  uint32_t request_;
  double ms_ = 0.0;
  size_t calls_ = 0;
};

/// Per-layer samples of the traced run, one set per thread, merged at the
/// end; `answer_rows`/`scanned_rows` sum up for engine.answer_yield.
struct LayerSamples {
  Samples parse_ms, canonicalize_ms, answer_ms, queue_wait_ms, apply_ms;
  Samples cover_search_ms, covers_examined, oracle_ms, oracle_calls;
  Samples assemble_ms, union_terms, plan_ms, plan_nodes;
  Samples execute_ms, rows_scanned, hash_probes, join_input_rows,
      rows_materialized, duplicates_removed;
  double answer_rows = 0.0;
  double scanned_rows = 0.0;

  void AddEval(const EvalMetrics& eval, size_t rows) {
    rows_scanned.Add(static_cast<double>(eval.rows_scanned));
    hash_probes.Add(static_cast<double>(eval.hash_probes));
    join_input_rows.Add(static_cast<double>(eval.join_input_rows));
    rows_materialized.Add(static_cast<double>(eval.rows_materialized));
    duplicates_removed.Add(static_cast<double>(eval.duplicates_removed));
    answer_rows += static_cast<double>(rows);
    scanned_rows += static_cast<double>(eval.rows_scanned);
  }

  void Merge(const LayerSamples& o) {
    Samples LayerSamples::*all[] = {
        &LayerSamples::parse_ms,          &LayerSamples::canonicalize_ms,
        &LayerSamples::answer_ms,         &LayerSamples::queue_wait_ms,
        &LayerSamples::apply_ms,          &LayerSamples::cover_search_ms,
        &LayerSamples::covers_examined,   &LayerSamples::oracle_ms,
        &LayerSamples::oracle_calls,      &LayerSamples::assemble_ms,
        &LayerSamples::union_terms,       &LayerSamples::plan_ms,
        &LayerSamples::plan_nodes,        &LayerSamples::execute_ms,
        &LayerSamples::rows_scanned,      &LayerSamples::hash_probes,
        &LayerSamples::join_input_rows,   &LayerSamples::rows_materialized,
        &LayerSamples::duplicates_removed};
    for (Samples LayerSamples::*field : all) (this->*field).Merge(o.*field);
    answer_rows += o.answer_rows;
    scanned_rows += o.scanned_rows;
  }
};

struct ColdAnswer {
  std::string cover_key;
  uint64_t fingerprint = 0;
};

/// Answers the canonical form of `query` through the calls
/// QueryAnswerer::AnswerByCover makes (GCov over a timed caching oracle,
/// AssembleJucq, PlanJUCQ, ExecutePlan), timing each as a span of `log`
/// (non-null).
Result<ColdAnswer> ColdPipeline(const QueryAnswerer& answerer,
                                const Query& canonical, SpanLog* log,
                                uint32_t request, LayerSamples* samples) {
  const ConjunctiveQuery& cq = canonical.cq;
  if (cq.atoms.empty() || !cq.IsConnected()) {
    return Status::InvalidArgument("query is not a connected BGP");
  }
  const AnswerOptions options;  // GCov, as the service answers misses.
  CachingCoverCostOracle oracle(cq, canonical.vars, &answerer.reformulator(),
                                &answerer.estimator(), &answerer.evaluator(),
                                options);
  TimedOracle timed(&oracle, log, request);
  CoverSearchResult search;
  {
    ScopedSpan span(log, "optimizer.cover_search", request);
    search = GreedyCoverSearch(cq, &timed, options.optimizer_time_budget_s);
    samples->cover_search_ms.Add(span.End() - timed.ms());
  }
  samples->covers_examined.Add(static_cast<double>(search.covers_examined));
  samples->oracle_ms.Add(timed.ms());
  samples->oracle_calls.Add(static_cast<double>(timed.calls()));
  if (search.best_cover.fragments.empty() ||
      search.best_cost == std::numeric_limits<double>::infinity()) {
    return Status::Internal("cover search found no feasible cover");
  }
  RDFOPT_RETURN_NOT_OK(ValidateCover(cq, search.best_cover));

  VarTable vars;
  JoinOfUnions jucq;
  {
    ScopedSpan span(log, "reformulation.assemble", request);
    RDFOPT_ASSIGN_OR_RETURN(jucq, oracle.AssembleJucq(search.best_cover,
                                                      &vars));
    samples->assemble_ms.Add(span.End());
  }
  size_t union_terms = 0;
  for (const UnionQuery& component : jucq.components) {
    union_terms += component.size();
  }
  samples->union_terms.Add(static_cast<double>(union_terms));

  PhysicalPlan plan;
  {
    ScopedSpan span(log, "engine.plan", request);
    plan = answerer.evaluator().planner().PlanJUCQ(jucq);
    samples->plan_ms.Add(span.End());
  }
  samples->plan_nodes.Add(static_cast<double>(plan.num_nodes));

  EvalMetrics eval;
  Relation rows{std::vector<VarId>{}};
  {
    ScopedSpan span(log, "engine.execute", request);
    RDFOPT_ASSIGN_OR_RETURN(rows,
                            answerer.evaluator().ExecutePlan(&plan, &eval));
    samples->execute_ms.Add(span.End());
  }
  samples->AddEval(eval, rows.num_rows());
  return ColdAnswer{search.best_cover.Key(), RowFingerprint(rows)};
}

/// Equivalence of the traced run: for every query, the re-driven cold
/// pipeline must choose the same cover and produce the same rows as
/// QueryService::Answer under lubm-cold's configuration, or its layer times
/// describe some other program. `service` is reused when the workload is
/// configured like lubm-cold; otherwise a cold one is built over `graph`.
void CheckEquivalence(const Workload& w, Graph* graph, QueryService* service,
                      const OwnStore& own, const EngineProfile& profile,
                      const std::vector<BenchmarkQuery>& queries,
                      SpanLog* log, LayerSamples* samples,
                      RunResult* result) {
  std::unique_ptr<QueryService> cold_owned;
  QueryService* cold = service;
  if (w.cache || w.views || w.feedback) {
    cold_owned = std::make_unique<QueryService>(graph, profile, ColdOptions());
    cold = cold_owned.get();
  }
  QueryAnswerer answerer(&own.data, &own.saturated, &graph->schema(),
                         &graph->vocab(), &own.stats, &profile);
  for (const BenchmarkQuery& q : queries) {
    ++result->attempted;
    Result<Query> parsed = ParseQuery(q.text, &graph->dict());
    if (!parsed.ok()) {
      result->Fail(q.name + ": " + parsed.status().ToString());
      continue;
    }
    Result<ServiceOutcome> served = cold->Answer(parsed.ValueOrDie());
    const CanonicalizedQuery canonical = Canonicalize(parsed.ValueOrDie().cq);
    Result<ColdAnswer> redriven =
        ColdPipeline(answerer, canonical.query, log, 0, samples);
    if (!served.ok() || !redriven.ok()) {
      result->Fail(q.name + " equivalence: " +
                   (served.ok() ? redriven.status() : served.status())
                       .ToString());
      continue;
    }
    samples->queue_wait_ms.Add(served.ValueOrDie().queue_wait_ms);
    if (served.ValueOrDie().chosen_cover.Key() !=
            redriven.ValueOrDie().cover_key ||
        RowFingerprint(served.ValueOrDie().answers) !=
            redriven.ValueOrDie().fingerprint) {
      result->Fail(q.name + " equivalence: the re-driven pipeline diverges "
                   "from QueryService::Answer");
    }
  }
}

// ---------------------------------------------------------------------------
// The load phase.

/// One completed read as the checks need it.
struct ReadRecord {
  uint32_t query = 0;
  Epoch epoch = 0;
  size_t rows = 0;
  uint64_t fingerprint = 0;
};

struct ClientLog {
  std::vector<double> latency_ms;  // Every read, failed ones included.
  std::vector<ReadRecord> reads;   // Successful reads only.
  size_t errors = 0;
  std::vector<std::string> problems;
  LayerSamples layers;
  SpanLog spans;
};

/// How a client answers one query; returns the read's record or an error.
using ReadFn = std::function<Result<ReadRecord>(size_t query, size_t client,
                                                uint32_t request)>;

struct PhaseOutcome {
  std::vector<ClientLog> clients;
  std::vector<double> write_ms;
  size_t write_errors = 0;
  double wall_s = 0.0;
  bool overran = false;
};

/// Runs `clients` closed-loop readers over the seeded query orders, plus a
/// paced writer when `deltas` is non-empty (one write after every
/// `reads_per_write` completed reads; readers run at most one window
/// ahead). Without a writer the phase ends once `seconds` have passed and
/// `min_reads` reads completed; with one, once every delta is applied and
/// one more window of reads completed.
PhaseOutcome RunPhase(size_t clients, uint64_t seed, size_t num_queries,
                      double seconds, size_t min_reads, const ReadFn& read,
                      const std::vector<std::vector<Triple>>& deltas,
                      size_t reads_per_write,
                      const std::function<Status(size_t, uint32_t)>& write,
                      std::atomic<uint32_t>* next_request) {
  PhaseOutcome phase;
  phase.clients.resize(clients);
  std::mutex mu;
  std::condition_variable cv;
  size_t reads_started = 0;  // Guarded by mu.
  size_t reads_done = 0;     // Guarded by mu.
  size_t writes_done = 0;    // Guarded by mu.
  bool stop = false;         // Guarded by mu.
  const bool paced = !deltas.empty();

  const Clock::time_point start = Clock::now();
  auto client_main = [&](size_t c) {
    ClientLog& log = phase.clients[c];
    const std::vector<size_t> order =
        ShuffledOrder(num_queries, seed * 1000003u + c);
    for (size_t i = c;; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return stop || !paced ||
                 reads_started < (writes_done + 2) * reads_per_write;
        });
        if (stop) return;
        ++reads_started;
      }
      const size_t q = order[i % num_queries];
      const uint32_t request = next_request->fetch_add(1) + 1;
      const Clock::time_point t0 = Clock::now();
      Result<ReadRecord> r = read(q, c, request);
      log.latency_ms.push_back(MsSince(t0));
      if (r.ok()) {
        log.reads.push_back(r.ValueOrDie());
      } else {
        ++log.errors;
        if (log.problems.size() < 5) {
          log.problems.push_back("read of query " + std::to_string(q) +
                                 " failed: " + r.status().ToString());
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        ++reads_done;
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(clients + 1);
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client_main, c);
  if (paced) {
    threads.emplace_back([&] {
      for (size_t i = 0; i <= deltas.size(); ++i) {
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return stop || reads_done >= (i + 1) * reads_per_write;
          });
          if (stop) return;
          if (i == deltas.size()) {
            stop = true;
            break;
          }
        }
        const uint32_t request = next_request->fetch_add(1) + 1;
        const Clock::time_point t0 = Clock::now();
        const Status st = write(i, request);
        phase.write_ms.push_back(MsSince(t0));
        if (!st.ok()) ++phase.write_errors;
        {
          std::lock_guard<std::mutex> lock(mu);
          ++writes_done;
        }
        cv.notify_all();
      }
      cv.notify_all();
    });
  }
  // The main thread ends unpaced phases, and stops a run that overruns.
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const double elapsed = MsSince(start) / 1e3;
    std::lock_guard<std::mutex> lock(mu);
    if (stop) break;
    if (elapsed > kRunLimitSeconds) {
      phase.overran = true;
      stop = true;
      break;
    }
    if (!paced && elapsed >= seconds && reads_done >= min_reads) {
      stop = true;
      break;
    }
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  phase.wall_s = MsSince(start) / 1e3;
  return phase;
}

std::vector<double> AllLatencies(const PhaseOutcome& phase) {
  std::vector<double> all;
  for (const ClientLog& c : phase.clients) {
    all.insert(all.end(), c.latency_ms.begin(), c.latency_ms.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

size_t CountReads(const PhaseOutcome& phase) {
  size_t n = 0;
  for (const ClientLog& c : phase.clients) n += c.latency_ms.size();
  return n;
}

/// Folds a phase's errors and answer checks into `result`. Reads at
/// `reference_epoch` must match `reference`; across epochs (only triples
/// are added) a query's row count must never fall, and reads of one epoch
/// must agree.
void CheckPhase(const PhaseOutcome& phase,
                const std::vector<BenchmarkQuery>& queries,
                const std::vector<uint64_t>& reference, Epoch reference_epoch,
                RunResult* result) {
  result->attempted += CountReads(phase) + phase.write_ms.size();
  for (const ClientLog& c : phase.clients) {
    for (size_t i = 0; i < c.errors; ++i) {
      result->Fail(i < c.problems.size() ? c.problems[i] : "read failed");
    }
  }
  for (size_t i = 0; i < phase.write_errors; ++i) result->Fail("write failed");
  if (phase.overran) {
    result->Fail("the run did not finish its work within " +
                 std::to_string(kRunLimitSeconds) + " s");
  }
  std::vector<std::vector<ReadRecord>> by_query(queries.size());
  for (const ClientLog& c : phase.clients) {
    for (const ReadRecord& r : c.reads) {
      if (r.epoch == reference_epoch &&
          r.fingerprint != reference[r.query]) {
        result->Fail(queries[r.query].name + " answer differs from the " +
                     "serial reference at epoch " + std::to_string(r.epoch));
      }
      by_query[r.query].push_back(r);
    }
  }
  for (size_t q = 0; q < by_query.size(); ++q) {
    std::vector<ReadRecord>& reads = by_query[q];
    std::sort(reads.begin(), reads.end(),
              [](const ReadRecord& a, const ReadRecord& b) {
                return a.epoch < b.epoch;
              });
    for (size_t i = 1; i < reads.size(); ++i) {
      const ReadRecord& prev = reads[i - 1];
      const ReadRecord& cur = reads[i];
      if (cur.epoch == prev.epoch && cur.fingerprint != prev.fingerprint) {
        result->Fail(queries[q].name + " gave two answers at epoch " +
                     std::to_string(cur.epoch));
      } else if (cur.rows < prev.rows) {
        result->Fail(queries[q].name + " lost rows between epochs " +
                     std::to_string(prev.epoch) + " and " +
                     std::to_string(cur.epoch));
      }
    }
  }
}

/// After the last write: one pass through the service must match a serial
/// reference over a store rebuilt from the grown graph.
void CheckFinalPass(Graph* graph, QueryService* service,
                    const EngineProfile& profile,
                    const std::vector<BenchmarkQuery>& queries,
                    RunResult* result) {
  const OwnStore rebuilt = BuildOwnStore(*graph, nullptr, nullptr);
  const std::vector<uint64_t> reference =
      ReferenceFingerprints(graph, rebuilt, profile, queries, result);
  for (size_t q = 0; q < queries.size(); ++q) {
    ++result->attempted;
    Result<ServiceOutcome> r = service->AnswerText(queries[q].text);
    if (!r.ok()) {
      result->Fail(queries[q].name + " final pass: " + r.status().ToString());
    } else if (RowFingerprint(r.ValueOrDie().answers) != reference[q]) {
      result->Fail(queries[q].name + " final pass differs from the " +
                   "reference over the rebuilt store");
    }
  }
}

ReadRecord RecordOf(size_t query, const ServiceOutcome& outcome) {
  return ReadRecord{static_cast<uint32_t>(query), outcome.epoch,
                    outcome.answers.num_rows(),
                    RowFingerprint(outcome.answers)};
}

// ---------------------------------------------------------------------------
// Runs.

struct RunArgs {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  size_t seconds = 10;
  bool trace = false;
  std::string spans_path;
};

void PrintContext(const RunArgs& args, const Graph& graph) {
  std::printf("perfbench e2e: workload=%s seed=%llu seconds=%zu trace=%d\n",
              args.workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("build=%s compiler=\"%s\" nproc=%zu universities=%zu "
              "data_triples=%zu\n",
              BuildType(), __VERSION__, Nproc(), kUniversities,
              graph.num_data_triples());
}

/// Median of kSetupRepeats set-ups; returns the last one.
Setup RepeatedSetup(const RunArgs& args, const EngineProfile& profile,
                    const std::vector<BenchmarkQuery>& queries,
                    Samples* setup_s) {
  Setup setup;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    // Free the previous database (service first) before building anew.
    setup.service.reset();
    setup.graph.reset();
    setup = BuildSetup(*args.workload, args.seed, profile, queries, nullptr);
    setup_s->Add(setup.seconds);
  }
  return setup;
}

int RunUntraced(const RunArgs& args) {
  const Workload& w = *args.workload;
  const EngineProfile profile = BenchProfile();
  const std::vector<BenchmarkQuery>& queries = LubmQuerySet();
  RunResult result;

  Samples setup_s;
  Setup setup = RepeatedSetup(args, profile, queries, &setup_s);
  Graph* graph = setup.graph.get();
  QueryService* service = setup.service.get();
  PrintContext(args, *graph);

  // Inputs and reference answers, prepared before the clock starts.
  const std::vector<std::vector<Triple>> deltas = GenerateDeltas(
      *graph, DeltasPerRun(args.seconds), kDeltaTriples, args.seed);
  std::vector<uint64_t> reference;
  {
    const OwnStore own = BuildOwnStore(*graph, nullptr, nullptr);
    reference = ReferenceFingerprints(graph, own, profile, queries, &result);
  }
  // From here on, the peak resident set is the service's run alone, not
  // the benchmark's copy of the store.
  if (!ResetPeakRss()) {
    result.Fail("cannot reset VmHWM through /proc/self/clear_refs");
  }
  const Epoch start_epoch = service->epoch();

  ReadFn read = [&](size_t q, size_t, uint32_t) -> Result<ReadRecord> {
    RDFOPT_ASSIGN_OR_RETURN(ServiceOutcome outcome,
                            service->AnswerText(queries[q].text));
    return RecordOf(q, outcome);
  };
  auto write = [&](size_t i, uint32_t) {
    return service->ApplyUpdate(deltas[i]);
  };
  // lubm-churn interleaves its writes with the reads; the other workloads
  // read the unchanged data, then apply the whole update probe.
  const bool interleaved = w.reads_per_write > 0;
  const std::vector<std::vector<Triple>> no_deltas;
  std::atomic<uint32_t> next_request{0};
  const PhaseOutcome phase = RunPhase(
      w.clients, args.seed, queries.size(), static_cast<double>(args.seconds),
      kMinReads, read, interleaved ? deltas : no_deltas, w.reads_per_write,
      write, &next_request);
  CheckPhase(phase, queries, reference, start_epoch, &result);
  std::vector<double> write_ms = phase.write_ms;
  if (!interleaved) {
    for (const std::vector<Triple>& delta : deltas) {
      ++result.attempted;
      const Clock::time_point t0 = Clock::now();
      const Status st = service->ApplyUpdate(delta);
      write_ms.push_back(MsSince(t0));
      if (!st.ok()) result.Fail("update probe write: " + st.ToString());
    }
  }
  // Read before the final check builds its own copy of the store.
  const double peak_rss_mb = PeakRssMb();
  if (interleaved) CheckFinalPass(graph, service, profile, queries, &result);
  const std::vector<double> reads = AllLatencies(phase);
  const double read_wall_s = phase.wall_s;

  std::sort(write_ms.begin(), write_ms.end());
  const std::vector<double> setups = setup_s.Sorted();
  result.metrics["setup_s"] = {PercentileOf(setups, 50), setups.size()};
  if (!reads.empty()) {
    result.metrics["read_p50_ms"] = {PercentileOf(reads, 50), reads.size()};
    result.metrics["read_qps"] = {
        static_cast<double>(reads.size()) / read_wall_s, reads.size()};
  }
  if (HasTail(reads.size(), 99)) {
    result.metrics["read_p99_ms"] = {PercentileOf(reads, 99), reads.size()};
  } else {
    result.Fail("too few reads for read_p99_ms: " +
                std::to_string(reads.size()));
  }
  if (!write_ms.empty()) {
    result.metrics["update_p50_ms"] = {PercentileOf(write_ms, 50),
                                       write_ms.size()};
  }
  if (HasTail(write_ms.size(), 90)) {
    result.metrics["update_p90_ms"] = {PercentileOf(write_ms, 90),
                                       write_ms.size()};
  } else {
    result.Fail("too few writes for update_p90_ms: " +
                std::to_string(write_ms.size()));
  }
  std::printf("read tail: p%.2f = %.6g ms over %zu reads in %.3f s; "
              "%zu writes\n",
              HighestTailPercentile(reads.size()),
              reads.empty() ? 0.0
                            : PercentileOf(reads, HighestTailPercentile(
                                                      reads.size())),
              reads.size(), read_wall_s, write_ms.size());
  result.metrics["peak_rss_mb"] = {peak_rss_mb, 1};
  return PrintResult(kEndToEnd, std::size(kEndToEnd), result);
}

/// Writes every span as one JSON line.
void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const SpanLog::Span& s : logs[t]->spans()) {
      std::fprintf(out,
                   "{\"thread\":%zu,\"request\":%u,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}\n",
                   t, s.request, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
  }
  std::fclose(out);
}

int RunTraced(const RunArgs& args) {
  const Workload& w = *args.workload;
  const EngineProfile profile = BenchProfile();
  const std::vector<BenchmarkQuery>& queries = LubmQuerySet();
  RunResult result;
  SpanLog main_log;
  LayerTimes times;
  Samples generate_ms;

  Setup setup =
      BuildSetup(w, args.seed, profile, queries, &main_log);
  generate_ms.Add(setup.generate_ms);
  Graph* graph = setup.graph.get();
  QueryService* service = setup.service.get();
  PrintContext(args, *graph);

  const std::vector<std::vector<Triple>> deltas = GenerateDeltas(
      *graph, DeltasPerRun(args.seconds), kDeltaTriples, args.seed);
  OwnStore own = BuildOwnStore(*graph, &main_log, &times);
  const std::vector<uint64_t> reference =
      ReferenceFingerprints(graph, own, profile, queries, &result);
  const Epoch start_epoch = service->epoch();

  LayerSamples main_samples;
  CheckEquivalence(w, graph, service, own, profile, queries, &main_log,
                   &main_samples, &result);

  // Both phases do half the interleaved writes, so the untraced and the
  // traced reads see the same mix.
  const bool interleaved = w.reads_per_write > 0;
  const auto middle = deltas.begin() + static_cast<std::ptrdiff_t>(
                                           interleaved ? deltas.size() / 2 : 0);
  const std::vector<std::vector<Triple>> untraced_deltas(deltas.begin(),
                                                         middle);
  const std::vector<std::vector<Triple>> traced_deltas(
      middle, interleaved ? deltas.end() : middle);
  const double phase_s = static_cast<double>(args.seconds) / 2.0;
  std::atomic<uint32_t> next_request{0};

  // Untraced phase: the workload's own read path, for the overhead base.
  ReadFn plain_read = [&](size_t q, size_t, uint32_t) -> Result<ReadRecord> {
    RDFOPT_ASSIGN_OR_RETURN(ServiceOutcome outcome,
                            service->AnswerText(queries[q].text));
    return RecordOf(q, outcome);
  };
  auto plain_write = [&](size_t i, uint32_t) {
    return service->ApplyUpdate(untraced_deltas[i]);
  };
  PhaseOutcome untraced =
      RunPhase(w.clients, args.seed, queries.size(), phase_s, kMinTracedReads,
               plain_read, untraced_deltas, w.reads_per_write, plain_write,
               &next_request);
  CheckPhase(untraced, queries, reference, start_epoch, &result);
  for (const std::vector<Triple>& delta : untraced_deltas) {
    MirrorUpdate(*graph, delta, &own, nullptr, 0, nullptr);
  }

  // Traced phase.
  const QueryService::Stats before = service->stats();
  std::mutex parse_mu;
  std::optional<QueryAnswerer> cold_answerer;
  if (!w.cache && !w.views) {
    cold_answerer.emplace(&own.data, &own.saturated, &graph->schema(),
                          &graph->vocab(), &own.stats, &profile);
  }
  // One span log and sample set per client: no sharing between threads.
  std::vector<LayerSamples> client_samples(w.clients);
  std::vector<SpanLog> client_logs(w.clients);
  ReadFn traced_read = [&](size_t q, size_t c,
                           uint32_t request) -> Result<ReadRecord> {
    SpanLog* log = &client_logs[c];
    LayerSamples* samples = &client_samples[c];
    ScopedSpan root(log, "request.read", request);
    Result<Query> parsed = [&] {
      std::lock_guard<std::mutex> lock(parse_mu);
      ScopedSpan span(log, "sparql.parse", request);
      Result<Query> r = ParseQuery(queries[q].text, &graph->dict());
      samples->parse_ms.Add(span.End());
      return r;
    }();
    RDFOPT_RETURN_NOT_OK(parsed.status());
    ScopedSpan canon_span(log, "service.canonicalize", request);
    const CanonicalizedQuery canonical = Canonicalize(parsed.ValueOrDie().cq);
    samples->canonicalize_ms.Add(canon_span.End());
    if (cold_answerer.has_value()) {
      RDFOPT_ASSIGN_OR_RETURN(
          ColdAnswer answer,
          ColdPipeline(*cold_answerer, canonical.query, log, request,
                       samples));
      return ReadRecord{static_cast<uint32_t>(q), start_epoch, 0,
                        answer.fingerprint};
    }
    ScopedSpan answer_span(log, "service.answer", request);
    Result<ServiceOutcome> served = service->Answer(parsed.ValueOrDie());
    RDFOPT_RETURN_NOT_OK(served.status());
    const ServiceOutcome& outcome = served.ValueOrDie();
    // The evaluator's own wall clock, as a child of the answer span.
    log->AddMeasured("engine.execute", request, outcome.eval.elapsed_ms);
    samples->answer_ms.Add(answer_span.End());
    samples->queue_wait_ms.Add(outcome.queue_wait_ms);
    samples->execute_ms.Add(outcome.eval.elapsed_ms);
    samples->AddEval(outcome.eval, outcome.answers.num_rows());
    return RecordOf(q, outcome);
  };
  SpanLog writer_log;
  LayerSamples writer_samples;
  auto apply_traced = [&](const std::vector<Triple>& delta,
                          uint32_t request) -> Status {
    ScopedSpan root(&writer_log, "request.write", request);
    Status st;
    {
      // AnswerText parses under the lock ApplyUpdate holds, so traced
      // parses wait behind a write just as untraced ones do.
      std::lock_guard<std::mutex> lock(parse_mu);
      ScopedSpan span(&writer_log, "service.apply_update", request);
      st = service->ApplyUpdate(delta);
      writer_samples.apply_ms.Add(span.End());
    }
    MirrorUpdate(*graph, delta, &own, &writer_log, request, &times);
    return st;
  };
  auto traced_write = [&](size_t i, uint32_t request) {
    return apply_traced(traced_deltas[i], request);
  };
  PhaseOutcome traced =
      RunPhase(w.clients, args.seed + 1, queries.size(), phase_s,
               kMinTracedReads, traced_read, traced_deltas,
               w.reads_per_write, traced_write, &next_request);
  const QueryService::Stats after = service->stats();
  CheckPhase(traced, queries, reference, start_epoch, &result);
  if (interleaved) {
    CheckFinalPass(graph, service, profile, queries, &result);
  } else {
    cold_answerer.reset();  // The mirror updates replace its store.
    for (const std::vector<Triple>& delta : deltas) {
      ++result.attempted;
      const Status st = apply_traced(delta, next_request.fetch_add(1) + 1);
      if (!st.ok()) result.Fail("update probe write: " + st.ToString());
    }
  }

  // Aggregate.
  LayerSamples all = main_samples;
  for (const LayerSamples& s : client_samples) all.Merge(s);
  all.Merge(writer_samples);
  auto mean = [&](const char* name, const Samples& s) {
    result.metrics[name] = {s.Mean(), s.n()};
  };
  mean("sparql.parse_ms", all.parse_ms);
  mean("service.canonicalize_ms", all.canonicalize_ms);
  mean("service.answer_ms", all.answer_ms);
  mean("service.queue_wait_ms", all.queue_wait_ms);
  mean("service.apply_update_ms", all.apply_ms);
  mean("optimizer.cover_search_ms", all.cover_search_ms);
  mean("optimizer.covers_examined", all.covers_examined);
  mean("cost.oracle_ms", all.oracle_ms);
  mean("cost.oracle_calls", all.oracle_calls);
  mean("reformulation.assemble_ms", all.assemble_ms);
  mean("reformulation.union_terms", all.union_terms);
  mean("engine.plan_ms", all.plan_ms);
  mean("engine.plan_nodes", all.plan_nodes);
  mean("engine.execute_ms", all.execute_ms);
  mean("engine.rows_scanned", all.rows_scanned);
  mean("engine.hash_probes", all.hash_probes);
  mean("engine.join_input_rows", all.join_input_rows);
  mean("engine.rows_materialized", all.rows_materialized);
  mean("engine.duplicates_removed", all.duplicates_removed);
  result.metrics["engine.answer_yield"] = {
      all.scanned_rows > 0 ? all.answer_rows / all.scanned_rows : 0.0,
      all.rows_scanned.n()};
  mean("storage.build_ms", times.build_ms);
  mean("storage.merge_ms", times.merge_ms);
  mean("storage.statistics_ms", times.statistics_ms);
  mean("reasoner.saturate_ms", times.saturate_ms);
  mean("reasoner.incremental_saturate_ms", times.incremental_saturate_ms);
  mean("workload.generate_ms", generate_ms);

  const uint64_t lookups = (after.cache.hits + after.cache.misses) -
                           (before.cache.hits + before.cache.misses);
  result.metrics["service.cache_hit_rate"] = {
      lookups == 0 ? 0.0
                   : static_cast<double>(after.cache.hits -
                                         before.cache.hits) /
                         static_cast<double>(lookups),
      lookups};
  result.metrics["service.shed"] = {
      static_cast<double>(after.admission.shed - before.admission.shed),
      CountReads(traced)};
  const QueryService::Stats final_stats = service->stats();
  result.metrics["views.hit_rate"] = {
      final_stats.views.lookups == 0
          ? 0.0
          : static_cast<double>(final_stats.views.hits) /
                static_cast<double>(final_stats.views.lookups),
      final_stats.views.lookups};
  result.metrics["views.bytes"] = {static_cast<double>(final_stats.views.bytes),
                                   1};
  result.metrics["views.evictions"] = {
      static_cast<double>(final_stats.views.evictions), 1};
  result.metrics["views.refreshes"] = {
      static_cast<double>(final_stats.views.refreshes), 1};

  // Self time per layer, per traced read and per traced write.
  std::map<std::string, double> read_self;
  for (const SpanLog& log : client_logs) {
    for (const auto& [layer, ms] : log.SelfMsByLayer()) read_self[layer] += ms;
  }
  const size_t traced_reads = CountReads(traced);
  for (const char* layer : {"sparql", "service", "optimizer", "cost",
                            "reformulation", "engine"}) {
    result.metrics["self.read." + std::string(layer) + "_ms"] = {
        traced_reads == 0 ? 0.0 : read_self[layer] / traced_reads,
        traced_reads};
  }
  std::unordered_map<std::string, double> write_self =
      writer_log.SelfMsByLayer();
  const size_t traced_writes = writer_samples.apply_ms.n();
  for (const char* layer : {"service", "storage", "reasoner"}) {
    result.metrics["self.write." + std::string(layer) + "_ms"] = {
        traced_writes == 0 ? 0.0 : write_self[layer] / traced_writes,
        traced_writes};
  }

  const std::vector<double> base = AllLatencies(untraced);
  const std::vector<double> with_spans = AllLatencies(traced);
  if (base.empty() || with_spans.empty()) {
    result.Fail("a phase completed no reads");
  } else {
    const double base_p50 = PercentileOf(base, 50);
    const double traced_p50 = PercentileOf(with_spans, 50);
    result.metrics["tracing.untraced_read_p50_ms"] = {base_p50, base.size()};
    result.metrics["tracing.traced_read_p50_ms"] = {traced_p50,
                                                    with_spans.size()};
    result.metrics["tracing.overhead_ms"] = {traced_p50 - base_p50,
                                             with_spans.size()};
  }

  std::vector<const SpanLog*> logs = {&main_log, &writer_log};
  for (const SpanLog& log : client_logs) logs.push_back(&log);
  WriteSpans(args.spans_path, logs);
  return PrintResult(kPerLayer, std::size(kPerLayer), result);
}

// ---------------------------------------------------------------------------
// Describe.

void PrintJsonString(const char* s) {
  std::putchar('"');
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') std::putchar('\\');
    std::putchar(*p);
  }
  std::putchar('"');
}

void Describe() {
  std::printf("{\"scale\": {\"generator\": \"GenerateLubm\", "
              "\"universities\": %zu, \"queries\": %zu, "
              "\"delta_triples\": %zu, \"setup_repeats\": %zu, "
              "\"min_reads\": %zu, \"profile\": \"Vectorized("
              "PostgresLikeProfile()) with tuple_us_per_row, "
              "materialization_us_per_row and union_term_overhead_us zeroed, "
              "worker_threads 1, hierarchy_ranges off\"},\n",
              kUniversities, LubmQuerySet().size(), kDeltaTriples,
              kSetupRepeats, kMinReads);
  std::printf(" \"workloads\": [");
  for (size_t i = 0; i < std::size(kWorkloads); ++i) {
    const Workload& w = kWorkloads[i];
    std::printf("%s\n  {\"name\": ", i == 0 ? "" : ",");
    PrintJsonString(w.name);
    std::printf(", \"why\": ");
    PrintJsonString(w.why);
    std::printf(", \"loop\": \"closed\", \"clients\": %zu, \"writers\": %zu, "
                "\"cache\": %s, \"views\": %s, \"feedback\": %s, ",
                w.clients, w.writers, w.cache ? "true" : "false",
                w.views ? "true" : "false", w.feedback ? "true" : "false");
    if (w.reads_per_write > 0) {
      std::printf("\"writes\": \"interleaved: one write after every %zu "
                  "completed reads, %zu per second of --seconds (at least "
                  "%zu)\", ",
                  w.reads_per_write, kWritesPerSecond, kMinWrites);
    } else {
      std::printf("\"writes\": \"update probe: after the last read, %zu "
                  "writes per second of --seconds (at least %zu) back to "
                  "back\", ",
                  kWritesPerSecond, kMinWrites);
    }
    std::printf("\"stresses\": ");
    PrintJsonString(w.stresses);
    std::printf("}");
  }
  std::printf("\n ],\n \"end_to_end\": [");
  for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
    std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                kEndToEnd[i].name, kEndToEnd[i].unit);
  }
  std::printf("],\n \"per_layer\": [");
  for (size_t i = 0; i < std::size(kPerLayer); ++i) {
    std::printf("%s\n  {\"name\": \"%s\", \"unit\": \"%s\"}",
                i == 0 ? "" : ",", kPerLayer[i].name, kPerLayer[i].unit);
  }
  std::printf("\n ]\n}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\n"
               "       e2e_bench --describe\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--describe") {
      Describe();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtoull(value, nullptr, 10);
    } else if (arg == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--spans") {
      args.spans_path = value;
    } else {
      return Usage();
    }
  }
  args.workload = FindWorkload(workload);
  if (args.workload == nullptr || args.seconds == 0) return Usage();
  const std::string refused = GuardConditions(*args.workload, BenchProfile());
  if (!refused.empty()) {
    std::fprintf(stderr, "e2e_bench: refusing to run: %s\n", refused.c_str());
    return 3;
  }
  return args.trace ? RunTraced(args) : RunUntraced(args);
}

}  // namespace
}  // namespace rdfopt::perfbench

int main(int argc, char** argv) { return rdfopt::perfbench::Main(argc, argv); }
