#include "engine/evaluator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "cost/feedback.h"
#include "engine/operators.h"

namespace rdfopt {

namespace {
/// Registry epilogue of one Evaluate* call: the counter deltas it produced
/// plus its latency observation. `before` is the caller-supplied struct's
/// state at entry (callers may pass an accumulating EvalMetrics).
void RecordEngineMetrics(const EvalMetrics& after, const EvalMetrics& before) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  static MetricCounter* evaluations =
      registry.GetCounter("engine.evaluations");
  static MetricCounter* rows_scanned =
      registry.GetCounter("engine.rows_scanned");
  static MetricCounter* join_input_rows =
      registry.GetCounter("engine.join_input_rows");
  static MetricCounter* hash_probes =
      registry.GetCounter("engine.hash_probes");
  static MetricCounter* union_terms =
      registry.GetCounter("engine.union_terms");
  static MetricCounter* rows_materialized =
      registry.GetCounter("engine.rows_materialized");
  static MetricCounter* bytes_materialized =
      registry.GetCounter("engine.bytes_materialized");
  static MetricCounter* duplicates_removed =
      registry.GetCounter("engine.duplicates_removed");
  static MetricHistogram* evaluate_ms =
      registry.GetHistogram("engine.evaluate_ms");
  // The windowed twin of engine.evaluate_ms: p99 over the last minute, the
  // alerting-grade signal exported via `!prom` (see DESIGN.md §8).
  static MetricWindowedHistogram* evaluate_ms_window =
      registry.GetWindowedHistogram("engine.evaluate_ms");
  evaluations->Increment();
  rows_scanned->Add(after.rows_scanned - before.rows_scanned);
  join_input_rows->Add(after.join_input_rows - before.join_input_rows);
  hash_probes->Add(after.hash_probes - before.hash_probes);
  union_terms->Add(after.union_terms - before.union_terms);
  rows_materialized->Add(after.rows_materialized - before.rows_materialized);
  bytes_materialized->Add(after.bytes_materialized -
                          before.bytes_materialized);
  duplicates_removed->Add(after.duplicates_removed -
                          before.duplicates_removed);
  evaluate_ms->Observe(after.elapsed_ms - before.elapsed_ms);
  evaluate_ms_window->Observe(after.elapsed_ms - before.elapsed_ms);
}

bool IsConstantAtom(const TriplePattern& atom) {
  return !atom.s.is_var() && !atom.p.is_var() && !atom.o.is_var();
}

/// A zero-arity relation with a single (true) row.
Relation TrueRow() {
  Relation rel{std::vector<VarId>{}};
  rel.AppendEmptyRow();
  return rel;
}

void NoteResult(PlanNode* node, const Relation& rel) {
  node->actual_rows = rel.num_rows();
  node->executed = true;
}

// Always-on per-operator accounting (ISSUE 6): every executed plan carries
// per-node wall time and resource counters, not just EXPLAIN ANALYZE runs.
// RDFOPT_DISABLE_NODE_TELEMETRY compiles the whole substrate out — the
// baseline build of the overhead benchmark (BENCH_observability.json), never
// the shipping configuration. Safe under the parallel executor: each plan
// node is executed by exactly one task (the same invariant NoteResult's
// actual_rows writes rely on).
#ifndef RDFOPT_DISABLE_NODE_TELEMETRY
inline constexpr bool kNodeTelemetry = true;

/// Scope timer writing the node's subtree wall time on destruction.
class NodeTimer {
 public:
  explicit NodeTimer(PlanNode* node) : node_(node) {}
  ~NodeTimer() { node_->actual_ms = timer_.ElapsedMillis(); }

 private:
  PlanNode* node_;
  Stopwatch timer_;
};
#else
inline constexpr bool kNodeTelemetry = false;

class NodeTimer {
 public:
  explicit NodeTimer(PlanNode*) {}
};
#endif
}  // namespace

Status Evaluator::CheckTimeout(const Exec& exec) const {
  // One shared deadline and one cancellation flag per query: every worker
  // task polls both here, so a timeout or a failure anywhere drains the
  // whole query promptly (first-error-wins; kCancelled never outranks the
  // root cause, see WorkerPool::ParallelFor).
  if (exec.shared->cancelled.load(std::memory_order_acquire)) {
    return Status::Cancelled("evaluation abandoned after a concurrent "
                             "failure on " + profile_->name);
  }
  if (exec.shared->timer.ElapsedSeconds() > profile_->timeout_seconds) {
    return Status::Timeout("query exceeded the " +
                           std::to_string(profile_->timeout_seconds) +
                           "s timeout on " + profile_->name);
  }
  return Status::OK();
}

WorkerPool* Evaluator::pool() const {
  const size_t threads = profile_->worker_threads;
  if (threads <= 1) return nullptr;
  // The coordinator itself executes tasks (help-first scheduling), so a
  // total parallelism of N needs N-1 pool workers.
  if (pool_ == nullptr || pool_->num_threads() != threads - 1) {
    pool_ = std::make_shared<WorkerPool>(threads - 1);
  }
  return pool_.get();
}

void Evaluator::SpinFor(double micros) {
  if (micros <= 0.0) return;
  Stopwatch sw;
  while (sw.ElapsedMicros() < static_cast<int64_t>(micros)) {
    // Busy wait: emulated fixed plan overhead must consume real time.
  }
}

void Evaluator::WaitFor(double micros) {
  if (micros <= 0.0) return;
  // The OS overshoots sub-millisecond sleeps by ~100-150us; sleep to within
  // the slack, then spin the precise remainder.
  constexpr double kSlackUs = 400.0;
  Stopwatch sw;
  for (;;) {
    double remaining = micros - static_cast<double>(sw.ElapsedMicros());
    if (remaining <= kSlackUs) break;
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(remaining - kSlackUs)));
  }
  while (sw.ElapsedMicros() < static_cast<int64_t>(micros)) {
  }
}

void Evaluator::ChargeEmulated(Exec* exec, double micros) {
  if (exec->debt != nullptr) {
    *exec->debt += micros;
  } else {
    SpinFor(micros);
  }
}

Status Evaluator::ChargeMaterialization(const Relation& rel,
                                        Exec* exec) const {
  exec->metrics->rows_materialized += rel.num_rows();
  // The memory budget is one atomic cell counter shared by all workers of
  // the query, so concurrent materializations are charged exactly once each.
  const size_t charged =
      exec->shared->materialized_cells.fetch_add(
          rel.num_cells(), std::memory_order_relaxed) +
      rel.num_cells();
  if (charged > profile_->max_materialized_cells) {
    return Status::ResourceExhausted(
        "materialized intermediates exceed the memory budget of " +
        std::to_string(profile_->max_materialized_cells) + " cells on " +
        profile_->name);
  }
  // Physical emulation of engines that spool intermediates (see
  // EngineProfile::materialization_us_per_row).
  ChargeEmulated(exec, profile_->materialization_us_per_row *
                           static_cast<double>(rel.num_rows()));
  return Status::OK();
}

Result<RelHandle> Evaluator::ExecAtomScan(PlanNode* node, Exec* exec) const {
  const TriplePattern& atom = node->atom;
  if (IsConstantAtom(atom)) {
    // Boolean existence guard: a point lookup, free of charge (neither
    // metrics nor emulated per-tuple work — the engine folds constant
    // filters into plan constants).
    Relation out{std::vector<VarId>{}};
    if (store_->CountMatches(atom.s.value(), atom.p.value(),
                             atom.o.value()) > 0) {
      out.AppendEmptyRow();
    }
    NoteResult(node, out);
    return RelHandle(std::move(out));
  }
  RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
  TraceSpan span("op.scan");
  span.Attr("node", node->id);
  size_t scan_size = ScanAtomInputSize(*store_, atom);
  exec->metrics->rows_scanned += scan_size;
  if constexpr (kNodeTelemetry) node->rows_scanned = scan_size;
  // The pipelined driving scan pays per-tuple executor overhead by itself;
  // a scan feeding a hash join is charged at the join.
  if (node->driving_scan) {
    ChargeEmulated(exec, profile_->tuple_us_per_row *
                             static_cast<double>(scan_size));
  }
  Relation out = ScanAtom(*store_, atom);
  span.Attr("rows_scanned", scan_size);
  span.Attr("output_rows", out.num_rows());
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Result<RelHandle> Evaluator::ExecSharedRef(PlanNode* node, Exec* exec) const {
  const std::vector<Relation>* rels = exec->shared->shared_rels;
  if (rels == nullptr || node->shared_index < 0 ||
      static_cast<size_t>(node->shared_index) >= rels->size()) {
    return Status::Internal("SharedRef #" + std::to_string(node->shared_index) +
                            " has no materialized shared subplan");
  }
  // No charges, no counters: the shared subplan's work was accounted once,
  // when the coordinator executed it (EXPLAIN ANALYZE attribution contract).
  const Relation& rel = (*rels)[static_cast<size_t>(node->shared_index)];
  NoteResult(node, rel);
  return RelHandle(&rel);
}

Result<RelHandle> Evaluator::ExecIndexJoin(PlanNode* node, Exec* exec) const {
  RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
  RDFOPT_ASSIGN_OR_RETURN(RelHandle left_handle,
                          ExecNode(node->children[0].get(), exec));
  const Relation& left = left_handle.get();
  if (left.num_rows() == 0) {
    // Short-circuit: an empty intermediate ends the chain; the atom is
    // never probed.
    Relation out{node->out_columns};
    NoteResult(node, out);
    return RelHandle(std::move(out));
  }
  TraceSpan span("op.index_join");
  span.Attr("node", node->id);
  size_t probed = 0;
  size_t driving = left.num_rows();
  Relation out = IndexJoinAtom(*store_, left, node->atom, &probed);
  exec->metrics->join_input_rows += driving + probed;
  exec->metrics->hash_probes += driving;
  if constexpr (kNodeTelemetry) {
    node->rows_scanned = probed;   // Index rows read by the probes.
    node->hash_probes = driving;   // One probe lookup per driving row.
  }
  ChargeEmulated(exec, profile_->tuple_us_per_row *
                           static_cast<double>(driving + probed));
  span.Attr("join_input_rows", driving + probed);
  span.Attr("output_rows", out.num_rows());
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Result<RelHandle> Evaluator::ExecHashJoin(PlanNode* node, Exec* exec) const {
  RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
  std::optional<RelHandle> left;
  std::optional<RelHandle> right;
  if (node->component_join && exec->shared->pool != nullptr) {
    // Component UCQs are independent subqueries: evaluate both sides of the
    // engine.join concurrently (the caller runs the left subtree itself).
    RDFOPT_RETURN_NOT_OK(
        ExecComponentChildrenParallel(node, exec, &left, &right));
  } else {
    RDFOPT_ASSIGN_OR_RETURN(RelHandle l, ExecNode(node->children[0].get(),
                                                  exec));
    left.emplace(std::move(l));
    if (!node->component_join) {
      if (left->get().num_rows() == 0) {
        // Short-circuit within a disjunct: skip the right subtree entirely
        // (its nodes keep executed == false).
        Relation out{node->out_columns};
        NoteResult(node, out);
        return RelHandle(std::move(out));
      }
      if (left->get().columns().empty()) {
        // Passed boolean guard: forward the right side unchanged, free of
        // charge — the guard never materializes as a join at runtime.
        RDFOPT_ASSIGN_OR_RETURN(RelHandle out,
                                ExecNode(node->children[1].get(), exec));
        NoteResult(node, out.get());
        return out;
      }
    }
    RDFOPT_ASSIGN_OR_RETURN(RelHandle r, ExecNode(node->children[1].get(),
                                                  exec));
    right.emplace(std::move(r));
  }
  RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
  // Component joins are engine.join steps of the JUCQ combination; joins
  // within a disjunct are op.hash_join.
  TraceSpan span(node->component_join ? "engine.join" : "op.hash_join");
  span.Attr("node", node->id);
  const Relation& lrel = left->get();
  const Relation& rrel = right->get();
  size_t inputs = lrel.num_rows() + rrel.num_rows();
  // The build side is the smaller input, so the probe side is the larger.
  size_t probes = std::max(lrel.num_rows(), rrel.num_rows());
  exec->metrics->join_input_rows += inputs;
  exec->metrics->hash_probes += probes;
  if constexpr (kNodeTelemetry) {
    node->rows_scanned = inputs;
    node->hash_probes = probes;
  }
  ChargeEmulated(exec, profile_->tuple_us_per_row * static_cast<double>(inputs));
  Relation out = HashJoin(lrel, rrel);
  span.Attr("join_input_rows", inputs);
  span.Attr("output_rows", out.num_rows());
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Status Evaluator::ExecComponentChildrenParallel(
    PlanNode* node, Exec* exec, std::optional<RelHandle>* left,
    std::optional<RelHandle>* right) const {
  TraceSession* parent_session = TraceSession::Current();
  struct TaskOut {
    EvalMetrics metrics;
    std::optional<TraceSession> trace;
    double trace_base_ms = 0.0;
    std::optional<RelHandle> rel;
  };
  std::vector<TaskOut> outs(2);
  auto run_child = [&](size_t i) -> Status {
    TaskOut& out = outs[i];
    Exec local;
    local.shared = exec->shared;
    local.metrics = &out.metrics;
    // Both component subtrees run as worker tasks, so their emulated engine
    // work becomes overlappable debt (paid once at task end — a component
    // is one "connection's" worth of latency).
    double debt = 0.0;
    local.debt = &debt;
    std::optional<ScopedTraceSession> scoped;
    if (parent_session != nullptr) {
      out.trace_base_ms = parent_session->ElapsedMillis();
      out.trace.emplace();
      scoped.emplace(&*out.trace);
    }
    Result<RelHandle> r = ExecNode(node->children[i].get(), &local);
    WaitFor(debt);
    if (!r.ok()) {
      if (r.status().code() != StatusCode::kCancelled) {
        exec->shared->cancelled.store(true, std::memory_order_release);
      }
      return r.status();
    }
    out.rel.emplace(r.TakeValue());
    return Status::OK();
  };
  Status st = exec->shared->pool->ParallelFor(2, run_child);
  // Deterministic merge: left subtree's spans and counters first, exactly
  // the order the sequential executor records them in.
  for (TaskOut& out : outs) {
    if (parent_session != nullptr && out.trace.has_value()) {
      parent_session->AdoptChildSpans(*out.trace, out.trace_base_ms);
    }
    exec->metrics->Accumulate(out.metrics);
  }
  RDFOPT_RETURN_NOT_OK(st);
  *left = std::move(outs[0].rel);
  *right = std::move(outs[1].rel);
  return Status::OK();
}

Result<RelHandle> Evaluator::ExecUnionAll(PlanNode* node, Exec* exec) const {
  if (node->over_limit) {
    return Status::QueryTooComplex(
        UnionLimitMessage(node->union_terms, *profile_));
  }
  exec->metrics->union_terms += node->union_terms;

  if (exec->shared->pool != nullptr && node->parallel_safe &&
      node->children.size() > 1) {
    return ExecUnionAllParallel(node, exec);
  }

  Relation acc{std::vector<VarId>(node->head)};
  for (size_t i = 0; i < node->children.size(); ++i) {
    RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
    // Per-union-term plan setup overhead (profile emulation). Charged
    // exactly once per term on whichever thread executes it, so the total
    // charged work — and the cost model's per-term c_union_term estimate —
    // is independent of worker_threads; only wall-clock shrinks.
    ChargeEmulated(exec, profile_->union_term_overhead_us);
    RDFOPT_ASSIGN_OR_RETURN(RelHandle rel, ExecNode(node->children[i].get(),
                                                    exec));
    // Per-tuple executor overhead for rows appended to the union.
    ChargeEmulated(exec, profile_->tuple_us_per_row *
                             static_cast<double>(rel.get().num_rows()));
    ProjectInto(&acc, rel.get(), node->disjuncts[i].head_bindings);
  }
  NoteResult(node, acc);
  return RelHandle(std::move(acc));
}

Result<RelHandle> Evaluator::ExecUnionAllParallel(PlanNode* node,
                                                  Exec* exec) const {
  const size_t n = node->children.size();
  const size_t morsel = std::max<size_t>(1, node->morsel_size);
  const size_t num_tasks = (n + morsel - 1) / morsel;
  TraceSession* parent_session = TraceSession::Current();

  struct TaskOut {
    std::optional<Relation> acc;  ///< This morsel's union accumulator.
    EvalMetrics metrics;
    std::optional<TraceSession> trace;
    double trace_base_ms = 0.0;
  };
  std::vector<TaskOut> outs(num_tasks);

  auto run_morsel = [&](size_t m) -> Status {
    TaskOut& out = outs[m];
    Exec local;
    local.shared = exec->shared;
    local.metrics = &out.metrics;
    std::optional<ScopedTraceSession> scoped;
    if (parent_session != nullptr) {
      // Worker spans land in a scratch buffer stamped against the parent
      // timeline; the coordinator adopts them in morsel order below.
      out.trace_base_ms = parent_session->ElapsedMillis();
      out.trace.emplace();
      scoped.emplace(&*out.trace);
    }
    // Emulated engine work of this morsel accumulates as debt and is paid
    // in batched timed waits: concurrent morsels overlap their waits the
    // way parallel engine connections overlap their latencies, so the query
    // speeds up even when workers outnumber cores. The per-term amounts
    // charged are exactly the sequential loop's.
    double debt = 0.0;
    local.debt = &debt;
    constexpr double kFlushDebtUs = 4000.0;
    Status st = [&]() -> Status {
      Relation acc{std::vector<VarId>(node->head)};
      const size_t begin = m * morsel;
      const size_t end = std::min(n, begin + morsel);
      for (size_t i = begin; i < end; ++i) {
        RDFOPT_RETURN_NOT_OK(CheckTimeout(local));
        ChargeEmulated(&local, profile_->union_term_overhead_us);
        RDFOPT_ASSIGN_OR_RETURN(RelHandle rel,
                                ExecNode(node->children[i].get(), &local));
        ChargeEmulated(&local, profile_->tuple_us_per_row *
                                   static_cast<double>(rel.get().num_rows()));
        ProjectInto(&acc, rel.get(), node->disjuncts[i].head_bindings);
        if (debt >= kFlushDebtUs) {
          WaitFor(debt);
          debt = 0.0;
        }
      }
      out.acc.emplace(std::move(acc));
      return Status::OK();
    }();
    WaitFor(debt);
    if (!st.ok() && st.code() != StatusCode::kCancelled) {
      // First-error-wins across every concurrent batch of this query.
      exec->shared->cancelled.store(true, std::memory_order_release);
    }
    return st;
  };
  Status st = exec->shared->pool->ParallelFor(num_tasks, run_morsel);

  // The merge is sequential and in morsel index order: rows, metrics and
  // trace spans come out exactly as the worker_threads=1 loop produces them
  // (trace buffers are adopted even after a failure, so a partial trace
  // still shows what ran).
  for (TaskOut& out : outs) {
    if (parent_session != nullptr && out.trace.has_value()) {
      parent_session->AdoptChildSpans(*out.trace, out.trace_base_ms);
    }
    exec->metrics->Accumulate(out.metrics);
  }
  RDFOPT_RETURN_NOT_OK(st);

  Relation acc{std::vector<VarId>(node->head)};
  size_t total_rows = 0;
  for (const TaskOut& out : outs) total_rows += out.acc->num_rows();
  acc.Reserve(total_rows);
  for (const TaskOut& out : outs) acc.Append(*out.acc);
  NoteResult(node, acc);
  return RelHandle(std::move(acc));
}

Result<RelHandle> Evaluator::ExecProject(PlanNode* node, Exec* exec) const {
  RelHandle in{TrueRow()};  // The atom-less (always true) conjunction.
  if (!node->children.empty()) {
    RDFOPT_ASSIGN_OR_RETURN(in, ExecNode(node->children[0].get(), exec));
  }
  Relation out = ProjectWithBindings(in.get(), node->head, node->bindings);
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Result<RelHandle> Evaluator::ExecViewScan(PlanNode* node, Exec* exec) const {
  RDFOPT_RETURN_NOT_OK(CheckTimeout(*exec));
  if (node->view_rows == nullptr) {
    return Status::Internal("ViewScan #" + std::to_string(node->id) +
                            " has no materialized rows pinned");
  }
  static MetricCounter* scans =
      MetricsRegistry::Global().GetCounter("views.scans");
  static MetricCounter* scan_rows =
      MetricsRegistry::Global().GetCounter("views.scan_rows");
  TraceSpan span("op.view_scan");
  span.Attr("node", node->id);
  const Relation& stored = *node->view_rows;
  // Re-label the stored columns with this plan's VarIds: the signature
  // guarantees arity and column order match, only the labels differ.
  Relation out{node->out_columns};
  if (stored.num_rows() > 0) {
    ValueId* cells = out.AppendUninitialized(stored.num_rows());
    if (cells != nullptr) {  // Null for zero-arity (rows are just counted).
      std::memcpy(cells, stored.cells_data(),
                  stored.num_cells() * sizeof(ValueId));
    }
  }
  // Reading the materialized result costs one pass over its rows, like any
  // other driving scan — the emulated engine still touches the data once.
  ChargeEmulated(exec, profile_->tuple_us_per_row *
                           static_cast<double>(out.num_rows()));
  scans->Increment();
  scan_rows->Add(out.num_rows());
  span.Attr("output_rows", out.num_rows());
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Result<RelHandle> Evaluator::ExecDedup(PlanNode* node, Exec* exec) const {
  // Component roots carry the per-component UCQ span: its counter
  // attributes are the deltas this component contributed, so per-span
  // accounting rolls up exactly into the lump-sum EvalMetrics the caller
  // receives. The span covers the whole component, error paths included.
  std::optional<TraceSpan> span;
  EvalMetrics before;
  if (node->component >= 0) {
    span.emplace("engine.ucq");
    span->Attr("node", node->id);
    if (span->active()) before = *exec->metrics;
  }
  RDFOPT_ASSIGN_OR_RETURN(RelHandle handle, ExecNode(node->children[0].get(),
                                                     exec));
  // Dedup mutates in place, so it needs ownership (its child is a union or
  // projection — always owned in practice; a borrowed input would copy).
  Relation out = std::move(handle).Take();
  // A substituted component's rows are this dedup's own harvested output,
  // distinct by construction; Deduplicate is stable, so skipping the re-hash
  // is bit-identical, not just set-equal.
  if (node->children[0]->kind != PlanNodeKind::kViewScan) {
    exec->metrics->duplicates_removed +=
        out.Deduplicate();
  }
  // Opportunistic view harvest (DESIGN.md §14): a component root whose
  // signature was stamped at plan time (no catalog hit then) offers its
  // freshly deduplicated result for admission. A substituted component
  // (kViewScan child) is already materialized — nothing to offer.
  if (views_ != nullptr && !node->view_signature.empty() &&
      node->children[0]->kind != PlanNodeKind::kViewScan) {
    views_->Offer(node->view_signature, out);
  }
  if (span.has_value() && span->active()) {
    const EvalMetrics& m = *exec->metrics;
    PlanNode* child = node->children[0].get();
    span->Attr("union_terms", child->kind == PlanNodeKind::kUnionAll ||
                                      child->kind == PlanNodeKind::kViewScan
                                  ? child->union_terms
                                  : size_t{0});
    span->Attr("rows_scanned", m.rows_scanned - before.rows_scanned);
    span->Attr("join_input_rows",
               m.join_input_rows - before.join_input_rows);
    span->Attr("duplicates_removed",
               m.duplicates_removed - before.duplicates_removed);
    span->Attr("output_rows", out.num_rows());
  }
  NoteResult(node, out);
  return RelHandle(std::move(out));
}

Result<RelHandle> Evaluator::ExecMaterialize(PlanNode* node,
                                             Exec* exec) const {
  RDFOPT_ASSIGN_OR_RETURN(RelHandle out, ExecNode(node->children[0].get(),
                                                  exec));
  TraceSpan span("engine.materialize");
  span.Attr("node", node->id);
  span.Attr("rows_materialized", out.get().num_rows());
  const size_t bytes = out.get().num_cells() * sizeof(ValueId);
  exec->metrics->bytes_materialized += bytes;
  if constexpr (kNodeTelemetry) node->bytes_materialized = bytes;
  RDFOPT_RETURN_NOT_OK(ChargeMaterialization(out.get(), exec));
  NoteResult(node, out.get());
  return out;
}

Result<RelHandle> Evaluator::ExecNode(PlanNode* node, Exec* exec) const {
  // Two steady_clock reads per node; the BENCH_observability.json sidecar
  // shows the cost against a RDFOPT_DISABLE_NODE_TELEMETRY build.
  NodeTimer timer(node);
  switch (node->kind) {
    case PlanNodeKind::kAtomScan:
      return ExecAtomScan(node, exec);
    case PlanNodeKind::kIndexJoinAtom:
      return ExecIndexJoin(node, exec);
    case PlanNodeKind::kHashJoin:
      return ExecHashJoin(node, exec);
    case PlanNodeKind::kUnionAll:
      return ExecUnionAll(node, exec);
    case PlanNodeKind::kProject:
      return ExecProject(node, exec);
    case PlanNodeKind::kDedup:
      return ExecDedup(node, exec);
    case PlanNodeKind::kMaterializeBarrier:
      return ExecMaterialize(node, exec);
    case PlanNodeKind::kSharedRef:
      return ExecSharedRef(node, exec);
    case PlanNodeKind::kViewScan:
      return ExecViewScan(node, exec);
  }
  return Status::Internal("unknown plan node kind");
}

Result<Relation> Evaluator::ExecutePlan(PhysicalPlan* plan,
                                        EvalMetrics* metrics) const {
  EvalMetrics scratch;
  Exec::Shared shared;
  shared.pool = pool();  // Null at worker_threads <= 1: purely sequential.
  Exec exec;
  exec.shared = &shared;
  exec.metrics = metrics != nullptr ? metrics : &scratch;
  const EvalMetrics before = *exec.metrics;
  plan->ResetActuals();

  std::optional<TraceSpan> span;
  if (plan->shape == PlanShape::kJucq) {
    span.emplace("engine.jucq");
    span->Attr("components", plan->num_components);
  }
  // An infeasible plan (union over the profile's limit) is rejected before
  // any execution, exactly as the engine would refuse the statement.
  RDFOPT_RETURN_NOT_OK(plan->feasibility);

  // Execute-once shared subplans run first, on the coordinator, so worker
  // tasks can borrow their results read-only. Their scan work, counters and
  // emulated charges are attributed here — exactly once, not per consuming
  // branch.
  std::vector<Relation> shared_rels;
  if (!plan->shared_subplans.empty()) {
    TraceSpan shared_span("engine.shared_subplans");
    shared_span.Attr("count", plan->shared_subplans.size());
    shared_rels.reserve(plan->shared_subplans.size());
    for (auto& subplan : plan->shared_subplans) {
      RDFOPT_ASSIGN_OR_RETURN(RelHandle h, ExecNode(subplan.get(), &exec));
      shared_rels.push_back(std::move(h).Take());
    }
    shared.shared_rels = &shared_rels;
  }

  RDFOPT_ASSIGN_OR_RETURN(RelHandle root_handle,
                          ExecNode(plan->root.get(), &exec));
  Relation out = std::move(root_handle).Take();
  exec.metrics->elapsed_ms += shared.timer.ElapsedMillis();
  if (span.has_value() && span->active()) {
    const EvalMetrics& m = *exec.metrics;
    span->Attr("union_terms", m.union_terms - before.union_terms);
    span->Attr("rows_materialized",
               m.rows_materialized - before.rows_materialized);
    span->Attr("duplicates_removed",
               m.duplicates_removed - before.duplicates_removed);
    span->Attr("output_rows", out.num_rows());
  }
  RecordEngineMetrics(*exec.metrics, before);
  // Close the estimate-feedback loop: the executed disjuncts' actuals are
  // now in the plan nodes; fold them into the store so the next planning of
  // the same fragments starts from observed cardinalities.
  if (feedback_ != nullptr) RecordPlanFeedback(*plan, feedback_);
  return out;
}

Result<Relation> Evaluator::EvaluateCQ(const ConjunctiveQuery& cq,
                                       EvalMetrics* metrics) const {
  PhysicalPlan plan = planner().PlanCQ(cq);
  return ExecutePlan(&plan, metrics);
}

Result<Relation> Evaluator::EvaluateUCQ(const UnionQuery& ucq,
                                        EvalMetrics* metrics) const {
  PhysicalPlan plan = planner().PlanUCQ(ucq);
  return ExecutePlan(&plan, metrics);
}

Result<Relation> Evaluator::EvaluateJUCQ(const JoinOfUnions& jucq,
                                         EvalMetrics* metrics) const {
  PhysicalPlan plan = planner().PlanJUCQ(jucq);
  return ExecutePlan(&plan, metrics);
}

double Evaluator::ExplainCost(const JoinOfUnions& jucq,
                              const CardinalityEstimator& estimator) const {
  PhysicalPlan plan = Planner(&estimator, profile_).PlanJUCQ(jucq);
  if (!plan.feasibility.ok()) {
    return std::numeric_limits<double>::infinity();
  }
  return plan.est_cost();
}

}  // namespace rdfopt
