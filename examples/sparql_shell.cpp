// Interactive SPARQL shell over an RDF database with query-time reasoning:
// the "downstream tool" face of the library. Loads N-Triples from a file or
// generates a synthetic workload, then reads SPARQL queries from stdin.
//
// Usage:
//   sparql_shell data.nt
//   sparql_shell --lubm 2        (2 universities)
//   sparql_shell --dblp 20000    (20000 publications)
//
// Shell commands (a query is everything up to a line ending in '}' or a
// lone ';'):
//   .strategy ucq|scq|ecov|gcov|saturation
//   .prune on|off          data-aware disjunct pruning
//   .minimize on|off       constraint-aware query minimization
//   .subsume on|off        drop disjuncts subsumed by others
//   .explain on|off|analyze  print the physical plan before the answers
//                          (`analyze`: with each node's actual rows)
//   .sql on|off            print the SQL deployment of the JUCQ
//   .trace on|off          print the span tree after each query
//   .threads N             evaluator worker threads, 1..64 (1 = sequential)
//   .vector [N|off]        batch engine with batch size N (default 1024)
//                          and union-subplan factoring, or tuple-at-a-time
//   .verify on|off         verify every physical plan before running it
//                          (engine/plan_verifier.h)
//   .service on|off        route queries through the QueryService front
//                          door (plan cache + admission control)
//   .views on|off          materialized fragment views (DESIGN.md §14):
//                          arms the flag for the next .service on
//   .calibrate             fit the cost-model constants on this machine
//   .stats                 database statistics
//   .help / .quit
// Answers are identical under every .threads/.vector setting.
//
// Every other dot command is an admin command of service/admin.h, the
// table in README "Serving": `.service` (its `stats`), `.views`,
// `.slowlog [N|ms X|clear]`, `.metrics [reset]` and `.prom`. They print
// the same JSON the server's `!` commands return.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "common/trace.h"
#include "cost/calibration.h"
#include "engine/explain.h"
#include "optimizer/answering.h"
#include "reasoner/saturation.h"
#include "service/admin.h"
#include "service/query_service.h"
#include "sparql/parser.h"
#include "sparql/printer.h"
#include "sparql/sql.h"

namespace {

using namespace rdfopt;

/// Upper bound of `.threads N`.
constexpr size_t kMaxThreads = 64;

void PrintAnswers(const Relation& answers, const Dictionary& dict,
                  size_t limit = 20) {
  for (size_t i = 0; i < answers.num_rows() && i < limit; ++i) {
    std::printf("  ");
    for (size_t c = 0; c < answers.arity(); ++c) {
      std::printf("%s%s", c > 0 ? "  " : "",
                  dict.term(answers.at(i, c)).Encoded().c_str());
    }
    if (answers.arity() == 0) std::printf("true");
    std::printf("\n");
  }
  if (answers.num_rows() > limit) {
    std::printf("  ... (%zu rows total)\n", answers.num_rows());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: sparql_shell <file.nt> | --lubm <universities> | "
               "--dblp <publications>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Graph graph;
  const std::vector<std::string> args(argv + 1, argv + argc);
  size_t next = 0;
  Result<std::string> loaded = LoadDataset(args, &next, &graph);
  if (!loaded.ok() || next != args.size()) {
    std::fprintf(stderr, "%s\n", loaded.ok() ? "unexpected arguments"
                                 : loaded.status().ToString().c_str());
    return Usage();
  }
  // PREFIX declarations prepended to every query that declares none.
  const std::string preamble = loaded.TakeValue();
  if (!preamble.empty()) std::printf("Predeclared: %s", preamble.c_str());
  graph.FinalizeSchema();

  TripleStore store = TripleStore::Build(graph.data_triples());
  SaturationResult sat = Saturate(store, graph.schema(), graph.vocab());
  Statistics stats = Statistics::Compute(store);
  EngineProfile profile = PostgresLikeProfile();
  QueryAnswerer answerer(&store, &sat.store, &graph.schema(), &graph.vocab(),
                         &stats, &profile);
  std::printf("%zu data triples, %zu schema constraints. Strategy: GCov. "
              "Type .help for commands.\n",
              store.size(), graph.schema().num_constraints());

  AnswerOptions options;
  bool explain = false;
  bool explain_analyze = false;
  bool emit_sql = false;
  bool trace = false;
  bool enable_views = false;
  std::unique_ptr<QueryService> service;
  TraceSession trace_session;
  // Engine and answering switches reach the service only when it is rebuilt.
  const auto note_service = [&](const char* what) {
    if (service != nullptr) {
      std::printf("note: run .service on again to apply the %s switch to "
                  "the service front door\n", what);
    }
  };
  std::string pending;
  std::string line;
  while (std::printf("rdfopt> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (pending.empty() && !line.empty() && line[0] == '.') {
      std::istringstream cmd(line);
      std::string op, arg;
      cmd >> op >> arg;
      if (op == ".quit" || op == ".exit") break;
      if (op == ".help") {
        std::printf(".strategy ucq|scq|ecov|gcov|saturation | .prune on|off "
                    "| .subsume on|off | .minimize on|off "
                    "| .explain on|off|analyze | .sql on|off | .trace on|off "
                    "| .threads N | .vector [N|off] "
                    "| .verify on|off | .service on|off | .views on|off "
                    "| .calibrate | .stats | .quit\n"
                    "admin commands, printed as JSON (README \"Serving\"): "
                    ".service (its stats) | .views | .slowlog [N|ms X|clear] "
                    "| .metrics [reset] | .prom\n");
      } else if (op == ".strategy") {
        if (arg == "ucq") options.strategy = Strategy::kUcq;
        else if (arg == "scq") options.strategy = Strategy::kScq;
        else if (arg == "ecov") options.strategy = Strategy::kEcov;
        else if (arg == "gcov") options.strategy = Strategy::kGcov;
        else if (arg == "saturation") options.strategy = Strategy::kSaturation;
        else { std::printf("unknown strategy '%s'\n", arg.c_str()); continue; }
        std::printf("strategy = %s\n",
                    std::string(StrategyName(options.strategy)).c_str());
      } else if (op == ".prune" || op == ".minimize" || op == ".subsume") {
        bool& flag = op == ".prune"      ? options.prune_empty_disjuncts
                     : op == ".minimize" ? options.minimize_query
                                         : options.prune_subsumed_disjuncts;
        flag = (arg == "on");
        std::printf("%s = %s\n", op.c_str() + 1, flag ? "on" : "off");
      } else if (op == ".explain") {
        explain = (arg == "on" || arg == "analyze");
        explain_analyze = (arg == "analyze");
        options.keep_reformulation = explain || emit_sql;
        std::printf("explain = %s\n",
                    explain_analyze ? "analyze" : (explain ? "on" : "off"));
      } else if (op == ".sql") {
        emit_sql = (arg == "on");
        options.keep_reformulation = explain || emit_sql;
        std::printf("sql = %s\n", emit_sql ? "on" : "off");
      } else if (op == ".trace") {
        trace = (arg == "on");
        TraceSession::Install(trace ? &trace_session : nullptr);
        std::printf("trace = %s\n", trace ? "on" : "off");
      } else if (op == ".threads") {
        // N - 1 OS threads start on the next query, so N is bounded.
        size_t n = 0;
        if (!ParseCount(arg, &n) || n > kMaxThreads) {
          std::printf(".threads N — 1 <= N <= %zu (1 = sequential)\n",
                      kMaxThreads);
          continue;
        }
        profile.worker_threads = n;
        std::printf("threads = %zu%s\n", n,
                    n == 1 ? " (sequential)" : "");
      } else if (op == ".vector") {
        // The answerer holds a pointer to `profile`, so assigning through
        // it switches the engine for every later query. Worker threads are
        // orthogonal and survive the switch.
        const long n = arg == "off"   ? 1
                       : arg.empty() ? static_cast<long>(kBatchRows)
                                     : std::atol(arg.c_str());
        if (n < 1) {
          std::printf(".vector [N|off] — batch size N >= 2, or 1/off for "
                      "the tuple engine (default %zu)\n", kBatchRows);
          continue;
        }
        const size_t threads = profile.worker_threads;
        // Vectorized clamps N to the executor's physical batch width.
        profile = n == 1 ? PostgresLikeProfile()
                         : Vectorized(PostgresLikeProfile(),
                                      static_cast<size_t>(n));
        profile.worker_threads = threads;
        if (n == 1) {
          std::printf("vector = off (tuple-at-a-time engine)\n");
        } else {
          std::printf("vector = %zu (batch engine, union-subplan "
                      "factoring on)\n", profile.vector_width);
        }
        note_service("engine");
      } else if (op == ".verify") {
        if (arg == "on" || arg == "off") {
          options.verify_plans = (arg == "on");
          std::printf("verify = %s%s\n", arg.c_str(),
                      options.verify_plans
                          ? " (every plan is structurally verified before "
                            "execution; violations abort the query with the "
                            "offending node marked)"
                          : "");
          note_service("verify");
        } else {
          std::printf(".verify on|off — static plan verification before "
                      "execution (currently %s)\n",
                      options.verify_plans ? "on" : "off");
        }
      } else if (op == ".views" && (arg == "on" || arg == "off")) {
        enable_views = (arg == "on");
        std::printf("views = %s\n", enable_views ? "on" : "off");
        if (service && service->options().enable_views != enable_views) {
          note_service("views");
        }
      } else if (op == ".service" && arg == "on") {
        ServiceOptions service_options;
        service_options.answer = options;
        service_options.enable_views = enable_views;
        service = std::make_unique<QueryService>(&graph, profile,
                                                 service_options);
        std::printf("service = on — plans cached per (canonical query, "
                    "epoch); strategy/threads are captured now, rerun "
                    ".service on after changing them (.explain/.sql are "
                    "bypassed while on)\n");
      } else if (op == ".service" && arg == "off") {
        service.reset();
        std::printf("service = off\n");
      } else if (op == ".calibrate") {
        std::printf("running calibration sweeps on %s...\n",
                    profile.name.c_str());
        CalibrationReport report = CalibrateProfile(profile);
        profile.cost = report.fitted;
        std::printf("fitted: c_db=%.1f c_t=%.3f c_j=%.3f c_m=%.3f c_l=%.3f "
                    "c_union_term=%.1f (cost units ~ microseconds)\n",
                    profile.cost.c_db, profile.cost.c_t, profile.cost.c_j,
                    profile.cost.c_m, profile.cost.c_l,
                    profile.cost.c_union_term);
      } else if (op == ".stats") {
        std::printf("triples=%zu subjects=%zu properties=%zu objects=%zu "
                    "classes=%zu constrained-properties=%zu saturated=%zu\n",
                    stats.total_triples(), stats.distinct_subjects(),
                    stats.distinct_properties(), stats.distinct_objects(),
                    graph.schema().AllClasses().size(),
                    graph.schema().AllProperties().size(), sat.store.size());
      } else {
        // The admin layer owns every other command; bare .service names
        // its `stats` (.stats is the database's).
        Result<AdminReply> reply = RunAdminCommand(
            service.get(),
            op == ".service" && arg.empty() ? "stats" : line.substr(1));
        if (!reply.ok()) {
          std::printf("error: %s (.help)\n",
                      reply.status().ToString().c_str());
        } else {
          std::printf("%s%s", reply.ValueOrDie().text.c_str(),
                      reply.ValueOrDie().multi_line ? "" : "\n");
        }
      }
      continue;
    }

    pending += line;
    pending += '\n';
    // A query is complete when a line ends with '}' or a lone ';'.
    std::string trimmed = line;
    while (!trimmed.empty() && std::isspace(
               static_cast<unsigned char>(trimmed.back()))) {
      trimmed.pop_back();
    }
    if (trimmed.empty() ||
        (trimmed.back() != '}' && trimmed != ";")) {
      continue;
    }
    std::string text = std::move(pending);
    pending.clear();
    if (text.find_first_not_of(" \t\n;") == std::string::npos) continue;

    text = WithPreamble(preamble, text);
    if (trace) trace_session.Clear();  // One span tree per query.
    const auto print_trace = [&] {
      if (trace) {
        std::printf("-- trace:\n%s",
                    trace_session.ToString(/*max_lines=*/200).c_str());
      }
    };
    if (service) {
      // The front door parses, canonicalizes, caches and admits; the shell
      // only formats what comes back.
      Result<ServiceOutcome> served = service->AnswerText(text);
      print_trace();
      if (!served.ok()) {
        std::printf("error: %s\n", served.status().ToString().c_str());
        continue;
      }
      const ServiceOutcome& so = served.ValueOrDie();
      PrintAnswers(so.answers, graph.dict());
      std::printf("%zu answer(s) in %.2f ms [service: cache %s, epoch %llu, "
                  "%zu union terms, %zu component(s)]\n",
                  so.answers.num_rows(), so.total_ms,
                  so.cache_hit ? "hit" : "miss",
                  static_cast<unsigned long long>(so.epoch), so.union_terms,
                  so.num_components);
      continue;
    }
    Result<Query> query = [&] {
      TraceSpan span("answer.parse");
      return ParseQuery(text, &graph.dict());
    }();
    if (!query.ok()) {
      std::printf("parse error: %s\n", query.status().ToString().c_str());
      continue;
    }
    Result<AnswerOutcome> outcome = answerer.Answer(query.ValueOrDie(),
                                                    options);
    print_trace();
    if (!outcome.ok()) {
      std::printf("error: %s\n", outcome.status().ToString().c_str());
      continue;
    }
    const AnswerOutcome& o = outcome.ValueOrDie();
    if (o.jucq.has_value()) {
      if (explain) {
        // The exact plan that was executed (keep_reformulation keeps it
        // with the JUCQ): under `analyze` its nodes carry the actual row
        // counts the run just recorded.
        ExplainOptions explain_opts;
        explain_opts.analyze = explain_analyze;
        std::printf("%s", ExplainPlan(o.plan.value(), *o.jucq_vars,
                                      graph.dict(), explain_opts)
                              .c_str());
      }
      if (emit_sql) {
        std::printf("-- SQL deployment over Triples(s,p,o)/Dict(id,value):\n"
                    "%s;\n",
                    ToSql(*o.jucq, *o.jucq_vars, SqlOptions{}).c_str());
      }
    }
    PrintAnswers(o.answers, graph.dict());
    std::printf("%zu answer(s) in %.2f ms [%s: %zu union terms, "
                "%zu component(s)%s%s]\n",
                o.answers.num_rows(), o.total_ms(),
                std::string(StrategyName(options.strategy)).c_str(),
                o.union_terms, o.num_components,
                o.pruned_union_terms > 0 ? ", pruned" : "",
                o.minimized_atoms > 0 ? ", minimized" : "");
  }
  return 0;
}
