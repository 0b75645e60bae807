// Tests of the benchmark's own helpers (bench_helpers.h): the
// tail-percentile rule, the answer fingerprint and the update-delta
// generator. Run by perfbench/test.py; exits non-zero on the first failure.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <tuple>
#include <vector>

#include "bench_helpers.h"
#include "workload/lubm.h"

namespace rdfopt::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestTailRule() {
  // p99 of 1000 samples is the 990th; ten lie beyond it.
  Expect(PercentileIndex(1000, 99) == 989, "p99 index of 1000 samples");
  Expect(HasTail(1000, 99), "1000 samples back a p99");
  Expect(!HasTail(999, 99), "999 samples do not back a p99");
  Expect(HasTail(100, 90), "100 samples back a p90");
  Expect(!HasTail(99, 90), "99 samples do not back a p90");
  Expect(!HasTail(10, 50), "10 samples have no tail at all");
  Expect(!HasTail(0, 50), "no samples, no tail");
  // The highest percentile with ten samples beyond it, and no higher.
  Expect(HighestTailPercentile(1000) == 99.0, "highest tail of 1000");
  Expect(HighestTailPercentile(10) == 0.0, "no tail percentile of 10");
  for (size_t n : {11, 57, 100, 1000, 12345}) {
    const double pct = HighestTailPercentile(n);
    Expect(HasTail(n, pct), "the highest tail percentile has a tail");
    Expect(!HasTail(n, pct + 0.01), "no higher percentile has a tail");
  }
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  Expect(PercentileOf(sorted, 50) == 50.0, "p50 of 1..100");
  Expect(PercentileOf(sorted, 90) == 90.0, "p90 of 1..100");
}

Relation MakeRelation(std::vector<VarId> columns,
                      const std::vector<std::vector<ValueId>>& rows) {
  Relation r(std::move(columns));
  for (const std::vector<ValueId>& row : rows) r.AppendRow(row);
  return r;
}

void TestFingerprint() {
  const Relation a = MakeRelation({0, 1}, {{1, 2}, {3, 4}, {5, 6}});
  const Relation reordered = MakeRelation({0, 1}, {{5, 6}, {1, 2}, {3, 4}});
  const Relation swapped = MakeRelation({0, 1}, {{2, 1}, {4, 3}, {6, 5}});
  const Relation fewer = MakeRelation({0, 1}, {{1, 2}, {3, 4}});
  const Relation relabelled = MakeRelation({7, 9}, {{3, 4}, {1, 2}, {5, 6}});
  const Relation wider = MakeRelation({0, 1, 2}, {{1, 2, 0}, {3, 4, 0}});
  const Relation crossed = MakeRelation({0, 1}, {{1, 4}, {3, 2}, {5, 6}});
  Expect(RowFingerprint(a) == RowFingerprint(reordered),
         "fingerprint ignores row order");
  Expect(RowFingerprint(a) == RowFingerprint(relabelled),
         "fingerprint ignores column variable ids");
  Expect(RowFingerprint(a) != RowFingerprint(swapped),
         "fingerprint sees swapped columns");
  Expect(RowFingerprint(a) != RowFingerprint(fewer),
         "fingerprint sees a missing row");
  Expect(RowFingerprint(fewer) != RowFingerprint(wider),
         "fingerprint sees the arity");
  Expect(RowFingerprint(a) != RowFingerprint(crossed),
         "fingerprint sees values moved between rows");
}

void TestDeltas() {
  Graph graph;
  LubmOptions lubm;
  lubm.num_universities = 1;
  GenerateLubm(lubm, &graph);
  graph.FinalizeSchema();
  const size_t dict_size = graph.dict().size();
  const std::vector<std::vector<Triple>> deltas =
      GenerateDeltas(graph, 5, 200, 42);
  Expect(graph.dict().size() == dict_size, "generating interns nothing");
  Expect(deltas.size() == 5, "delta count");
  std::set<std::tuple<ValueId, ValueId, ValueId>> seen;
  for (const Triple& t : graph.data_triples()) seen.insert({t.s, t.p, t.o});
  bool sized = true, interned = true, data_only = true, fresh = true;
  for (const std::vector<Triple>& delta : deltas) {
    sized = sized && delta.size() == 200;
    for (const Triple& t : delta) {
      interned = interned && graph.dict().Contains(t.s) &&
                 graph.dict().Contains(t.p) && graph.dict().Contains(t.o);
      data_only = data_only && !graph.vocab().IsSchemaProperty(t.p) &&
                  t.p != graph.vocab().rdf_type;
      fresh = fresh && seen.insert({t.s, t.p, t.o}).second;
    }
  }
  Expect(sized, "every delta has the requested size");
  Expect(interned, "deltas use only interned ids");
  Expect(data_only, "deltas hold no schema or rdf:type triples");
  Expect(fresh, "delta triples are new to the graph and to each other");
  Expect(GenerateDeltas(graph, 5, 200, 42) == deltas,
         "deltas are deterministic for a seed");
  Expect(GenerateDeltas(graph, 5, 200, 43) != deltas,
         "another seed gives other deltas");
}

void TestSelfTime() {
  SpanLog log;
  const int32_t root = log.Open("service.answer", 1);
  log.AddMeasured("engine.execute", 1, 0.0);
  log.Close(root);
  const auto self = log.SelfMsByLayer();
  Expect(log.spans()[1].parent == root, "measured span nests under the open");
  Expect(self.count("service") == 1 && self.count("engine") == 1,
         "self time is keyed by layer");
}

}  // namespace
}  // namespace rdfopt::perfbench

int main() {
  rdfopt::perfbench::TestTailRule();
  rdfopt::perfbench::TestFingerprint();
  rdfopt::perfbench::TestDeltas();
  rdfopt::perfbench::TestSelfTime();
  if (rdfopt::perfbench::failures != 0) return 1;
  std::printf("helpers_test: all checks passed\n");
  return 0;
}
