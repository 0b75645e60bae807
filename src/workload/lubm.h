#ifndef RDFOPT_WORKLOAD_LUBM_H_
#define RDFOPT_WORKLOAD_LUBM_H_

#include <cstdint>
#include <string>

#include "rdf/graph.h"

namespace rdfopt {

/// Deterministic pseudo-random generator (splitmix64) used by the workload
/// generators; self-contained so generated datasets are bit-identical across
/// platforms and standard-library versions.
class WorkloadRng {
 public:
  explicit WorkloadRng(uint64_t seed) : state_(seed) {}

  uint64_t Next();
  /// Uniform integer in [0, bound); bound > 0.
  uint64_t Uniform(uint64_t bound);
  /// Uniform integer in [lo, hi] inclusive.
  uint64_t Between(uint64_t lo, uint64_t hi);
  /// True with probability `p`.
  bool Chance(double p);

 private:
  uint64_t state_;
};

/// Our LUBM-style university benchmark (paper §5.1 uses LUBM [26] at 1M and
/// 100M triples): a Univ-Bench-like RDFS ontology — 38 classes and 14
/// constrained properties with subclass/subproperty/domain/range statements
/// — plus a scalable synthetic data generator with LUBM-like entity ratios
/// (universities > departments > faculty/students/courses/publications).
///
/// IRIs are stable across scales: <http://lubm.example.org/univ#Class>,
/// <http://lubm.example.org/data/univN[/deptM[/entityK]]>, so the benchmark
/// queries can reference constants like univ0 or univ0/dept0 at any scale.
struct LubmOptions {
  size_t num_universities = 2;
  uint64_t seed = 20150323;  // EDBT 2015.
  /// When > 0, the ontology additionally declares this many leaf
  /// "SpecialtyK" classes, round-robined as direct subclasses of
  /// FullProfessor / AssociateProfessor / AssistantProfessor, and every
  /// professor of those ranks is typed at one of its rank's specialty
  /// leaves instead of at the rank. A query over ub:Professor then
  /// reformulates into hundreds of type disjuncts, the wide-union shape
  /// the view benchmarks (bench_service's shared-fragment mode,
  /// BM_ExecuteViewScanJucq) and view_differential_test exercise. 0 (the
  /// default) leaves the generated dataset bit-identical to earlier
  /// versions.
  size_t fine_grained_specializations = 0;
};

/// Adds the LUBM-style schema and data to `graph` (which may be empty) and
/// returns the number of data triples added. Call graph->FinalizeSchema()
/// afterwards.
size_t GenerateLubm(const LubmOptions& options, Graph* graph);

/// Number of universities that yields roughly `target_triples` data triples.
LubmOptions LubmOptionsForTripleTarget(size_t target_triples);

/// The ontology namespace prefix used in queries: "http://lubm.example.org/univ#".
extern const char kLubmNs[];
/// Instance namespace: "http://lubm.example.org/data/".
extern const char kLubmData[];

}  // namespace rdfopt

#endif  // RDFOPT_WORKLOAD_LUBM_H_
