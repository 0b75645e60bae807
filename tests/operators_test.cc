#include "engine/operators.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace rdfopt {
namespace {

TripleStore SmallStore() {
  return TripleStore::Build({
      {1, 10, 20},
      {1, 10, 21},
      {2, 10, 20},
      {20, 11, 30},
      {21, 11, 31},
      {5, 12, 5},  // Subject == object, for repeated-variable tests.
      {5, 12, 6},
  });
}

TEST(ScanAtomTest, ConstantPropertyScan) {
  TripleStore store = SmallStore();
  TriplePattern atom{PatternTerm::Var(0), PatternTerm::Const(10),
                     PatternTerm::Var(1)};
  Relation r = ScanAtom(store, atom);
  EXPECT_EQ(r.columns(), (std::vector<VarId>{0, 1}));
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(ScanAtomInputSize(store, atom), 3u);
}

TEST(ScanAtomTest, FullyBoundScan) {
  TripleStore store = SmallStore();
  TriplePattern atom{PatternTerm::Const(1), PatternTerm::Const(10),
                     PatternTerm::Const(20)};
  Relation r = ScanAtom(store, atom);
  EXPECT_EQ(r.arity(), 0u);
  EXPECT_EQ(r.num_rows(), 1u);  // One (empty) row: the triple exists.
}

TEST(ScanAtomTest, RepeatedVariableFilters) {
  TripleStore store = SmallStore();
  // ?x <12> ?x matches only (5,12,5).
  TriplePattern atom{PatternTerm::Var(0), PatternTerm::Const(12),
                     PatternTerm::Var(0)};
  Relation r = ScanAtom(store, atom);
  EXPECT_EQ(r.columns(), (std::vector<VarId>{0}));
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.at(0, 0), 5u);
  // The scan itself reads both <12> triples.
  EXPECT_EQ(ScanAtomInputSize(store, atom), 2u);
}

TEST(ScanAtomTest, VariablePropertyScan) {
  TripleStore store = SmallStore();
  TriplePattern atom{PatternTerm::Const(1), PatternTerm::Var(0),
                     PatternTerm::Var(1)};
  Relation r = ScanAtom(store, atom);
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.columns(), (std::vector<VarId>{0, 1}));
}

TEST(HashJoinTest, NaturalJoinOnSharedColumn) {
  Relation left({0, 1});
  left.AppendRow(std::vector<ValueId>{1, 20});
  left.AppendRow(std::vector<ValueId>{1, 21});
  left.AppendRow(std::vector<ValueId>{2, 20});
  Relation right({1, 2});
  right.AppendRow(std::vector<ValueId>{20, 30});
  right.AppendRow(std::vector<ValueId>{21, 31});

  Relation joined = HashJoin(left, right);
  EXPECT_EQ(joined.columns(), (std::vector<VarId>{0, 1, 2}));
  EXPECT_EQ(joined.num_rows(), 3u);

  std::set<std::vector<ValueId>> rows;
  for (size_t i = 0; i < joined.num_rows(); ++i) {
    rows.insert({joined.at(i, 0), joined.at(i, 1), joined.at(i, 2)});
  }
  EXPECT_TRUE(rows.count({1, 20, 30}));
  EXPECT_TRUE(rows.count({1, 21, 31}));
  EXPECT_TRUE(rows.count({2, 20, 30}));
}

TEST(HashJoinTest, MultiColumnJoinKey) {
  Relation left({0, 1});
  left.AppendRow(std::vector<ValueId>{1, 2});
  left.AppendRow(std::vector<ValueId>{1, 3});
  Relation right({0, 1, 2});
  right.AppendRow(std::vector<ValueId>{1, 2, 9});
  right.AppendRow(std::vector<ValueId>{1, 4, 9});
  Relation joined = HashJoin(left, right);
  EXPECT_EQ(joined.columns(), (std::vector<VarId>{0, 1, 2}));
  ASSERT_EQ(joined.num_rows(), 1u);
  EXPECT_EQ(joined.at(0, 2), 9u);
}

TEST(HashJoinTest, CartesianProductWhenNoSharedColumns) {
  Relation left({0});
  left.AppendRow(std::vector<ValueId>{1});
  left.AppendRow(std::vector<ValueId>{2});
  Relation right({1});
  right.AppendRow(std::vector<ValueId>{8});
  right.AppendRow(std::vector<ValueId>{9});
  right.AppendRow(std::vector<ValueId>{10});
  Relation joined = HashJoin(left, right);
  EXPECT_EQ(joined.num_rows(), 6u);
}

TEST(HashJoinTest, EmptyInputs) {
  Relation left({0});
  Relation right({0});
  right.AppendRow(std::vector<ValueId>{1});
  EXPECT_EQ(HashJoin(left, right).num_rows(), 0u);
  EXPECT_EQ(HashJoin(right, left).num_rows(), 0u);
}

TEST(HashJoinTest, JoinWithBooleanRelation) {
  // Zero-arity x non-empty: cartesian product semantics preserve the rows.
  Relation boolean({});
  boolean.AppendEmptyRow();
  Relation data({0});
  data.AppendRow(std::vector<ValueId>{4});
  Relation joined = HashJoin(boolean, data);
  EXPECT_EQ(joined.num_rows(), 1u);
  EXPECT_EQ(joined.columns(), (std::vector<VarId>{0}));
}

TEST(ProjectTest, ReordersColumns) {
  Relation in({0, 1});
  in.AppendRow(std::vector<ValueId>{1, 2});
  Relation out = ProjectWithBindings(in, {1, 0}, {});
  EXPECT_EQ(out.columns(), (std::vector<VarId>{1, 0}));
  EXPECT_EQ(out.at(0, 0), 2u);
  EXPECT_EQ(out.at(0, 1), 1u);
}

TEST(ProjectTest, ConstantFromBindings) {
  Relation in({0});
  in.AppendRow(std::vector<ValueId>{1});
  in.AppendRow(std::vector<ValueId>{2});
  Relation out = ProjectWithBindings(in, {0, 7}, {{7, 99}});
  EXPECT_EQ(out.columns(), (std::vector<VarId>{0, 7}));
  EXPECT_EQ(out.at(0, 1), 99u);
  EXPECT_EQ(out.at(1, 1), 99u);
}

TEST(ProjectTest, EmptyHeadGivesBooleanResult) {
  Relation in({0});
  in.AppendRow(std::vector<ValueId>{1});
  Relation out = ProjectWithBindings(in, {}, {});
  EXPECT_EQ(out.arity(), 0u);
  EXPECT_EQ(out.num_rows(), 1u);
}

TEST(ProjectIntoTest, AlignsColumnsAndAppliesBindings) {
  Relation acc({0, 1});
  acc.AppendRow(std::vector<ValueId>{1, 2});
  // Input has column 0 only; column 1 supplied by a binding.
  Relation input({0});
  input.AppendRow(std::vector<ValueId>{5});
  ProjectInto(&acc, input, {{1, 77}});
  ASSERT_EQ(acc.num_rows(), 2u);
  EXPECT_EQ(acc.at(1, 0), 5u);
  EXPECT_EQ(acc.at(1, 1), 77u);
}

TEST(ProjectIntoTest, ReorderedInputColumns) {
  Relation acc({0, 1});
  Relation input({1, 0});
  input.AppendRow(std::vector<ValueId>{20, 10});
  ProjectInto(&acc, input, {});
  ASSERT_EQ(acc.num_rows(), 1u);
  EXPECT_EQ(acc.at(0, 0), 10u);
  EXPECT_EQ(acc.at(0, 1), 20u);
}


TEST(IndexJoinAtomTest, ProbesBoundPositions) {
  TripleStore store = SmallStore();
  // Left binds ?x (subjects); atom is ?x <10> ?y.
  Relation left({0});
  left.AppendRow(std::vector<ValueId>{1});
  left.AppendRow(std::vector<ValueId>{3});  // No <10> triples for 3.
  TriplePattern atom{PatternTerm::Var(0), PatternTerm::Const(10),
                     PatternTerm::Var(1)};
  size_t probed = 0;
  Relation out = IndexJoinAtom(store, left, atom, &probed);
  EXPECT_EQ(out.columns(), (std::vector<VarId>{0, 1}));
  EXPECT_EQ(out.num_rows(), 2u);  // (1,20), (1,21).
  EXPECT_EQ(probed, 2u);
}

TEST(IndexJoinAtomTest, AgreesWithHashJoin) {
  TripleStore store = SmallStore();
  TriplePattern first{PatternTerm::Var(0), PatternTerm::Const(10),
                      PatternTerm::Var(1)};
  TriplePattern second{PatternTerm::Var(1), PatternTerm::Const(11),
                       PatternTerm::Var(2)};
  Relation left = ScanAtom(store, first);
  Relation via_hash = HashJoin(left, ScanAtom(store, second));
  Relation via_index = IndexJoinAtom(store, left, second, nullptr);
  ASSERT_EQ(via_hash.num_rows(), via_index.num_rows());
  ASSERT_EQ(via_hash.columns(), via_index.columns());
  std::set<std::vector<ValueId>> hash_rows;
  std::set<std::vector<ValueId>> index_rows;
  for (size_t i = 0; i < via_hash.num_rows(); ++i) {
    hash_rows.insert(std::vector<ValueId>(via_hash.row(i).begin(),
                                          via_hash.row(i).end()));
    index_rows.insert(std::vector<ValueId>(via_index.row(i).begin(),
                                           via_index.row(i).end()));
  }
  EXPECT_EQ(hash_rows, index_rows);
}

TEST(IndexJoinAtomTest, MultipleBoundPositions) {
  TripleStore store = SmallStore();
  // Left binds both the subject and the object of the probe atom.
  Relation left({0, 1});
  left.AppendRow(std::vector<ValueId>{1, 20});
  left.AppendRow(std::vector<ValueId>{1, 22});  // (1,10,22) does not exist.
  TriplePattern atom{PatternTerm::Var(0), PatternTerm::Const(10),
                     PatternTerm::Var(1)};
  Relation out = IndexJoinAtom(store, left, atom, nullptr);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.at(0, 0), 1u);
  EXPECT_EQ(out.at(0, 1), 20u);
}

TEST(IndexJoinAtomTest, RepeatedFreshVariableFilters) {
  TripleStore store = SmallStore();
  // Probe ?z <12> ?z with the property bound by nothing: left binds no
  // position except via a cartesian driver row.
  Relation left({9});
  left.AppendRow(std::vector<ValueId>{777});
  TriplePattern atom{PatternTerm::Var(0), PatternTerm::Const(12),
                     PatternTerm::Var(0)};
  Relation out = IndexJoinAtom(store, left, atom, nullptr);
  // Only (5,12,5) matches the repeated variable; (5,12,6) filtered.
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.columns(), (std::vector<VarId>{9, 0}));
  EXPECT_EQ(out.at(0, 1), 5u);
}

TEST(IndexJoinAtomTest, EmptyLeft) {
  TripleStore store = SmallStore();
  Relation left({0});
  TriplePattern atom{PatternTerm::Var(0), PatternTerm::Const(10),
                     PatternTerm::Var(1)};
  size_t probed = 0;
  Relation out = IndexJoinAtom(store, left, atom, &probed);
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_EQ(probed, 0u);
}

TEST(IndexJoinAtomTest, VariablePropertyProbe) {
  TripleStore store = SmallStore();
  // Left binds the property position.
  Relation left({5});
  left.AppendRow(std::vector<ValueId>{10});
  TriplePattern atom{PatternTerm::Var(0), PatternTerm::Var(5),
                     PatternTerm::Var(1)};
  Relation out = IndexJoinAtom(store, left, atom, nullptr);
  EXPECT_EQ(out.num_rows(), 3u);  // All <10> triples.
  EXPECT_EQ(out.columns(), (std::vector<VarId>{5, 0, 1}));
}

}  // namespace
}  // namespace rdfopt
