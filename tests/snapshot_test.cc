#include "storage/snapshot.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "workload/lubm.h"

namespace rdfopt {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  // One file per case and process: ctest runs each case as its own test,
  // so a shared name races under `ctest -j`.
  void SetUp() override {
    path_ = ::testing::TempDir() + "/rdfopt_snapshot_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(getpid()) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// A snapshot header with `num_terms` dictionary entries, to be followed
  /// by hand-written payload.
  std::ofstream Header(uint64_t num_terms) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    const uint32_t version = 2;
    out.write("RDFO", 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&num_terms), sizeof(num_terms));
    return out;
  }

  std::string Contents() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  std::string path_;
};

TEST_F(SnapshotTest, RoundTripsLubmGraph) {
  Graph original;
  LubmOptions options;
  options.num_universities = 1;
  GenerateLubm(options, &original);
  original.FinalizeSchema();

  ASSERT_TRUE(SaveGraphSnapshot(original, path_).ok());
  Result<Graph> loaded = LoadGraphSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const Graph& g = loaded.ValueOrDie();
  EXPECT_EQ(g.dict().size(), original.dict().size());
  ASSERT_EQ(g.num_data_triples(), original.num_data_triples());
  ASSERT_EQ(g.num_schema_triples(), original.num_schema_triples());
  for (size_t i = 0; i < g.num_data_triples(); ++i) {
    EXPECT_EQ(g.data_triples()[i], original.data_triples()[i]);
  }
  // Dictionary content, not just size.
  for (ValueId id = 0; id < 100; ++id) {
    EXPECT_EQ(g.dict().term(id), original.dict().term(id));
  }
  // Schema closures survive (loaded graph is pre-finalized).
  EXPECT_TRUE(g.schema().finalized());
  EXPECT_TRUE(g.schema().EquivalentTo(original.schema()));
}

TEST_F(SnapshotTest, RoundTripsAllTermKinds) {
  Graph original;
  original.Add(Term::Iri("http://ex/s"), Term::Iri("http://ex/p"),
               Term::Literal("a literal with spaces"));
  original.Add(Term::Blank("b1"), Term::Iri("http://ex/p"),
               Term::Literal(""));
  original.FinalizeSchema();
  ASSERT_TRUE(SaveGraphSnapshot(original, path_).ok());
  Result<Graph> loaded = LoadGraphSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie().num_data_triples(), 2u);
  EXPECT_NE(loaded.ValueOrDie().dict().Lookup(Term::Blank("b1")),
            kInvalidValueId);
}

TEST_F(SnapshotTest, MissingFile) {
  Result<Graph> r = LoadGraphSnapshot(path_ + ".does-not-exist");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, RejectsForeignFile) {
  std::ofstream out(path_, std::ios::binary);
  out << "not a snapshot at all";
  out.close();
  Result<Graph> r = LoadGraphSnapshot(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(SnapshotTest, RejectsTruncatedFile) {
  Graph original;
  original.AddIri("http://ex/s", "http://ex/p", "http://ex/o");
  ASSERT_TRUE(SaveGraphSnapshot(original, path_).ok());
  // Truncate the file in the middle.
  std::ifstream in(path_, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() / 2));
  out.close();
  Result<Graph> r = LoadGraphSnapshot(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

// A corrupt triple count must be rejected against the file size, not
// handed to vector::reserve (which would ask for 2^62 triples).
TEST_F(SnapshotTest, RejectsTripleCountBeyondFile) {
  {
    std::ofstream out = Header(0);
    const uint64_t count = uint64_t{1} << 62;
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  Result<Graph> r = LoadGraphSnapshot(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().ToString().find("count exceeds the file"),
            std::string::npos)
      << r.status().ToString();
}

// Likewise a corrupt term length: a 4 GiB string must not be allocated
// before the truncation is noticed.
TEST_F(SnapshotTest, RejectsTermLengthBeyondFile) {
  {
    std::ofstream out = Header(1);
    const uint32_t len = UINT32_MAX;
    out.put(0);  // TermKind::kIri.
    out.write(reinterpret_cast<const char*>(&len), sizeof(len));
    out.write("http://ex/", 10);
  }
  Result<Graph> r = LoadGraphSnapshot(path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().ToString().find("term length exceeds the file"),
            std::string::npos)
      << r.status().ToString();
}

// One flipped byte fails the checksum even where the parse alone would
// accept the result: inside a term's text ("o2" becomes "o3", a new term)
// and inside a triple (its subject id becomes the id of another term).
TEST_F(SnapshotTest, RejectsFlippedByteInTermAndTriple) {
  Graph original;
  original.AddIri("http://ex/s", "http://ex/p", "http://ex/o1");
  original.AddIri("http://ex/s", "http://ex/p", "http://ex/o2");
  ASSERT_TRUE(SaveGraphSnapshot(original, path_).ok());
  const std::string bytes = Contents();
  const size_t in_term = bytes.find("http://ex/o2") + 11;
  // The last data triple's subject, just before the 4-byte checksum.
  const size_t in_triple = bytes.size() - 4 - 3 * sizeof(uint32_t);
  const ValueId subject = original.dict().Lookup(Term::Iri("http://ex/s"));
  ASSERT_EQ(static_cast<unsigned char>(bytes[in_triple]), subject);
  ASSERT_LT(subject ^ 1u, original.dict().size());
  for (size_t offset : {in_term, in_triple}) {
    std::string corrupt = bytes;
    corrupt[offset] ^= 0x01;
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    Result<Graph> r = LoadGraphSnapshot(path_);
    ASSERT_FALSE(r.ok()) << "flipped byte at " << offset << " was accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
    EXPECT_NE(r.status().ToString().find("checksum mismatch"),
              std::string::npos)
        << r.status().ToString();
  }
}

// The trailer is the standard CRC-32, whose check value over "123456789" is
// 0xCBF43926; feeding the bytes in two pieces gives the same CRC.
TEST(SnapshotCrcTest, MatchesTheStandardCheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("6789", Crc32("12345")), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

// The save goes through `<path>.tmp` and a rename: when it cannot complete
// (here the temp name is taken by a directory), the snapshot already at
// `path` stays loadable and unchanged.
TEST_F(SnapshotTest, FailedSaveKeepsPreviousSnapshot) {
  Graph first;
  first.AddIri("http://ex/s", "http://ex/p", "http://ex/o");
  ASSERT_TRUE(SaveGraphSnapshot(first, path_).ok());

  const std::string tmp = path_ + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
  Graph second;
  second.AddIri("http://ex/s", "http://ex/p", "http://ex/o");
  second.AddIri("http://ex/s", "http://ex/p", "http://ex/o2");
  EXPECT_FALSE(SaveGraphSnapshot(second, path_).ok());
  ::rmdir(tmp.c_str());

  Result<Graph> r = LoadGraphSnapshot(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().num_data_triples(), 1u);
}

}  // namespace
}  // namespace rdfopt
