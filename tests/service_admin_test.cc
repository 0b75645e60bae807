#include "service/admin.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "json_checker.h"

namespace rdfopt {
namespace {

const char kQuery[] = "SELECT ?x WHERE { ?x <http://ex/knows> ?y }";

void ExpectJson(const std::string& text) {
  std::string error;
  EXPECT_TRUE(testing::JsonChecker(text).Validate(&error))
      << error << "\n" << text;
}

void ExpectKeys(const std::string& json,
                const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    EXPECT_NE(json.find("\"" + key + "\":"), std::string::npos)
        << key << " missing in " << json;
  }
}

/// Runs `line`, which must succeed, and returns its reply.
AdminReply RunOk(QueryService* service, const std::string& line) {
  Result<AdminReply> reply = RunAdminCommand(service, line);
  EXPECT_TRUE(reply.ok()) << line << ": " << reply.status().ToString();
  return reply.ok() ? reply.TakeValue() : AdminReply{};
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t nl; (nl = text.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(text.substr(start, nl - start));
  }
  EXPECT_EQ(start, text.size()) << "unterminated last line";
  return lines;
}

class ServiceAdminTest : public ::testing::Test {
 protected:
  ServiceAdminTest() {
    graph_.AddIri("http://ex/alice", "http://ex/knows", "http://ex/bob");
    graph_.AddIri("http://ex/bob", "http://ex/knows", "http://ex/carol");
    ServiceOptions options;
    options.slow_query_ms = 0.0;  // Every request reaches the slow log.
    options.enable_views = true;
    service_ = std::make_unique<QueryService>(&graph_, PostgresLikeProfile(),
                                              options);
  }

  void Ask(size_t times) {
    for (size_t i = 0; i < times; ++i) {
      ASSERT_TRUE(service_->AnswerText(kQuery).ok());
    }
  }

  Graph graph_;
  std::unique_ptr<QueryService> service_;
};

TEST_F(ServiceAdminTest, StatsRendersCacheAndAdmission) {
  Ask(2);
  AdminReply reply = RunOk(service_.get(), "stats");
  EXPECT_FALSE(reply.multi_line);
  ExpectJson(reply.text);
  ExpectKeys(reply.text, {"epoch", "cache", "hits", "misses", "evictions",
                          "stale_puts", "entries", "bytes", "admission",
                          "running", "waiting", "admitted", "shed",
                          "deadline_exceeded"});
  EXPECT_NE(reply.text.find("\"hits\":1,\"misses\":1"), std::string::npos)
      << reply.text;
}

TEST_F(ServiceAdminTest, ViewsRendersCountersAndEntryArray) {
  Ask(2);
  AdminReply reply = RunOk(service_.get(), "views");
  EXPECT_FALSE(reply.multi_line);
  ExpectJson(reply.text);
  ExpectKeys(reply.text, {"enabled", "epoch", "lookups", "hits", "misses",
                          "offers", "admitted", "rejected", "stale_offers",
                          "evictions", "invalidations", "carry_forwards",
                          "refreshes", "promotions", "demotions", "bytes",
                          "resident", "pinned"});
  EXPECT_NE(reply.text.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(reply.text.find("\"entries\":[{\"signature\":"),
            std::string::npos)
      << reply.text;
}

TEST_F(ServiceAdminTest, SlowlogListsLimitsSetsThresholdAndClears) {
  Ask(3);
  AdminReply all = RunOk(service_.get(), "slowlog");
  EXPECT_TRUE(all.multi_line);
  std::vector<std::string> lines = SplitLines(all.text);
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    ExpectJson(line);
    ExpectKeys(line, {"canonical", "status", "plan_digest", "nodes"});
  }
  std::vector<std::string> newest =
      SplitLines(RunOk(service_.get(), "slowlog 1").text);
  ASSERT_EQ(newest.size(), 1u);
  EXPECT_EQ(newest[0], lines.back());

  AdminReply threshold = RunOk(service_.get(), "slowlog ms 12.5");
  EXPECT_EQ(threshold.text, "{\"ok\":true,\"threshold_ms\":12.5}");
  EXPECT_DOUBLE_EQ(service_->slow_log()->threshold_ms(), 12.5);

  AdminReply cleared = RunOk(service_.get(), "slowlog clear");
  EXPECT_EQ(cleared.text, "{\"ok\":true,\"cleared\":3}");
  AdminReply empty = RunOk(service_.get(), "slowlog");
  EXPECT_TRUE(empty.multi_line);
  EXPECT_EQ(empty.text, "");
}

TEST_F(ServiceAdminTest, MetricsAndPromReadTheRegistry) {
  Ask(1);
  AdminReply metrics = RunOk(service_.get(), "metrics");
  EXPECT_FALSE(metrics.multi_line);
  ExpectJson(metrics.text);
  EXPECT_NE(metrics.text.find("service.queries"), std::string::npos);

  AdminReply prom = RunOk(service_.get(), "prom");
  EXPECT_TRUE(prom.multi_line);
  EXPECT_NE(prom.text.find("# TYPE rdfopt_service_queries"),
            std::string::npos);
  // The terminator belongs to the transport.
  EXPECT_EQ(prom.text.find("# EOF"), std::string::npos);
  EXPECT_EQ(prom.text.back(), '\n');

  AdminReply reset = RunOk(service_.get(), "metrics reset");
  ExpectJson(reset.text);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("service.queries")->value(),
            0u);
}

TEST_F(ServiceAdminTest, WithoutServiceOnlyRegistryCommandsRun) {
  ExpectJson(RunOk(nullptr, "metrics").text);
  EXPECT_TRUE(RunOk(nullptr, "prom").multi_line);
  for (const char* line : {"stats", "views", "slowlog"}) {
    Result<AdminReply> reply = RunAdminCommand(nullptr, line);
    ASSERT_FALSE(reply.ok()) << line;
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(ServiceAdminTest, RejectsMalformedCommands) {
  for (const char* line :
       {"slowlog ms abc", "slowlog ms", "slowlog ms -1", "slowlog ms 5x",
        "slowlog x", "slowlog 0", "slowlog 2 3", "stats now", "views all",
        "metrics prom", "prom 1", "bogus", "", "   "}) {
    Result<AdminReply> reply = RunAdminCommand(service_.get(), line);
    ASSERT_FALSE(reply.ok()) << "'" << line << "'";
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument) << line;
  }
  // A rejected threshold leaves the old one in place.
  EXPECT_DOUBLE_EQ(service_->slow_log()->threshold_ms(), 0.0);
}

// Admin reads race queries and epoch bumps: every reply stays well-formed.
// (The suite name carries "Service", so the TSan job runs this too.)
TEST_F(ServiceAdminTest, CommandsRunConcurrentlyWithAnswersAndUpdates) {
  std::vector<Triple> deltas;
  for (int i = 0; i < 8; ++i) {
    const std::string n = std::to_string(i);
    deltas.push_back(Triple{graph_.dict().InternIri("http://ex/p" + n),
                            graph_.dict().InternIri("http://ex/knows"),
                            graph_.dict().InternIri("http://ex/q" + n)});
  }
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      EXPECT_TRUE(service_->AnswerText(kQuery).ok());
    }
  });
  std::thread writer([&] {
    for (const Triple& t : deltas) {
      EXPECT_TRUE(service_->ApplyUpdate({t}).ok());
    }
  });
  for (int round = 0; round < 20; ++round) {
    for (const char* line : {"stats", "views", "metrics"}) {
      ExpectJson(RunOk(service_.get(), line).text);
    }
    for (const std::string& line :
         SplitLines(RunOk(service_.get(), "slowlog 4").text)) {
      ExpectJson(line);
    }
    RunOk(service_.get(), "prom");
    if (round % 5 == 0) RunOk(service_.get(), "slowlog clear");
  }
  writer.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(service_->epoch(), deltas.size());
  EXPECT_NE(RunOk(service_.get(), "stats").text.find("\"epoch\":8"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Dataset specs and the PREFIX preamble
// ---------------------------------------------------------------------------

Status LoadStatus(const std::vector<std::string>& args) {
  Graph graph;
  size_t next = 0;
  return LoadDataset(args, &next, &graph).status();
}

TEST(ServiceAdminDatasetTest, GeneratesLubmAndAdvancesPastTheSpec) {
  Graph graph;
  const std::vector<std::string> args = {"--lubm", "1", "--port", "9"};
  size_t next = 0;
  Result<std::string> preamble = LoadDataset(args, &next, &graph);
  ASSERT_TRUE(preamble.ok()) << preamble.status().ToString();
  EXPECT_EQ(preamble.ValueOrDie(),
            "PREFIX ub: <http://lubm.example.org/univ#>\n");
  EXPECT_EQ(next, 2u);
  EXPECT_GT(graph.num_data_triples(), 0u);
}

TEST(ServiceAdminDatasetTest, LoadsNTriplesFileWithoutPreamble) {
  const std::string path = ::testing::TempDir() + "/rdfopt_admin_test_" +
                           std::to_string(getpid()) + ".nt";
  {
    std::ofstream out(path);
    out << "<http://ex/a> <http://ex/p> <http://ex/b> .\n";
  }
  Graph graph;
  size_t next = 0;
  Result<std::string> preamble = LoadDataset({path}, &next, &graph);
  std::remove(path.c_str());
  ASSERT_TRUE(preamble.ok()) << preamble.status().ToString();
  EXPECT_EQ(preamble.ValueOrDie(), "");
  EXPECT_EQ(next, 1u);
  EXPECT_EQ(graph.num_data_triples(), 1u);
}

TEST(ServiceAdminDatasetTest, RejectsBadSpecs) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--lubm", "x"},
                                             {"--lubm", "0"},
                                             {"--lubm"},
                                             {"--dblp", "-5"},
                                             {"--dblp", "12abc"},
                                             {"--bogus"},
                                             {}}) {
    Status st = LoadStatus(args);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << (args.empty() ? "<none>" : args[0]) << ": " << st.ToString();
  }
  EXPECT_EQ(LoadStatus({"/nonexistent/rdfopt/data.nt"}).code(),
            StatusCode::kNotFound);
}

TEST(ServiceAdminDatasetTest, PreambleOnlyForQueriesWithoutPrefixes) {
  const std::string preamble = "PREFIX ub: <http://u#>\n";
  EXPECT_EQ(WithPreamble(preamble, "SELECT ?x WHERE { ?x ub:p ?y }"),
            preamble + "SELECT ?x WHERE { ?x ub:p ?y }");
  EXPECT_EQ(WithPreamble(preamble, "PREFIX a: <http://a#> ASK { ?x a:p ?y }"),
            "PREFIX a: <http://a#> ASK { ?x a:p ?y }");
  EXPECT_EQ(WithPreamble(preamble, "prefix a: <http://a#> ASK { ?x a:p ?y }"),
            "prefix a: <http://a#> ASK { ?x a:p ?y }");
  EXPECT_EQ(WithPreamble("", "ASK { ?x ?p ?y }"), "ASK { ?x ?p ?y }");
}

// The number parsers the server's flags and the shell's `.threads` use:
// the whole string must be the number.
TEST(ServiceAdminParseTest, CountIsAWholePositiveInteger) {
  size_t n = 0;
  EXPECT_TRUE(ParseCount("1", &n));
  EXPECT_EQ(n, 1u);
  EXPECT_TRUE(ParseCount("65535", &n));
  EXPECT_EQ(n, 65535u);
  for (const char* bad : {"", "0", "abc", "x", "-1", "+1", " 1", "1 ", "8094x",
                          "1.5", "99999999999999999999999"}) {
    EXPECT_FALSE(ParseCount(bad, &n)) << "'" << bad << "'";
  }
}

TEST(ServiceAdminParseTest, MsIsAWholeFiniteNonNegativeNumber) {
  double ms = -1.0;
  EXPECT_TRUE(ParseMs("0", &ms));
  EXPECT_DOUBLE_EQ(ms, 0.0);
  EXPECT_TRUE(ParseMs("12.5", &ms));
  EXPECT_DOUBLE_EQ(ms, 12.5);
  for (const char* bad :
       {"", "abc", "-1", "-0.5", "nan", "inf", "1e999", "5ms", " 5", "5 "}) {
    EXPECT_FALSE(ParseMs(bad, &ms)) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace rdfopt
