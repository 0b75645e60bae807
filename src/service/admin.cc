#include "service/admin.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "rdf/ntriples.h"
#include "workload/dblp.h"
#include "workload/lubm.h"

namespace rdfopt {

namespace {

using Args = std::vector<std::string>;

Args SplitWords(std::string_view line) {
  std::istringstream in{std::string(line)};
  Args words;
  for (std::string word; in >> word;) words.push_back(std::move(word));
  return words;
}

/// All of `text` as a number: no sign, blanks or trailing characters.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

Status Malformed(std::string_view usage) {
  return Status::InvalidArgument("usage: " + std::string(usage));
}

/// `{"ok":true,"<key>":<value>}`: the reply of a command that changes state.
template <typename T>
AdminReply Ack(std::string_view key, T value) {
  JsonWriter json;
  json.BeginObject().Key("ok").Value(true).Key(key).Value(value).EndObject();
  return AdminReply{json.TakeString()};
}

/// Writes `"key":value` members in order.
void Counters(JsonWriter& json,
              std::initializer_list<std::pair<std::string_view, uint64_t>>
                  counters) {
  for (const auto& [key, value] : counters) json.Key(key).Value(value);
}

Result<AdminReply> RunStats(QueryService* service, const Args& args) {
  if (!args.empty()) return Malformed("stats");
  const QueryService::Stats s = service->stats();
  JsonWriter json;
  json.BeginObject().Key("epoch").Value(uint64_t{s.epoch});
  json.Key("cache").BeginObject();
  Counters(json, {{"hits", s.cache.hits}, {"misses", s.cache.misses},
                  {"evictions", s.cache.evictions},
                  {"stale_puts", s.cache.stale_puts},
                  {"entries", s.cache.entries}, {"bytes", s.cache.bytes}});
  json.EndObject().Key("admission").BeginObject();
  Counters(json, {{"running", s.admission.running},
                  {"waiting", s.admission.waiting},
                  {"admitted", s.admission.admitted},
                  {"shed", s.admission.shed},
                  {"deadline_exceeded", s.admission.deadline_exceeded}});
  json.EndObject().EndObject();
  return AdminReply{json.TakeString()};
}

Result<AdminReply> RunViews(QueryService* service, const Args& args) {
  if (!args.empty()) return Malformed("views");
  const ViewCatalog* views = service->views();
  const ViewCatalogStats vs = views->stats();
  JsonWriter json;
  json.BeginObject().Key("enabled").Value(service->options().enable_views);
  Counters(json, {{"epoch", views->current_epoch()}, {"lookups", vs.lookups},
                  {"hits", vs.hits}, {"misses", vs.misses},
                  {"offers", vs.offers}, {"admitted", vs.admitted},
                  {"rejected", vs.rejected}, {"stale_offers", vs.stale_offers},
                  {"evictions", vs.evictions},
                  {"invalidations", vs.invalidations},
                  {"carry_forwards", vs.carry_forwards},
                  {"refreshes", vs.refreshes}, {"promotions", vs.promotions},
                  {"demotions", vs.demotions}, {"bytes", vs.bytes},
                  {"resident", vs.resident}, {"pinned", vs.pinned}});
  json.Key("entries").BeginArray();
  for (const ViewInfo& info : views->Entries()) {
    json.BeginObject().Key("signature").Value(info.signature);
    json.Key("pinned").Value(info.pinned);
    json.Key("resident").Value(info.resident);
    Counters(json, {{"epoch", info.epoch}, {"rows", info.rows},
                    {"bytes", info.bytes}, {"observations", info.observations},
                    {"hits", info.hits}, {"union_terms", info.union_terms}});
    json.Key("est_cost").Value(info.est_cost).EndObject();
  }
  json.EndArray().EndObject();
  return AdminReply{json.TakeString()};
}

Result<AdminReply> RunSlowlog(QueryService* service, const Args& args) {
  static constexpr std::string_view kUsage = "slowlog [N|ms X|clear]";
  SlowQueryLog* log = service->slow_log();
  if (args.size() == 1 && args[0] == "clear") {
    const uint64_t dropped = log->size();
    log->Clear();
    return Ack("cleared", dropped);
  }
  if (args.size() == 2 && args[0] == "ms") {
    double ms = 0.0;
    if (!ParseMs(args[1], &ms)) return Malformed(kUsage);
    log->set_threshold_ms(ms);
    return Ack("threshold_ms", ms);
  }
  size_t newest = 0;  // 0: every record.
  if (args.size() > 1 || (args.size() == 1 && !ParseCount(args[0], &newest))) {
    return Malformed(kUsage);
  }
  AdminReply reply{"", true};
  for (const std::string& line : log->Lines(newest)) {
    reply.text += line;
    reply.text += '\n';
  }
  return reply;
}

Result<AdminReply> RunMetrics(QueryService*, const Args& args) {
  if (args.size() == 1 && args[0] == "reset") {
    MetricsRegistry::Global().Reset();
    return Ack("reset", true);
  }
  if (!args.empty()) return Malformed("metrics [reset]");
  return AdminReply{MetricsRegistry::Global().ToJson(/*indent=*/0)};
}

Result<AdminReply> RunProm(QueryService*, const Args& args) {
  if (!args.empty()) return Malformed("prom");
  // The exposition ends in its own "# EOF" line; framing is the transport's.
  static constexpr std::string_view kEof = "# EOF\n";
  std::string text = MetricsRegistry::Global().ToPrometheusText();
  if (text.ends_with(kEof)) text.resize(text.size() - kEof.size());
  return AdminReply{std::move(text), true};
}

struct AdminCommand {
  std::string_view name;
  bool needs_service;
  Result<AdminReply> (*run)(QueryService*, const Args&);
};

constexpr AdminCommand kCommands[] = {
    {"stats", true, RunStats},       {"views", true, RunViews},
    {"slowlog", true, RunSlowlog},   {"metrics", false, RunMetrics},
    {"prom", false, RunProm},
};

}  // namespace

Result<AdminReply> RunAdminCommand(QueryService* service,
                                   std::string_view line) {
  Args words = SplitWords(line);
  if (words.empty()) return Status::InvalidArgument("empty admin command");
  for (const AdminCommand& command : kCommands) {
    if (command.name != words.front()) continue;
    if (command.needs_service && service == nullptr) {
      return Status::InvalidArgument(std::string(command.name) +
                                     " needs the query service");
    }
    return command.run(service, Args(words.begin() + 1, words.end()));
  }
  return Status::InvalidArgument("unknown admin command '" +
                                 std::string(words.front()) + "'");
}

Result<std::string> LoadDataset(const std::vector<std::string>& args,
                                size_t* next, Graph* graph) {
  if (*next >= args.size()) return Status::InvalidArgument("no dataset given");
  const std::string& head = args[(*next)++];
  if (head == "--lubm" || head == "--dblp") {
    size_t n = 0;
    if (*next >= args.size() || !ParseCount(args[*next], &n)) {
      return Status::InvalidArgument(head + " needs a positive integer");
    }
    ++*next;
    if (head == "--lubm") {
      GenerateLubm(LubmOptions{.num_universities = n}, graph);
      return std::string("PREFIX ub: <http://lubm.example.org/univ#>\n");
    }
    GenerateDblp(DblpOptions{.num_publications = n}, graph);
    return std::string("PREFIX bib: <http://dblp.example.org/bib#>\n");
  }
  if (head.starts_with("-")) {
    return Status::InvalidArgument("unknown option " + head);
  }
  std::ifstream in(head);
  if (!in) return Status::NotFound("cannot open " + head);
  std::stringstream data;
  data << in.rdbuf();
  RDFOPT_RETURN_NOT_OK(ParseNTriples(data.str(), graph));
  return std::string();
}

bool ParseCount(std::string_view text, size_t* out) {
  return ParseWhole(text, out) && *out > 0;
}

bool ParseMs(std::string_view text, double* out) {
  return ParseWhole(text, out) && std::isfinite(*out) && *out >= 0.0;
}

std::string WithPreamble(std::string_view preamble, std::string_view text) {
  const bool declares = text.find("PREFIX") != std::string_view::npos ||
                        text.find("prefix") != std::string_view::npos;
  return std::string(declares ? "" : preamble) + std::string(text);
}

}  // namespace rdfopt
