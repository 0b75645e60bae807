#ifndef RDFOPT_SERVICE_ADMIN_H_
#define RDFOPT_SERVICE_ADMIN_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdf/graph.h"
#include "service/query_service.h"

namespace rdfopt {

/// The operator surface of a QueryService (DESIGN.md §10): one command
/// table, parsed and rendered here. The shell (`.slowlog ...`) and the
/// server (`!slowlog ...`) forward these lines; README "Serving" has the
/// table with both spellings.
///
///   stats                  service counters: epoch, cache, admission
///   views                  view-catalog counters plus one entry per view
///   slowlog [N|ms X|clear] the newest N slow-log records (default all),
///                          set the threshold to X ms, or drop every record
///   metrics [reset]        the process metrics registry, or zero it
///   prom                   the registry in Prometheus text exposition
///
/// Single-line replies are one JSON object. `slowlog` listings and `prom`
/// are multi-line: one record per '\n'-terminated line and no terminator,
/// which is the transport's to add (the server's "# EOF").
struct AdminReply {
  std::string text;
  bool multi_line = false;
};

/// Runs one admin command line (no leading '.' or '!'). With a null
/// `service` only `metrics` and `prom` run. Errors are InvalidArgument.
Result<AdminReply> RunAdminCommand(QueryService* service,
                                   std::string_view line);

/// Loads the dataset spec `<file.nt> | --lubm N | --dblp N` that starts at
/// args[*next] into `graph` (schema not finalized) and advances *next past
/// it. N must be a positive integer. Returns the PREFIX preamble of the
/// generated vocabulary, "" for a file.
Result<std::string> LoadDataset(const std::vector<std::string>& args,
                                size_t* next, Graph* graph);

/// Whole-string parsers for numbers from outside the program (command
/// arguments, flags): no sign, blanks or trailing characters. ParseCount
/// accepts a positive integer, ParseMs a finite, non-negative number of
/// milliseconds. On failure they return false and `*out` is unspecified.
bool ParseCount(std::string_view text, size_t* out);
bool ParseMs(std::string_view text, double* out);

/// `text` with `preamble` prepended, unless the text declares prefixes.
std::string WithPreamble(std::string_view preamble, std::string_view text);

}  // namespace rdfopt

#endif  // RDFOPT_SERVICE_ADMIN_H_
