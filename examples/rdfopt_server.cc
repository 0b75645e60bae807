// Minimal TCP front end over the QueryService (DESIGN.md §10): the serving
// deployment of the library. Loads a dataset, builds one shared service and
// answers queries for any number of concurrent clients, one per connection.
// Caching, admission and epochs come from the service, admin commands from
// service/admin.h; this file is only sockets and framing.
//
// Usage:
//   rdfopt_server [--port N] [--max-rows N] [--slow-ms X] [--views on|off]
//                 <file.nt> | --lubm <universities> | --dblp <publications>
// --port is 1..65535, --max-rows a positive integer, --slow-ms a finite
// number >= 0; any other value prints the usage and exits with status 2.
//
// Line protocol (README "Serving"; try `nc localhost 8094`): one request
// per line, one JSON line back.
//   <SPARQL query>    {"ok":true,"columns":[...],"rows":[...],"row_count":N,
//                     "cache_hit":...} or {"ok":false,"error":"..."}; rows
//                     are capped at --max-rows (default 100)
//   !<admin command>  the admin-command table of README "Serving": !stats,
//                     !views, !slowlog [N|ms X|clear], !metrics [reset],
//                     !prom. Multi-line replies end with a "# EOF" line
//   !quit / !shutdown close this connection / stop the server (draining
//                     open connections)
// Views are on by default here (--views off disables them).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.h"
#include "service/admin.h"
#include "service/query_service.h"

namespace {

using namespace rdfopt;

struct ServerState {
  QueryService* service = nullptr;
  std::string preamble;  // PREFIX declarations prepended to bare queries.
  size_t max_rows = 100;
  std::atomic<bool> shutting_down{false};
  int listen_fd = -1;

  // Open client sockets, so !shutdown can unblock their reads.
  std::mutex clients_mu;
  std::set<int> clients;
};

/// Writes all of `text` plus a trailing newline; false once the peer is gone.
bool SendLine(int fd, const std::string& text) {
  std::string out = text;
  out += '\n';
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string ErrorResponse(const Status& status) {
  JsonWriter json;
  json.BeginObject().Key("ok").Value(false);
  json.Key("error").Value(status.ToString()).EndObject();
  return json.TakeString();
}

std::string QueryResponse(ServerState* state, const std::string& line) {
  Result<ServiceOutcome> result =
      state->service->AnswerText(WithPreamble(state->preamble, line));
  if (!result.ok()) return ErrorResponse(result.status());
  const ServiceOutcome& o = result.ValueOrDie();
  JsonWriter json;
  json.BeginObject();
  json.Key("ok").Value(true);
  json.Key("columns").BeginArray();
  for (const std::string& name : o.columns) json.Value(name);
  json.EndArray();
  const size_t shown = std::min(o.answers.num_rows(), state->max_rows);
  json.Key("rows").BeginArray();
  for (size_t i = 0; i < shown; ++i) {
    json.BeginArray();
    for (const std::string& term : state->service->DecodeRow(o.answers, i)) {
      json.Value(term);
    }
    json.EndArray();
  }
  json.EndArray();
  json.Key("row_count").Value(uint64_t{o.answers.num_rows()});
  json.Key("truncated").Value(o.answers.num_rows() > shown);
  json.Key("cache_hit").Value(o.cache_hit);
  json.Key("epoch").Value(uint64_t{o.epoch});
  json.Key("queue_wait_ms").Value(o.queue_wait_ms);
  json.Key("evaluate_ms").Value(o.evaluate_ms);
  json.Key("total_ms").Value(o.total_ms);
  json.EndObject();
  return json.TakeString();
}

/// "!<command>": the shared admin layer's reply, framed for the socket.
std::string AdminResponse(ServerState* state, const std::string& line) {
  Result<AdminReply> reply = RunAdminCommand(state->service, line);
  if (!reply.ok()) return ErrorResponse(reply.status());
  // SendLine adds the newline after the terminator.
  if (reply.ValueOrDie().multi_line) return reply.ValueOrDie().text + "# EOF";
  return reply.ValueOrDie().text;
}

/// One connection: buffered line reads, one JSON line back per request.
void ServeConnection(ServerState* state, int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;  // Peer closed (or !shutdown shut the socket down).
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line == "!quit") break;
    if (line == "!shutdown") {
      SendLine(fd, "{\"ok\":true,\"shutting_down\":true}");
      state->shutting_down.store(true);
      // Unblock the accept loop; it drains the remaining connections.
      ::shutdown(state->listen_fd, SHUT_RDWR);
      break;
    }
    const std::string response = line[0] == '!'
                                     ? AdminResponse(state, line.substr(1))
                                     : QueryResponse(state, line);
    if (!SendLine(fd, response)) break;
  }
  {
    // Deregister before close: once closed the fd number is reusable, and
    // the set must never hold a number that now names someone else's socket.
    std::lock_guard<std::mutex> lock(state->clients_mu);
    state->clients.erase(fd);
  }
  ::close(fd);
}

int Usage() {
  std::fprintf(stderr,
               "usage: rdfopt_server [--port N] [--max-rows N] [--slow-ms X] "
               "[--views on|off] "
               "<file.nt> | --lubm <universities> | --dblp <publications>\n"
               "admin commands (!stats, !views, !slowlog, !metrics, !prom): "
               "README \"Serving\"\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 8094;
  double slow_ms = -1.0;  // < 0: keep the service default.
  bool enable_views = true;  // The serving deployment wants warm fragments.
  std::vector<std::string> args(argv + 1, argv + argc);
  Graph graph;
  ServerState state;
  bool loaded = false;
  for (size_t i = 0; i < args.size();) {
    const std::string& flag = args[i];
    const std::string value = i + 1 < args.size() ? args[i + 1] : "";
    size_t n = 0;
    bool valid = true;
    if (flag == "--port") {
      valid = ParseCount(value, &n) && n <= 65535;
      port = static_cast<uint16_t>(n);
    } else if (flag == "--max-rows") {
      valid = ParseCount(value, &state.max_rows);
    } else if (flag == "--slow-ms") {
      valid = ParseMs(value, &slow_ms);
    } else if (flag == "--views") {
      valid = value == "on" || value == "off";
      enable_views = value == "on";
    } else {
      Result<std::string> preamble = LoadDataset(args, &i, &graph);
      if (!preamble.ok()) {
        std::fprintf(stderr, "%s\n", preamble.status().ToString().c_str());
        return Usage();
      }
      state.preamble = preamble.TakeValue();
      loaded = true;
      continue;
    }
    if (!valid) {
      std::fprintf(stderr, "bad value '%s' for %s\n", value.c_str(),
                   flag.c_str());
      return Usage();
    }
    i += 2;
  }
  if (!loaded) return Usage();

  // A write on a connection the client already closed must surface as a
  // send() error, not kill the process.
  ::signal(SIGPIPE, SIG_IGN);

  EngineProfile profile = PostgresLikeProfile();
  ServiceOptions service_options;
  if (slow_ms >= 0.0) service_options.slow_query_ms = slow_ms;
  service_options.enable_views = enable_views;
  QueryService service(&graph, profile, service_options);
  state.service = &service;

  state.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (state.listen_fd < 0) {
    std::perror("socket");
    return 1;
  }
  int reuse = 1;
  ::setsockopt(state.listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse,
               sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(state.listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(state.listen_fd, 64) < 0) {
    std::perror("bind/listen");
    return 1;
  }
  std::printf("rdfopt_server: %zu data triples, serving on port %u "
              "(one query per line; !stats !metrics !prom !slowlog !views "
              "!quit !shutdown)\n",
              graph.data_triples().size(), static_cast<unsigned>(port));
  std::fflush(stdout);

  std::vector<std::thread> workers;
  while (!state.shutting_down.load()) {
    int fd = ::accept(state.listen_fd, nullptr, nullptr);
    if (fd < 0) break;  // listen_fd shut down or hard error.
    {
      std::lock_guard<std::mutex> lock(state.clients_mu);
      state.clients.insert(fd);
    }
    workers.emplace_back(ServeConnection, &state, fd);
  }

  // Drain: shut down every still-open connection so its read returns, then
  // join. ServeConnection erases fds as it exits; a stale fd here is fine
  // (shutdown on a closed fd just returns EBADF).
  {
    std::lock_guard<std::mutex> lock(state.clients_mu);
    for (int fd : state.clients) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : workers) t.join();
  ::close(state.listen_fd);
  std::printf("rdfopt_server: shut down (%s)\n",
              AdminResponse(&state, "stats").c_str());
  return 0;
}
