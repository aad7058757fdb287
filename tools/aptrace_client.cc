// aptrace_client — command-line client for aptrace_serverd.
//
//   aptrace_client <op> [--socket=<path>] [--tcp-port=N] [flags]
//       Connects to the daemon (unix socket from --socket or the
//       APTRACE_SERVER_SOCKET env var; or loopback TCP) and speaks the
//       line-delimited JSON protocol of docs/service.md.
//
//   Ops:
//     open --script=<file.bdl> [--weight=N] [--window-budget=N]
//          [--sim-budget-us=N] [--start-event=N]
//         Open a session; prints its id.
//     run --script=<file.bdl> [open flags] [--json=<file>] [--quiet]
//         [--profile]
//         Open a session, poll it to completion streaming update lines,
//         then fetch the final graph. --json writes the exact graph
//         bytes the daemon serves (byte-identical to `aptrace run
//         --json` on the same trace and script). --profile additionally
//         fetches the query profile and prints the per-hop / per-rule
//         breakdown table plus one machine-readable `profile:` line.
//         --resume=<ckpt> (alias --from=) resumes a checkpointed session
//         instead of opening a fresh script, then polls it to completion
//         the same way.
//     poll --session=N [--cursor=N] [--max=N]
//         One poll; prints the raw JSON response.
//     cancel --session=N
//     checkpoint --session=N --out=<file>
//     resume --from=<file> [open flags]
//     stats [--session=N]
//     profile --session=N
//         Query profile of a session: the rendered breakdown table plus
//         the raw response line (see docs/observability.md).
//     http --path=</metrics|/healthz|/readyz|/sessions>
//         One HTTP GET over the daemon socket — a curl-free scrape.
//         Prints the response body; exits nonzero unless the status is
//         200.
//     top [--interval-ms=N] [--iterations=N]
//         Refreshing per-session view over /sessions: scheduler state,
//         fair-share vtime, consumed sim time, and windows/s +
//         sim-micros/s rates from scrape deltas. --iterations=0 (the
//         default) refreshes until interrupted.
//     ingest --events=<file>       file holds a JSON array of events
//     shutdown                     ask the daemon to drain and exit
//     connect
//         Interactive shell: each line typed is sent as one protocol
//         request (raw JSON passes through; `ops` lists shorthand forms
//         like `poll 3` and `stats` that are expanded for you).
//
//   Every response is a single JSON line; errors carry an SRV-E0xx code
//   and the client exits nonzero.

#include <sys/socket.h>
#include <sys/un.h>
#include <netinet/in.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "core/query_profile.h"
#include "obs/json_dict.h"
#include "service/json.h"
#include "util/env.h"
#include "util/string_util.h"

namespace aptrace {
namespace {

struct Flags {
  std::string op;
  std::string socket_path;
  int tcp_port = -1;
  std::string script_path;
  std::string json_path;
  std::string out_path;
  std::string from_path;
  std::string events_path;
  uint64_t session = 0;
  bool has_session = false;
  uint64_t cursor = 0;
  uint64_t max = 0;
  uint64_t weight = 1;
  long window_budget = -1;
  long sim_budget_us = -1;
  long start_event = -1;
  bool quiet = false;
  bool profile = false;
  std::string http_path;
  uint64_t interval_ms = 1000;
  uint64_t iterations = 0;
  bool ok = true;
};

bool TakeValue(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

bool ParseU64(const char* flag, const std::string& value, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0') {
    std::fprintf(stderr,
                 "%s: error[CLI-E001]: expected a non-negative integer, "
                 "got '%s'\n",
                 flag, value.c_str());
    return false;
  }
  *out = n;
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: aptrace_client "
      "<open|run|poll|cancel|checkpoint|resume|stats|profile|http|top|"
      "ingest|shutdown|connect> [flags]\n"
      "  see the header comment of tools/aptrace_client.cc or "
      "docs/service.md\n");
  return 2;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  if (argc >= 2) f.op = argv[1];
  if (auto s = GetValidatedEnv(
          kEnvServerSocket,
          [](const std::string& v) { return !v.empty(); },
          "a non-empty unix socket path")) {
    f.socket_path = *s;
  }
  std::string v;
  uint64_t n = 0;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    if (TakeValue(a, "--socket", &f.socket_path) ||
        TakeValue(a, "--script", &f.script_path) ||
        TakeValue(a, "--json", &f.json_path) ||
        TakeValue(a, "--out", &f.out_path) ||
        TakeValue(a, "--from", &f.from_path) ||
        TakeValue(a, "--resume", &f.from_path) ||  // alias of --from
        TakeValue(a, "--events", &f.events_path) ||
        TakeValue(a, "--path", &f.http_path)) {
      continue;
    }
    if (TakeValue(a, "--tcp-port", &v)) {
      if (ParseU64("--tcp-port", v, &n) && n <= 65535) {
        f.tcp_port = static_cast<int>(n);
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--session", &v)) {
      if (ParseU64("--session", v, &f.session)) {
        f.has_session = true;
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--cursor", &v)) {
      if (!ParseU64("--cursor", v, &f.cursor)) f.ok = false;
    } else if (TakeValue(a, "--max", &v)) {
      if (!ParseU64("--max", v, &f.max)) f.ok = false;
    } else if (TakeValue(a, "--weight", &v)) {
      if (!ParseU64("--weight", v, &f.weight)) f.ok = false;
    } else if (TakeValue(a, "--window-budget", &v)) {
      if (ParseU64("--window-budget", v, &n)) {
        f.window_budget = static_cast<long>(n);
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--sim-budget-us", &v)) {
      if (ParseU64("--sim-budget-us", v, &n)) {
        f.sim_budget_us = static_cast<long>(n);
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--start-event", &v)) {
      if (ParseU64("--start-event", v, &n)) {
        f.start_event = static_cast<long>(n);
      } else {
        f.ok = false;
      }
    } else if (TakeValue(a, "--interval-ms", &v)) {
      if (!ParseU64("--interval-ms", v, &f.interval_ms)) {
        f.ok = false;
      } else if (f.interval_ms == 0) {
        std::fprintf(stderr,
                     "--interval-ms: error[CLI-E001]: expected a positive "
                     "integer\n");
        f.ok = false;
      }
    } else if (TakeValue(a, "--iterations", &v)) {
      if (!ParseU64("--iterations", v, &f.iterations)) f.ok = false;
    } else if (std::strcmp(a, "--quiet") == 0) {
      f.quiet = true;
    } else if (std::strcmp(a, "--profile") == 0) {
      f.profile = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      f.ok = false;
    }
  }
  return f;
}

/// One connection to the daemon: send a JSON line, read a JSON line.
class Connection {
 public:
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }

  bool Open(const Flags& flags) {
    if (!flags.socket_path.empty()) {
      fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) return Fail("socket");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (flags.socket_path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "socket path too long: %s\n",
                     flags.socket_path.c_str());
        return false;
      }
      std::strncpy(addr.sun_path, flags.socket_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0) {
        return Fail(("connect " + flags.socket_path).c_str());
      }
      return true;
    }
    if (flags.tcp_port >= 0) {
      fd_ = socket(AF_INET, SOCK_STREAM, 0);
      if (fd_ < 0) return Fail("socket");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<uint16_t>(flags.tcp_port));
      if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0) {
        return Fail("connect 127.0.0.1");
      }
      return true;
    }
    std::fprintf(stderr,
                 "no daemon address: pass --socket=<path> (or set %s) or "
                 "--tcp-port=N\n",
                 kEnvServerSocket);
    return false;
  }

  /// Round trip: one request line out, one response line back.
  bool Call(const std::string& request, std::string* response) {
    if (!SendAll(request + "\n")) return false;
    size_t nl = 0;
    while ((nl = pending_.find('\n')) == std::string::npos) {
      char buf[4096];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Fail("recv (daemon closed the connection)");
      pending_.append(buf, static_cast<size_t>(n));
    }
    *response = pending_.substr(0, nl);
    pending_.erase(0, nl + 1);
    return true;
  }

  /// One HTTP GET over the same socket (the daemon sniffs the dialect):
  /// sends the request, reads to EOF — the server closes after one
  /// response — and splits status from body. Consumes the connection.
  bool HttpGet(const std::string& path, int* status, std::string* body) {
    if (!SendAll("GET " + path +
                 " HTTP/1.1\r\nHost: aptrace\r\nConnection: close\r\n\r\n")) {
      return false;
    }
    std::string raw;
    for (;;) {
      char buf[4096];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return Fail("recv");
      if (n == 0) break;
      raw.append(buf, static_cast<size_t>(n));
    }
    const size_t header_end = raw.find("\r\n\r\n");
    if (header_end == std::string::npos ||
        std::sscanf(raw.c_str(), "HTTP/%*s %d", status) != 1) {
      std::fprintf(stderr, "malformed HTTP response from daemon\n");
      return false;
    }
    *body = raw.substr(header_end + 4);
    return true;
  }

 private:
  bool SendAll(const std::string& out) {
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = send(fd_, out.data() + off, out.size() - off, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Fail("send");
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  static bool Fail(const char* what) {
    std::fprintf(stderr, "%s: %s\n", what,
                 aptrace::ErrnoMessage(errno).c_str());
    return false;
  }

  int fd_ = -1;
  std::string pending_;
};

/// Applies the shared open/resume flags to a request dict.
void AddOpenOptions(const Flags& flags, obs::JsonDict* d) {
  d->Add("weight", flags.weight);
  if (flags.window_budget >= 0) {
    d->Add("window_budget", static_cast<uint64_t>(flags.window_budget));
  }
  if (flags.sim_budget_us >= 0) {
    d->Add("sim_budget", static_cast<int64_t>(flags.sim_budget_us));
  }
  if (flags.start_event >= 0) {
    d->Add("start_event", static_cast<uint64_t>(flags.start_event));
  }
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Parses a response line; exits with the server's error text on !ok.
service::JsonValue MustParse(const std::string& response) {
  auto parsed = service::ParseJson(response);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad response from daemon: %s\n",
                 response.c_str());
    // Single-threaded CLI; no other thread can race the exit handlers.
    std::exit(1);  // NOLINT(concurrency-mt-unsafe)
  }
  return std::move(parsed.value());
}

bool IsError(const service::JsonValue& resp) {
  return !resp.GetBool("ok", false);
}

int PrintError(const service::JsonValue& resp) {
  std::fprintf(stderr, "%s: %s\n", resp.GetString("code", "SRV-E001").c_str(),
               resp.GetString("error", "request failed").c_str());
  return 1;
}

/// `open` / `resume` round trip; returns the new session id or -1.
long OpenSession(Connection* conn, const Flags& flags) {
  obs::JsonDict d;
  if (flags.op == "resume" || !flags.from_path.empty()) {
    d.Add("op", "resume");
    d.Add("path", flags.from_path);
  } else {
    std::string script;
    if (!ReadFile(flags.script_path, &script)) return -1;
    d.Add("op", "open");
    d.Add("bdl", script);
  }
  AddOpenOptions(flags, &d);
  std::string response;
  if (!conn->Call(d.Str(), &response)) return -1;
  const auto resp = MustParse(response);
  if (IsError(resp)) {
    PrintError(resp);
    return -1;
  }
  return static_cast<long>(resp.GetUint("session"));
}

/// Polls `session` until a terminal state, streaming update lines.
/// Returns the terminal state name, or "" on a transport error.
std::string PollToEnd(Connection* conn, uint64_t session, bool quiet) {
  uint64_t cursor = 0;
  for (;;) {
    obs::JsonDict d;
    d.Add("op", "poll");
    d.Add("session", session);
    d.Add("cursor", cursor);
    std::string response;
    if (!conn->Call(d.Str(), &response)) return "";
    const auto resp = MustParse(response);
    if (IsError(resp)) {
      PrintError(resp);
      return "";
    }
    if (const service::JsonValue* batches = resp.Find("batches");
        batches != nullptr && batches->IsArray() && !quiet) {
      for (const service::JsonValue& b : batches->items) {
        std::printf("[seq %4llu] sim %lld: +%llu edges (%llu new nodes) "
                    "-> %llu edges / %llu nodes\n",
                    static_cast<unsigned long long>(b.GetUint("seq")),
                    static_cast<long long>(b.GetInt("sim_time")),
                    static_cast<unsigned long long>(b.GetUint("new_edges")),
                    static_cast<unsigned long long>(b.GetUint("new_nodes")),
                    static_cast<unsigned long long>(
                        b.GetUint("total_edges")),
                    static_cast<unsigned long long>(
                        b.GetUint("total_nodes")));
      }
    }
    cursor = resp.GetUint("next_cursor", cursor);
    if (resp.GetBool("terminal", false)) {
      const std::string state = resp.GetString("state");
      const std::string detail = resp.GetString("detail");
      if (!quiet) {
        std::printf("session %llu: %s%s%s\n",
                    static_cast<unsigned long long>(session), state.c_str(),
                    detail.empty() ? "" : " — ", detail.c_str());
      }
      return state;
    }
    // The daemon streams as it goes; a short client-side breather keeps
    // the poll loop from busy-spinning between quanta.
    usleep(2000);
  }
}

/// Fetches the final graph JSON; the value is the exact bytes the CLI's
/// --json output would contain.
bool FetchGraph(Connection* conn, uint64_t session, std::string* graph) {
  obs::JsonDict d;
  d.Add("op", "graph");
  d.Add("session", session);
  std::string response;
  if (!conn->Call(d.Str(), &response)) return false;
  const auto resp = MustParse(response);
  if (IsError(resp)) {
    PrintError(resp);
    return false;
  }
  *graph = resp.GetString("graph");
  return true;
}

ProfileBucket BucketFromJson(const service::JsonValue& v) {
  ProfileBucket b;
  b.windows = v.GetUint("windows");
  b.rows = v.GetUint("rows");
  b.rows_filtered = v.GetUint("rows_filtered");
  b.partitions_probed = v.GetUint("partitions_probed");
  b.segments_pruned = v.GetUint("segments_pruned");
  b.edges = v.GetUint("edges");
  b.sim_cost = static_cast<DurationMicros>(v.GetUint("sim_cost_micros"));
  b.wall_micros = v.GetUint("wall_micros");
  return b;
}

/// Rebuilds a QueryProfile from the daemon's profile JSON so the client
/// renders exactly the table `aptrace run --profile` prints locally.
QueryProfile ProfileFromJson(const service::JsonValue& p) {
  QueryProfile q;
  if (const service::JsonValue* total = p.Find("total")) {
    q.total = BucketFromJson(*total);
  }
  q.boosted_windows = p.GetUint("boosted_windows");
  if (const service::JsonValue* hops = p.Find("by_hop");
      hops != nullptr && hops->IsArray()) {
    for (const service::JsonValue& b : hops->items) {
      q.by_hop[static_cast<int>(b.GetInt("hop"))] = BucketFromJson(b);
    }
  }
  if (const service::JsonValue* states = p.Find("by_state");
      states != nullptr && states->IsArray()) {
    for (const service::JsonValue& b : states->items) {
      q.by_state[static_cast<int>(b.GetInt("state"))] = BucketFromJson(b);
    }
  }
  return q;
}

/// `profile` round trip: prints the rendered breakdown table, then the
/// raw response as one `profile:` line (it carries scan_cost_micros and
/// work_units, so scripts can reconcile totals without re-asking).
int CmdProfile(Connection* conn, uint64_t session) {
  obs::JsonDict d;
  d.Add("op", "profile");
  d.Add("session", session);
  std::string response;
  if (!conn->Call(d.Str(), &response)) return 1;
  const auto resp = MustParse(response);
  if (IsError(resp)) return PrintError(resp);
  const service::JsonValue* p = resp.Find("profile");
  if (p == nullptr || !p->IsObject()) {
    std::fprintf(stderr, "profile response carried no profile object\n");
    return 1;
  }
  const std::string unit = resp.GetString("probe_unit", "probe");
  std::fputs(
      RenderQueryProfileTable(ProfileFromJson(*p), unit.c_str()).c_str(),
      stdout);
  std::printf("profile: %s\n", response.c_str());
  return 0;
}

int CmdRun(Connection* conn, const Flags& flags) {
  if (flags.script_path.empty() && flags.from_path.empty()) return Usage();
  const long session = OpenSession(conn, flags);
  if (session < 0) return 1;
  if (!flags.quiet) std::printf("session %ld opened\n", session);
  const std::string state =
      PollToEnd(conn, static_cast<uint64_t>(session), flags.quiet);
  if (state.empty()) return 1;
  std::string graph;
  if (!FetchGraph(conn, static_cast<uint64_t>(session), &graph)) return 1;
  if (flags.json_path.empty()) {
    std::fputs(graph.c_str(), stdout);
    if (graph.empty() || graph.back() != '\n') std::fputc('\n', stdout);
  } else {
    std::ofstream out(flags.json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.json_path.c_str());
      return 1;
    }
    out << graph;
    if (!flags.quiet) {
      std::printf("graph written to %s\n", flags.json_path.c_str());
    }
  }
  if (flags.profile &&
      CmdProfile(conn, static_cast<uint64_t>(session)) != 0) {
    return 1;
  }
  return state == "done" ? 0 : 1;
}

int CmdHttp(Connection* conn, const Flags& flags) {
  if (flags.http_path.empty() || flags.http_path.front() != '/') {
    std::fprintf(stderr,
                 "http: pass --path=</metrics|/healthz|/readyz|/sessions>\n");
    return 2;
  }
  int status = 0;
  std::string body;
  if (!conn->HttpGet(flags.http_path, &status, &body)) return 1;
  std::fputs(body.c_str(), stdout);
  if (status != 200) {
    std::fprintf(stderr, "http: %s -> %d\n", flags.http_path.c_str(),
                 status);
    return 1;
  }
  return 0;
}

/// What `top` remembers between refreshes to turn per-session counters
/// into rates.
struct TopPrev {
  uint64_t work_units = 0;
  int64_t sim_micros = 0;
};

/// Refreshing per-session monitor over /sessions. Each scrape is its own
/// connection (the daemon serves one HTTP response per connection);
/// windows/s and sim-micros/s come from deltas between scrapes divided
/// by the *measured* wall time between them (connect and scrape latency
/// would skew rates computed from the configured interval), so the
/// fair-share behavior of concurrent sessions is visible live. A counter
/// that went backwards — daemon restart — prints "-" for one refresh
/// instead of an underflowed rate.
int CmdTop(const Flags& flags) {
  std::map<uint64_t, TopPrev> prev;
  std::chrono::steady_clock::time_point prev_scrape{};
  const bool tty = isatty(fileno(stdout)) != 0;
  for (uint64_t i = 0; flags.iterations == 0 || i < flags.iterations; ++i) {
    if (i > 0) usleep(static_cast<useconds_t>(flags.interval_ms) * 1000);
    Connection conn;
    if (!conn.Open(flags)) return 1;
    int status = 0;
    std::string body;
    if (!conn.HttpGet("/sessions", &status, &body)) return 1;
    if (status != 200) {
      std::fprintf(stderr, "top: /sessions -> %d\n", status);
      return 1;
    }
    const auto scrape_time = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(scrape_time - prev_scrape).count();
    const auto doc = MustParse(body);
    const service::JsonValue* sessions = doc.Find("sessions");
    const bool have_rows = sessions != nullptr && sessions->IsArray();
    if (tty) std::fputs("\x1b[H\x1b[2J", stdout);
    std::printf("aptrace top — %zu session%s%s (refresh %llums)\n",
                have_rows ? sessions->items.size() : 0,
                have_rows && sessions->items.size() == 1 ? "" : "s",
                doc.GetBool("draining") ? ", DRAINING" : "",
                static_cast<unsigned long long>(flags.interval_ms));
    std::printf("%6s %-10s %4s %12s %12s %9s %9s %5s %9s %11s\n", "id",
                "state", "wt", "vtime", "sim_ms", "windows", "edges", "buf",
                "win/s", "sim_us/s");
    std::map<uint64_t, TopPrev> next;
    if (have_rows) {
      for (const service::JsonValue& row : sessions->items) {
        const uint64_t id = row.GetUint("id");
        std::string state = row.GetString("state");
        if (row.GetBool("stalled")) state += "!";
        const service::JsonValue* vt = row.Find("vtime");
        const uint64_t work = row.GetUint("work_units");
        const int64_t sim = row.GetInt("sim_micros");
        char win_rate[32] = "-";
        char sim_rate[32] = "-";
        if (const auto it = prev.find(id);
            it != prev.end() && secs > 0.0) {
          if (work >= it->second.work_units) {
            std::snprintf(win_rate, sizeof(win_rate), "%.1f",
                          static_cast<double>(work - it->second.work_units) /
                              secs);
          }
          if (sim >= it->second.sim_micros) {
            std::snprintf(sim_rate, sizeof(sim_rate), "%.0f",
                          static_cast<double>(sim - it->second.sim_micros) /
                              secs);
          }
        }
        std::printf("%6llu %-10s %4llu %12.0f %12.1f %9llu %9llu %5llu "
                    "%9s %11s\n",
                    static_cast<unsigned long long>(id), state.c_str(),
                    static_cast<unsigned long long>(row.GetUint("weight")),
                    vt != nullptr ? vt->num_v : 0.0,
                    static_cast<double>(sim) / 1000.0,
                    static_cast<unsigned long long>(work),
                    static_cast<unsigned long long>(
                        row.GetUint("graph_edges")),
                    static_cast<unsigned long long>(
                        row.GetUint("buffered_updates")),
                    win_rate, sim_rate);
        next[id] = TopPrev{work, sim};
      }
    }
    prev = std::move(next);
    prev_scrape = scrape_time;
    std::fflush(stdout);
  }
  return 0;
}

/// Expands the connect shell's shorthand lines into protocol requests;
/// raw JSON (a line starting with '{') passes through untouched.
std::string ExpandShorthand(const std::string& line) {
  std::istringstream in(line);
  std::string word;
  in >> word;
  obs::JsonDict d;
  uint64_t n = 0;
  if (word == "poll" || word == "cancel" || word == "graph") {
    d.Add("op", word);
    if (in >> n) d.Add("session", n);
    return d.Str();
  }
  if (word == "stats" || word == "shutdown") {
    d.Add("op", word);
    if (word == "stats" && in >> n) d.Add("session", n);
    return d.Str();
  }
  return "";
}

int CmdConnect(Connection* conn) {
  std::printf("aptrace_client: connected; raw JSON or shorthand "
              "(`ops` lists them, `quit` exits)\n");
  std::string line;
  while (std::printf("> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == "quit" || line == "exit") break;
    if (line == "ops") {
      std::printf("  poll <id> | cancel <id> | graph <id> | stats [id] | "
                  "shutdown | raw JSON request\n");
      continue;
    }
    std::string request = line;
    if (line[0] != '{') {
      request = ExpandShorthand(line);
      if (request.empty()) {
        std::printf("  unknown command (try `ops`)\n");
        continue;
      }
    }
    std::string response;
    if (!conn->Call(request, &response)) return 1;
    std::printf("%s\n", response.c_str());
    if (line == "shutdown") break;
  }
  return 0;
}

int Main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  if (!flags.ok || flags.op.empty()) return Usage();

  // `top` owns its connections: one scrape per connection, per refresh.
  if (flags.op == "top") return CmdTop(flags);

  Connection conn;
  if (!conn.Open(flags)) return 1;

  if (flags.op == "run") return CmdRun(&conn, flags);
  if (flags.op == "connect") return CmdConnect(&conn);
  if (flags.op == "http") return CmdHttp(&conn, flags);
  if (flags.op == "profile") {
    if (!flags.has_session) return Usage();
    return CmdProfile(&conn, flags.session);
  }

  obs::JsonDict d;
  if (flags.op == "open") {
    if (flags.script_path.empty()) return Usage();
    std::string script;
    if (!ReadFile(flags.script_path, &script)) return 1;
    d.Add("op", "open");
    d.Add("bdl", script);
    AddOpenOptions(flags, &d);
  } else if (flags.op == "resume") {
    if (flags.from_path.empty()) return Usage();
    d.Add("op", "resume");
    d.Add("path", flags.from_path);
    AddOpenOptions(flags, &d);
  } else if (flags.op == "poll") {
    if (!flags.has_session) return Usage();
    d.Add("op", "poll");
    d.Add("session", flags.session);
    d.Add("cursor", flags.cursor);
    if (flags.max > 0) d.Add("max", flags.max);
  } else if (flags.op == "cancel" || flags.op == "graph") {
    if (!flags.has_session) return Usage();
    d.Add("op", flags.op);
    d.Add("session", flags.session);
  } else if (flags.op == "checkpoint") {
    if (!flags.has_session || flags.out_path.empty()) return Usage();
    d.Add("op", "checkpoint");
    d.Add("session", flags.session);
    d.Add("path", flags.out_path);
  } else if (flags.op == "stats") {
    d.Add("op", "stats");
    if (flags.has_session) d.Add("session", flags.session);
  } else if (flags.op == "ingest") {
    if (flags.events_path.empty()) return Usage();
    std::string events;
    if (!ReadFile(flags.events_path, &events)) return 1;
    while (!events.empty() &&
           (events.back() == '\n' || events.back() == '\r' ||
            events.back() == ' ')) {
      events.pop_back();
    }
    d.Add("op", "ingest");
    d.AddRaw("events", events);
  } else if (flags.op == "shutdown") {
    d.Add("op", "shutdown");
  } else {
    return Usage();
  }

  std::string response;
  if (!conn.Call(d.Str(), &response)) return 1;
  std::printf("%s\n", response.c_str());
  return IsError(MustParse(response)) ? 1 : 0;
}

}  // namespace
}  // namespace aptrace

int main(int argc, char** argv) { return aptrace::Main(argc, argv); }
