#include "dist/shard_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "dist/dist_error.h"
#include "dist/shard_service.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/env.h"
#include "util/string_util.h"

namespace aptrace::dist {

namespace {

struct DistMetrics {
  obs::Counter* rpcs;
  obs::Counter* retries;
  obs::Counter* shard_down;
};

const DistMetrics& Dm() {
  static const DistMetrics kMetrics = {
      obs::Metrics().FindOrCreateCounter(obs::names::kDistRpcs),
      obs::Metrics().FindOrCreateCounter(obs::names::kDistRetries),
      obs::Metrics().FindOrCreateCounter(obs::names::kDistShardDown),
  };
  return kMetrics;
}

/// Waits until `fd` polls ready for `events`; throws DST-E002 once
/// `deadline_at` has passed with `fd` still not ready. A socket that is
/// ready passes even after the deadline: a reply that arrived while the
/// caller was reading another shard's reply is not late.
void WaitReady(int fd, short events, int64_t deadline_at, const char* phase) {
  pollfd p{fd, events, 0};
  for (;;) {
    const int64_t left = deadline_at - MonotonicNowMicros();
    // Round up so a sub-millisecond remainder still waits.
    const int r =
        poll(&p, 1, left > 0 ? static_cast<int>((left + 999) / 1000) : 0);
    if (r > 0) return;
    if (r < 0 && errno != EINTR) {
      throw DistError(kDistErrEndpoint, "poll: " + ErrnoMessage(errno));
    }
    if (r == 0 && left <= 0) {
      throw DistError(kDistErrDeadline,
                      std::string("deadline exceeded during ") + phase);
    }
  }
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Maps a remote DST-E00x code string back onto the local constant so
/// rethrown errors keep a stable code() pointer.
const char* MapRemoteCode(const std::string& code) {
  for (const char* known :
       {kDistErrEndpoint, kDistErrDeadline, kDistErrProtocol,
        kDistErrIdentity, kDistErrUnavailable, kDistErrRemoteOp,
        kDistErrAppend}) {
    if (code == known) return known;
  }
  return kDistErrRemoteOp;
}

}  // namespace

std::string ShardEndpoint::ToString() const {
  if (!unix_path.empty()) return "unix:" + unix_path;
  return host + ":" + std::to_string(port);
}

Result<ShardEndpoint> ParseShardEndpoint(std::string_view text) {
  const std::string_view t = Trim(text);
  if (t.empty()) {
    return Status::InvalidArgument("empty shard endpoint");
  }
  ShardEndpoint ep;
  if (StartsWith(t, "unix:")) {
    ep.unix_path = std::string(t.substr(5));
    if (ep.unix_path.empty()) {
      return Status::InvalidArgument("empty unix socket path in endpoint");
    }
    return ep;
  }
  if (t.front() == '/') {
    ep.unix_path = std::string(t);
    return ep;
  }
  const size_t colon = t.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == t.size()) {
    return Status::InvalidArgument(
        "shard endpoint '" + std::string(t) +
        "' is neither host:port nor unix:<path>");
  }
  ep.host = std::string(t.substr(0, colon));
  const std::string port_str(t.substr(colon + 1));
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (*end != '\0' || port < 1 || port > 65535) {
    return Status::InvalidArgument("bad port in shard endpoint '" +
                                   std::string(t) + "'");
  }
  ep.port = static_cast<int>(port);
  return ep;
}

Result<std::vector<ShardEndpoint>> ParseShardEndpoints(std::string_view csv) {
  std::vector<ShardEndpoint> out;
  for (const std::string& piece : Split(csv, ',')) {
    if (Trim(piece).empty()) continue;
    auto ep = ParseShardEndpoint(piece);
    if (!ep.ok()) return ep.status();
    out.push_back(std::move(ep).value());
  }
  if (out.empty()) {
    return Status::InvalidArgument("no shard endpoints in '" +
                                   std::string(csv) + "'");
  }
  return out;
}

uint64_t DefaultDistDeadlineMicros() {
  if (const auto v = GetValidatedEnvCount(kEnvDistDeadlineMicros);
      v.has_value() && *v > 0) {
    return *v;
  }
  return 5'000'000;
}

ShardClient::ShardClient(ShardEndpoint endpoint, uint32_t shard,
                         StorageBackendKind expected_backend,
                         ShardClientOptions options)
    : endpoint_(std::move(endpoint)),
      shard_(shard),
      expected_backend_(expected_backend),
      options_(options) {}

ShardClient::~ShardClient() { CloseIdle(); }

void ShardClient::CloseIdle() {
  MutexLock lock(&mu_);
  for (const int fd : idle_fds_) close(fd);
  idle_fds_.clear();
}

int ShardClient::Dial(int64_t deadline_at) {
  int fd = -1;
  if (!endpoint_.unix_path.empty()) {
    fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      throw DistError(kDistErrEndpoint, "socket: " + ErrnoMessage(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (endpoint_.unix_path.size() >= sizeof(addr.sun_path)) {
      close(fd);
      throw DistError(kDistErrEndpoint,
                      "unix socket path too long: " + endpoint_.unix_path);
    }
    std::strncpy(addr.sun_path, endpoint_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    SetNonBlocking(fd);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
        errno != EINPROGRESS) {
      const std::string err = ErrnoMessage(errno);
      close(fd);
      throw DistError(kDistErrEndpoint,
                      "connect " + endpoint_.ToString() + ": " + err);
    }
  } else {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      throw DistError(kDistErrEndpoint, "socket: " + ErrnoMessage(errno));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(endpoint_.port));
    const std::string host =
        endpoint_.host == "localhost" ? "127.0.0.1" : endpoint_.host;
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      close(fd);
      throw DistError(kDistErrEndpoint,
                      "unresolvable host '" + endpoint_.host +
                          "' (numeric IPv4 or localhost only)");
    }
    SetNonBlocking(fd);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
        errno != EINPROGRESS) {
      const std::string err = ErrnoMessage(errno);
      close(fd);
      throw DistError(kDistErrEndpoint,
                      "connect " + endpoint_.ToString() + ": " + err);
    }
  }

  // Finish the non-blocking connect under the deadline.
  try {
    WaitReady(fd, POLLOUT, deadline_at, "connect");
    int err = 0;
    socklen_t len = sizeof(err);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      throw DistError(kDistErrEndpoint,
                      "connect " + endpoint_.ToString() + ": " +
                          ErrnoMessage(err != 0 ? err : errno));
    }

    // Identity handshake: the daemon at this address must be the shard
    // the coordinator expects, speaking the protocol it expects.
    obs::JsonDict hello;
    hello.Add("op", "shard.hello");
    SendLine(fd, hello.Str(), deadline_at);
    const service::JsonValue resp = ParseResponse(ReadLine(fd, deadline_at));
    if (resp.GetString("proto") != kShardProto) {
      throw DistError(kDistErrIdentity,
                      endpoint_.ToString() + " speaks '" +
                          resp.GetString("proto") + "', expected '" +
                          kShardProto + "'");
    }
    if (resp.GetUint("shard", ~uint64_t{0}) != shard_) {
      throw DistError(
          kDistErrIdentity,
          endpoint_.ToString() + " is shard " +
              std::to_string(resp.GetUint("shard", ~uint64_t{0})) +
              ", expected shard " + std::to_string(shard_));
    }
    if (resp.GetString("backend") != StorageBackendName(expected_backend_)) {
      throw DistError(kDistErrIdentity,
                      endpoint_.ToString() + " runs backend '" +
                          resp.GetString("backend") + "', expected '" +
                          StorageBackendName(expected_backend_) + "'");
    }
    if (options_.expect_events.has_value() &&
        resp.GetUint("events") != *options_.expect_events) {
      throw DistError(kDistErrIdentity,
                      endpoint_.ToString() + " holds " +
                          std::to_string(resp.GetUint("events")) +
                          " events, expected " +
                          std::to_string(*options_.expect_events));
    }
    if (options_.expect_wal_seq.has_value() &&
        resp.GetUint("wal_seq") != *options_.expect_wal_seq) {
      throw DistError(kDistErrIdentity,
                      endpoint_.ToString() + " reports wal_seq " +
                          std::to_string(resp.GetUint("wal_seq")) +
                          ", expected " +
                          std::to_string(*options_.expect_wal_seq));
    }
  } catch (...) {
    close(fd);
    throw;
  }
  return fd;
}

void ShardClient::SendLine(int fd, const std::string& line,
                           int64_t deadline_at) {
  const std::string out = line + "\n";
  size_t off = 0;
  while (off < out.size()) {
    WaitReady(fd, POLLOUT, deadline_at, "send");
    const ssize_t n =
        send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      throw DistError(kDistErrEndpoint, "send: " + ErrnoMessage(errno));
    }
    off += static_cast<size_t>(n);
  }
}

std::string ShardClient::ReadLine(int fd, int64_t deadline_at) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    if (const size_t nl = buf.find('\n'); nl != std::string::npos) {
      buf.resize(nl);
      if (!buf.empty() && buf.back() == '\r') buf.pop_back();
      return buf;
    }
    WaitReady(fd, POLLIN, deadline_at, "recv");
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      throw DistError(kDistErrEndpoint, "recv: " + ErrnoMessage(errno));
    }
    if (n == 0) {
      throw DistError(kDistErrEndpoint,
                      "shard closed the connection mid-response");
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
}

service::JsonValue ShardClient::ParseResponse(const std::string& line) {
  auto parsed = service::ParseJson(line);
  if (!parsed.ok() || !parsed.value().IsObject()) {
    throw DistError(kDistErrProtocol,
                    "shard " + std::to_string(shard_) +
                        " answered a non-JSON frame: " +
                        (parsed.ok() ? "not an object"
                                     : parsed.status().message()));
  }
  service::JsonValue resp = std::move(parsed).value();
  if (resp.Find("ok") == nullptr) {
    throw DistError(kDistErrProtocol,
                    "shard " + std::to_string(shard_) +
                        " answered a frame without an ok field");
  }
  if (!resp.GetBool("ok")) {
    const std::string code = resp.GetString("code", kDistErrRemoteOp);
    std::string error = resp.GetString("error", "remote operation failed");
    // The remote may have embedded its own code prefix; strip it so the
    // rethrown what() carries the code exactly once.
    if (StartsWith(error, code + ": ")) error = error.substr(code.size() + 2);
    throw DistError(MapRemoteCode(code),
                    "shard " + std::to_string(shard_) + ": " + error);
  }
  return resp;
}

ShardClient::PendingCall::PendingCall(PendingCall&& other) noexcept
    : line(std::move(other.line)),
      fd(std::exchange(other.fd, -1)),
      deadline_at(other.deadline_at),
      error(std::move(other.error)) {}

ShardClient::PendingCall::~PendingCall() {
  // An unread reply leaves the connection mid-exchange: it cannot be
  // pooled.
  if (fd >= 0) close(fd);
}

ShardClient::PendingCall ShardClient::Start(const std::string& op,
                                            const obs::JsonDict& fields) {
  PendingCall call;
  obs::JsonDict request;
  request.Add("op", op);
  call.line = request.Str();
  const std::string body = fields.Str();
  if (body.size() > 2) {
    // Merge {"op":...} with the caller's fields (both are flat objects).
    call.line.pop_back();
    call.line += ",";
    call.line += body.substr(1);
  }
  StartAttempt(&call);
  return call;
}

void ShardClient::StartAttempt(PendingCall* call) {
  call->deadline_at =
      MonotonicNowMicros() + static_cast<int64_t>(options_.deadline_micros);
  {
    MutexLock lock(&mu_);
    if (!idle_fds_.empty()) {
      call->fd = idle_fds_.back();
      idle_fds_.pop_back();
    }
  }
  try {
    if (call->fd < 0) call->fd = Dial(call->deadline_at);
    SendLine(call->fd, call->line, call->deadline_at);
  } catch (const DistError& e) {
    call->error = e;
  }
}

service::JsonValue ShardClient::Finish(PendingCall call) {
  APTRACE_SPAN("dist/fanout");
  std::string last_error;
  uint64_t backoff = options_.retry_backoff_micros;
  const int attempts = options_.max_attempts < 1 ? 1 : options_.max_attempts;
  for (int attempt = 1;; ++attempt) {
    std::optional<DistError> failure = std::exchange(call.error, std::nullopt);
    if (!failure.has_value()) {
      try {
        service::JsonValue resp =
            ParseResponse(ReadLine(call.fd, call.deadline_at));
        Dm().rpcs->Add();
        MutexLock lock(&mu_);
        idle_fds_.push_back(std::exchange(call.fd, -1));
        return resp;
      } catch (const DistError& e) {
        failure = e;
      }
    }
    Dm().rpcs->Add();
    if (call.fd >= 0) close(std::exchange(call.fd, -1));
    if (failure->code() == kDistErrIdentity ||
        failure->code() == kDistErrRemoteOp ||
        failure->code() == kDistErrAppend) {
      // Permanent verdicts: redialing cannot change them.
      throw *failure;
    }
    last_error = failure->what();
    if (attempt == attempts) break;
    Dm().retries->Add();
    std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    backoff *= 2;
    StartAttempt(&call);
  }
  Dm().shard_down->Add();
  throw DistError(kDistErrUnavailable,
                  "shard " + std::to_string(shard_) + " at " +
                      endpoint_.ToString() + " unavailable after " +
                      std::to_string(attempts) + " attempts (" +
                      last_error + ")");
}

}  // namespace aptrace::dist
