#include "dist/fleet.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/clock.h"
#include "util/env.h"
#include "util/string_util.h"

namespace aptrace::dist {

namespace {

/// Parses "shardd: ready shard=<n> tcp=127.0.0.1:<port>"; false when the
/// line is something else (a log line on a shared pipe, for instance).
bool ParseReadyLine(const std::string& line, uint32_t* shard, int* port) {
  const std::string_view marker = "shardd: ready shard=";
  const size_t at = line.find(marker);
  if (at == std::string::npos) return false;
  const char* p = line.c_str() + at + marker.size();
  char* end = nullptr;
  const long s = std::strtol(p, &end, 10);
  if (end == p || s < 0) return false;
  const std::string_view tcp_marker = " tcp=127.0.0.1:";
  const size_t tcp_at = line.find(tcp_marker, static_cast<size_t>(end - line.c_str()));
  if (tcp_at == std::string::npos) return false;
  const char* q = line.c_str() + tcp_at + tcp_marker.size();
  const long bound = std::strtol(q, &end, 10);
  if (end == q || bound < 1 || bound > 65535) return false;
  *shard = static_cast<uint32_t>(s);
  *port = static_cast<int>(bound);
  return true;
}

/// Reads the child's stdout pipe until a ready line, EOF, or timeout.
Status AwaitReady(int fd, uint64_t timeout_micros, uint32_t* shard,
                  int* port) {
  const int64_t deadline = MonotonicNowMicros() +
                           static_cast<int64_t>(timeout_micros);
  std::string buf;
  char chunk[512];
  for (;;) {
    // Scan complete lines already buffered.
    size_t start = 0;
    for (size_t nl = buf.find('\n'); nl != std::string::npos;
         nl = buf.find('\n', start)) {
      if (ParseReadyLine(buf.substr(start, nl - start), shard, port)) {
        return Status::Ok();
      }
      start = nl + 1;
    }
    buf.erase(0, start);

    const int64_t left = deadline - MonotonicNowMicros();
    if (left <= 0) {
      return Status::Internal("shardd did not report ready in time");
    }
    pollfd p{fd, POLLIN, 0};
    const int r = poll(&p, 1, static_cast<int>((left + 999) / 1000));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) continue;
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal("reading shardd stdout: " +
                              ErrnoMessage(errno));
    }
    if (n == 0) {
      return Status::Internal("shardd exited before reporting ready");
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
}

Status WritePidFile(const std::string& path, pid_t pid) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot write pid file " + path + ": " +
                            ErrnoMessage(errno));
  }
  std::fprintf(f, "%d\n", static_cast<int>(pid));
  std::fclose(f);
  return Status::Ok();
}

}  // namespace

Result<std::unique_ptr<ShardFleet>> ShardFleet::Launch(FleetOptions options) {
  if (options.shardd_bin.empty()) {
    return Status::InvalidArgument("FleetOptions::shardd_bin is required");
  }
  if (options.shards < 1 || options.shards > kMaxStoreShards) {
    return Status::InvalidArgument("fleet shard count out of [1, 64]");
  }
  auto fleet = std::unique_ptr<ShardFleet>(new ShardFleet(std::move(options)));
  const FleetOptions& opt = fleet->options_;

  for (uint32_t i = 0; i < opt.shards; ++i) {
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0) {
      return Status::Internal("pipe: " + ErrnoMessage(errno));
    }

    std::vector<std::string> argv_store;
    argv_store.push_back(opt.shardd_bin);
    argv_store.push_back("--shard=" + std::to_string(i));
    argv_store.push_back(std::string("--backend=") +
                         StorageBackendName(opt.backend));
    argv_store.push_back("--port=0");
    if (!opt.data_dir.empty()) {
      argv_store.push_back("--data-dir=" + opt.data_dir + "/shard" +
                           std::to_string(i));
    }
    for (const std::string& a : opt.extra_args) argv_store.push_back(a);

    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
      close(pipe_fds[0]);
      close(pipe_fds[1]);
      return Status::Internal("fork: " + ErrnoMessage(errno));
    }
    if (pid == 0) {
      // Child: die with the launching thread, so a launcher killed
      // before its destructor runs leaves no orphaned daemon. A parent
      // that died before prctl took effect is caught by the ppid check.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      // Ready line goes to the pipe; logs stay on stderr.
      dup2(pipe_fds[1], STDOUT_FILENO);
      close(pipe_fds[0]);
      close(pipe_fds[1]);
      std::vector<char*> argv;
      argv.reserve(argv_store.size() + 1);
      for (std::string& a : argv_store) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      std::fprintf(stderr, "fleet: exec %s: %s\n", argv[0],
                   std::strerror(errno));
      _exit(127);
    }

    close(pipe_fds[1]);
    ShardProcess proc;
    proc.shard = i;
    proc.pid = pid;
    proc.ready_fd = pipe_fds[0];
    fleet->shards_.push_back(proc);

    uint32_t reported = 0;
    int port = -1;
    if (Status s = AwaitReady(pipe_fds[0], opt.ready_timeout_micros,
                              &reported, &port);
        !s.ok()) {
      return Status::Internal("shard " + std::to_string(i) + " (" +
                              opt.shardd_bin + "): " + s.message());
    }
    if (reported != i) {
      return Status::Internal("shard daemon reported shard id " +
                              std::to_string(reported) + ", expected " +
                              std::to_string(i));
    }
    ShardProcess& live = fleet->shards_.back();
    live.port = port;
    live.endpoint = "127.0.0.1:" + std::to_string(port);
    if (!opt.pid_dir.empty()) {
      if (Status s = WritePidFile(opt.pid_dir + "/shard" +
                                      std::to_string(i) + ".pid",
                                  pid);
          !s.ok()) {
        return s;
      }
    }
  }
  return fleet;
}

ShardFleet::~ShardFleet() { Terminate(); }

std::string ShardFleet::EndpointsCsv() const {
  std::vector<std::string> eps;
  eps.reserve(shards_.size());
  for (const ShardProcess& p : shards_) eps.push_back(p.endpoint);
  return Join(eps, ",");
}

Status ShardFleet::Kill(size_t i, int sig) {
  if (i >= shards_.size()) {
    return Status::InvalidArgument("no shard " + std::to_string(i));
  }
  ShardProcess& p = shards_[i];
  if (p.pid <= 0 || p.killed) {
    return Status::InvalidArgument("shard " + std::to_string(i) +
                                   " is not running");
  }
  if (kill(p.pid, sig) != 0) {
    return Status::Internal("kill: " + ErrnoMessage(errno));
  }
  if (sig == SIGKILL || sig == SIGTERM) {
    waitpid(p.pid, nullptr, 0);
    p.killed = true;
  }
  return Status::Ok();
}

void ShardFleet::Terminate() {
  for (ShardProcess& p : shards_) {
    if (p.pid > 0 && !p.killed) kill(p.pid, SIGTERM);
  }
  // Short grace for the graceful drain, then force the stragglers.
  for (ShardProcess& p : shards_) {
    if (p.pid <= 0 || p.killed) continue;
    const int64_t deadline = MonotonicNowMicros() + 3'000'000;
    for (;;) {
      const pid_t r = waitpid(p.pid, nullptr, WNOHANG);
      if (r == p.pid || (r < 0 && errno == ECHILD)) break;
      if (MonotonicNowMicros() >= deadline) {
        kill(p.pid, SIGKILL);
        waitpid(p.pid, nullptr, 0);
        break;
      }
      usleep(20'000);
    }
    p.killed = true;
  }
  for (ShardProcess& p : shards_) {
    if (p.ready_fd >= 0) {
      close(p.ready_fd);
      p.ready_fd = -1;
    }
  }
}

}  // namespace aptrace::dist
