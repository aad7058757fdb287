// Distributed fabric, process layer: real aptrace_shardd daemons (forked
// via ShardFleet from the APTRACE_SHARDD_BIN compile definition) behind a
// coordinator-side store whose shards are RemoteShardBackends. The
// tentpole invariant: a graph computed over the distributed fabric is
// byte-identical to the in-process --shards=N store and to the monolithic
// store — both backends, any scan-thread count. The degraded-mode
// contract: SIGKILLing one daemon mid-query fails the session with a
// typed DST-E00x detail, never a hang.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.h"
#include "dist/dist_error.h"
#include "dist/fleet.h"
#include "dist/remote_backend.h"
#include "dist/shard_client.h"
#include "graph/json_writer.h"
#include "tests/random_trace_util.h"
#include "util/clock.h"

namespace aptrace::dist {
namespace {

constexpr size_t kFleetShards = 4;

FleetOptions MakeFleetOptions(StorageBackendKind backend) {
  FleetOptions options;
  options.shardd_bin = APTRACE_SHARDD_BIN;
  options.shards = kFleetShards;
  options.backend = backend;
  // Match MakeRandomTrace's layout knobs so the remote shards produce the
  // same probe/partition structure as the in-process reference.
  if (backend == StorageBackendKind::kColumnar) {
    options.extra_args = {"--segment-rows=64"};
  } else {
    options.extra_args = {"--partition-micros=500"};
  }
  return options;
}

ShardClientOptions FabricClientOptions() {
  ShardClientOptions options;
  options.deadline_micros = 5'000'000;
  options.max_attempts = 2;
  options.retry_backoff_micros = 5'000;
  return options;
}

/// The same random trace, but stored in the distributed fabric: every
/// store shard is a RemoteShardBackend talking to one fleet daemon.
RandomTrace MakeDistributedTrace(uint64_t seed, size_t num_events,
                                 StorageBackendKind backend,
                                 const ShardFleet& fleet) {
  std::vector<ShardEndpoint> endpoints;
  for (const ShardProcess& p : fleet.shards()) {
    auto ep = ParseShardEndpoint(p.endpoint);
    EXPECT_TRUE(ep.ok()) << ep.status();
    endpoints.push_back(std::move(ep).value());
  }
  return MakeRandomTrace(
      seed, num_events, backend, kFleetShards,
      [endpoints](EventStoreOptions& options) {
        options.dist_fanout_threads = kFleetShards;
        options.shard_backend_factory =
            [endpoints](size_t shard, const EventStoreOptions& o)
            -> std::unique_ptr<StorageBackend> {
          auto client = std::make_shared<ShardClient>(
              endpoints[shard], static_cast<uint32_t>(shard), o.backend,
              FabricClientOptions());
          return std::make_unique<RemoteShardBackend>(
              std::move(client), o.backend, o.cost_model);
        };
      });
}

std::string RunGraph(const RandomTrace& t, const std::string& script,
                     int scan_threads) {
  SimClock clock;
  SessionOptions options;
  options.scan_threads = scan_threads;
  Session session(t.store.get(), &clock, options);
  EXPECT_TRUE(session.Start(script, t.alert).ok());
  auto reason = session.Step();
  EXPECT_TRUE(reason.ok()) << reason.status();
  EXPECT_TRUE(session.Finish(/*prune_to_matched_paths=*/true).ok());
  std::ostringstream os;
  WriteGraphJson(session.graph(), t.store->catalog(), os);
  return os.str();
}

class DistFabric : public testing::TestWithParam<StorageBackendKind> {};

TEST_P(DistFabric, GraphBytesIdenticalToInProcessAndMonolithic) {
  const StorageBackendKind backend = GetParam();
  auto fleet = ShardFleet::Launch(MakeFleetOptions(backend));
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  const uint64_t seed = 97;
  const size_t num_events = 400;
  const RandomTrace mono = MakeRandomTrace(seed, num_events, backend, 1);
  const RandomTrace sharded =
      MakeRandomTrace(seed, num_events, backend, kFleetShards);
  const RandomTrace dist =
      MakeDistributedTrace(seed, num_events, backend, *fleet.value());
  ASSERT_EQ(dist.store->NumEvents(), mono.store->NumEvents());

  const std::string base = UnconstrainedScript(mono);
  const std::vector<std::string> variants = {
      base,
      base + " where file.path != \"*.dll\"",
      base + " where hop <= 3",
  };
  for (const std::string& script : variants) {
    for (const int threads : {1, 4}) {
      const std::string want = RunGraph(mono, script, threads);
      EXPECT_EQ(RunGraph(sharded, script, threads), want)
          << "in-process sharded drifted: threads=" << threads
          << " script=" << script;
      EXPECT_EQ(RunGraph(dist, script, threads), want)
          << "distributed drifted: threads=" << threads
          << " script=" << script;
    }
  }
}

TEST_P(DistFabric, KilledShardFailsQueryWithTypedErrorNotAHang) {
  const StorageBackendKind backend = GetParam();
  auto fleet = ShardFleet::Launch(MakeFleetOptions(backend));
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  const RandomTrace dist =
      MakeDistributedTrace(11, 300, backend, *fleet.value());
  const std::string script = UnconstrainedScript(dist);

  // A healthy fleet answers first, proving the store works before the
  // fault is injected.
  EXPECT_FALSE(RunGraph(dist, script, 4).empty());

  // SIGKILL one daemon: no drain, its connections die mid-stream. The
  // next query must come back as a typed degraded error within the
  // client's bounded retry budget.
  ASSERT_TRUE(fleet.value()->Kill(2, SIGKILL).ok());

  SimClock clock;
  SessionOptions options;
  options.scan_threads = 4;
  Session session(dist.store.get(), &clock, options);
  ASSERT_TRUE(session.Start(script, dist.alert).ok());
  const auto reason = session.Step();
  ASSERT_FALSE(reason.ok())
      << "query over a killed shard should fail, not succeed";
  EXPECT_NE(reason.status().message().find("DST-"), std::string::npos)
      << reason.status();

  // Starting a fresh session without a start override makes the
  // start-point resolution itself scan the store — that path must also
  // come back as a typed Status, not an escaped exception (an uncaught
  // throw in the daemon kills the process).
  Session fresh(dist.store.get(), &clock, options);
  const Status start = fresh.Start(script, std::nullopt);
  ASSERT_FALSE(start.ok())
      << "start-point scan over a killed shard should fail";
  EXPECT_NE(start.message().find("DST-"), std::string::npos) << start;
}

TEST_P(DistFabric, ColdStoreRejectsIdentityMismatchedFleet) {
  const StorageBackendKind backend = GetParam();
  auto fleet = ShardFleet::Launch(MakeFleetOptions(backend));
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  // Swap two endpoints: shard 0's client dials the daemon that announces
  // itself as shard 1. The handshake must refuse with DST-E004 before
  // any row crosses.
  std::vector<ShardEndpoint> endpoints;
  for (const ShardProcess& p : fleet.value()->shards()) {
    auto ep = ParseShardEndpoint(p.endpoint);
    ASSERT_TRUE(ep.ok());
    endpoints.push_back(std::move(ep).value());
  }
  std::swap(endpoints[0], endpoints[1]);
  ShardClient client(endpoints[0], 0, backend, FabricClientOptions());
  try {
    client.Call("shard.hello");
    FAIL() << "expected DistError";
  } catch (const DistError& e) {
    EXPECT_EQ(e.code(), std::string(kDistErrIdentity)) << e.what();
  }
}

/// True once `pid` no longer runs: it is gone (ESRCH) or is a zombie
/// waiting for its new parent to reap it.
bool ProcessGone(pid_t pid) {
  if (kill(pid, 0) != 0) return errno == ESRCH;
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return true;
  // "pid (comm) S ...": the state follows the last ')'.
  const size_t paren = line.rfind(')');
  return paren != std::string::npos && paren + 2 < line.size() &&
         line[paren + 2] == 'Z';
}

// A launcher SIGKILLed before ShardFleet's destructor can run must take
// its daemons with it: each child asked for SIGKILL on its parent's
// death, so no orphan keeps serving (or holds a test runner's pipes).
TEST(DistFleetLifetime, ShardsDieWithAKilledLauncher) {
  int fds[2];
  ASSERT_EQ(pipe2(fds, O_CLOEXEC), 0);
  const pid_t helper = fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    close(fds[0]);
    FleetOptions options;
    options.shardd_bin = APTRACE_SHARDD_BIN;
    options.shards = 2;
    auto fleet = ShardFleet::Launch(options);
    if (!fleet.ok()) _exit(1);
    for (const ShardProcess& p : fleet.value()->shards()) {
      const int32_t pid = p.pid;
      if (write(fds[1], &pid, sizeof(pid)) != sizeof(pid)) _exit(1);
    }
    for (;;) pause();
  }
  close(fds[1]);
  std::vector<pid_t> shard_pids;
  int32_t pid = 0;
  while (shard_pids.size() < 2 &&
         read(fds[0], &pid, sizeof(pid)) == sizeof(pid)) {
    shard_pids.push_back(pid);
  }
  close(fds[0]);

  ASSERT_EQ(kill(helper, SIGKILL), 0);
  ASSERT_EQ(waitpid(helper, nullptr, 0), helper);
  ASSERT_EQ(shard_pids.size(), 2u) << "the helper failed to launch a fleet";

  const int64_t deadline = MonotonicNowMicros() + 2'000'000;
  for (const pid_t shard : shard_pids) {
    while (!ProcessGone(shard) && MonotonicNowMicros() < deadline) {
      usleep(10'000);
    }
    EXPECT_TRUE(ProcessGone(shard))
        << "shard daemon " << shard << " outlived its launcher";
    if (!ProcessGone(shard)) kill(shard, SIGKILL);  // leave nothing behind
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, DistFabric,
                         testing::Values(StorageBackendKind::kRow,
                                         StorageBackendKind::kColumnar),
                         [](const auto& info) {
                           return std::string(
                               StorageBackendName(info.param));
                         });

}  // namespace
}  // namespace aptrace::dist
