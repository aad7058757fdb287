// APTrace's benchmark: backward investigations from sampled alerts, run
// three ways against the library's public API and timed from outside.
//
//   sweep   closed loop, one in-process Session at a time over the
//           monolithic row store (scan_threads = 1) — Table II's workload
//   served  the daemon as shipped: SessionManager + Server on a unix
//           socket over a columnar store, two polling client connections
//           in lockstep plus a third ingesting 5 000 events/s on a fixed
//           schedule
//   fleet   the sweep loop with the store's 2 shards in 2 forked
//           aptrace_shardd daemons; this process is the coordinator
//
//   perfbench --workload sweep|served|fleet --seed N --seconds S
//             --trace 0|1 [--alerts N] [--shardd PATH] [--out-dir DIR]
//   perfbench --selftest
//
// Every graph is checked against an in-process reference run of the same
// alert; the last stdout line is one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). README.md in
// this directory defines every metric.

#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bdl/analyzer.h"
#include "bdl/formatter.h"
#include "core/exec_window.h"
#include "core/session.h"
#include "dist/dist_error.h"
#include "dist/fleet.h"
#include "dist/remote_backend.h"
#include "dist/shard_client.h"
#include "graph/json_writer.h"
#include "obs/json_dict.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "perfbench/measure.h"
#include "service/json.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "storage/trace_io.h"
#include "util/rng.h"
#include "workload/enterprise.h"

#ifndef PERFBENCH_SHARDD_BIN
#define PERFBENCH_SHARDD_BIN ""
#endif

namespace perfbench {
namespace {

using namespace aptrace;  // NOLINT(google-build-using-namespace)

// Input shape and per-workload wiring (README.md says why each was chosen).
constexpr int kHosts = 4;
constexpr int kDays = 4;
constexpr size_t kDefaultAlerts = 100;
constexpr size_t kPoolFactor = 4;  // candidates sized per alert kept
constexpr DurationMicros kSimCap = 2 * kMicrosPerHour;  // Table II's cap
constexpr int kSetupRepeats = 9;
constexpr size_t kMinTimedPasses = 3;
constexpr size_t kWarmupAlerts = 20;
constexpr size_t kFleetShards = 2;
constexpr int kFleetCpus = 2;
constexpr size_t kServedClients = 2;
constexpr int64_t kPollIntervalNs = 2'000'000;  // like `aptrace_client run`
constexpr size_t kSealTailRows = 4096;
constexpr size_t kIngestBatch = 100;
constexpr int64_t kIngestPeriodNs = 20'000'000;  // 100 events / 20 ms
constexpr int kFleetScanThreads = 4;  // nproc of the 4-vCPU reference host
constexpr size_t kServedPasses = 3;
constexpr size_t kLayerProbeWindows = 4000;  // direct collect/RPC samples
constexpr uint64_t kSealProbeBatches = 200;  // 20 000 rows, 4 seals
constexpr size_t kChromeSpans = 200000;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }
double Sec(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------- args

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t alerts = kDefaultAlerts;
  std::string shardd = PERFBENCH_SHARDD_BIN;
  std::string out_dir = ".bench_build/perfbench-out";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", k.c_str());
      return false;
    }
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--alerts") {
      a->alerts = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--shardd") {
      a->shardd = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
      return false;
    }
  }
  if (a->selftest) return true;
  if (a->workload != "sweep" && a->workload != "served" &&
      a->workload != "fleet") {
    std::fprintf(stderr, "perfbench: --workload must be sweep|served|fleet\n");
    return false;
  }
  if (a->alerts < kWarmupAlerts || a->alerts % 2 != 0 || a->seconds <= 0) {
    std::fprintf(stderr,
                 "perfbench: need an even --alerts >= %zu, --seconds > 0\n",
                 kWarmupAlerts);
    return false;
  }
  return true;
}

// --------------------------------------------------------------- spans

/// The calling thread's span recorder; null when tracing is off, which
/// makes every Scope below a no-op.
thread_local SpanRecorder* t_spans = nullptr;

class Scope {
 public:
  /// A null `name` records nothing (see Seam).
  explicit Scope(const char* name)
      : rec_(name != nullptr ? t_spans : nullptr),
        id_(rec_ != nullptr ? rec_->Begin(name) : -1) {}
  ~Scope() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t id_;
};

/// Seam spans come three per window, so only the first kSeamSpans of a
/// run are kept as spans (enough for the Chrome trace); the seam
/// intervals themselves are summed for every traced window.
constexpr size_t kSeamSpans = 100000;
thread_local size_t t_seam_spans = 0;

const char* Seam(const char* name) {
  if (t_seam_spans >= kSeamSpans) return nullptr;
  t_seam_spans++;
  return name;
}

// ---------------------------------------------------------------- input

/// Everything the program under test is given: the v2 trace bytes, the
/// alert event ids with their scripts, and the live-ingest stream.
struct Input {
  std::string v2;
  std::vector<EventId> alerts;
  std::vector<size_t> rank;  // place of each alert on the size ladder
  std::vector<std::string> scripts;  // BDL text per alert
  std::vector<bdl::TrackingSpec> specs;
  std::vector<Event> ingest_pool;  // trace rows the ingest stream re-sends
  TimeMicros trace_end = 0;
  size_t events = 0;
};

/// Deterministic size of one investigation in its engine's work: windows
/// scanned, rows replayed, and graph nodes present at each update batch
/// (the engine walks the whole graph once per batch). The weights are the
/// least-squares fit of fastest wall time on a 4-vCPU x86 host (R^2 0.99
/// over 600 alerts), so the score reads roughly as microseconds.
double WorkScore(uint64_t windows, uint64_t rows, uint64_t node_updates) {
  return 0.6 * static_cast<double>(windows) +
         0.94 * static_cast<double>(rows) +
         0.0116 * static_cast<double>(node_updates);
}

Input MakeInput(uint64_t seed, size_t n_alerts) {
  workload::TraceConfig config;
  config.seed = seed;
  config.num_hosts = kHosts;
  config.days = kDays;
  config.backend = StorageBackendKind::kRow;
  config.shards = 1;
  auto store = workload::BuildEnterpriseTrace(config);
  Input in;
  std::ostringstream os;
  if (auto st = SaveTrace(*store, os, TraceFormat::kBinaryV2); !st.ok()) {
    std::fprintf(stderr, "perfbench: SaveTrace: %s\n", st.ToString().c_str());
    return in;
  }
  in.v2 = os.str();
  in.events = store->NumEvents();
  in.trace_end = store->MaxTime();
  // Sample a pool four times larger than needed, size every candidate by
  // an investigation on the generator's own store (input generation, on
  // four threads, before anything is timed), and keep the candidates that
  // best match the ladder of sizes, in sampling order.
  const std::vector<Event> pool =
      workload::SampleAnomalyEvents(*store, kPoolFactor * n_alerts, seed);
  std::vector<double> score(pool.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (size_t c = next.fetch_add(1); c < pool.size();
           c = next.fetch_add(1)) {
        SimClock clock;
        Session s(store.get(), &clock);
        RunLimits limits;
        limits.should_stop = [&] { return clock.NowMicros() >= kSimCap; };
        if (s.StartWithSpec(workload::GenericSpecFor(*store, pool[c]),
                            pool[c])
                .ok() &&
            s.Step(limits).ok()) {
          uint64_t node_updates = 0;
          for (const UpdateBatch& b : s.update_log().batches()) {
            node_updates += b.total_nodes;
          }
          const RunStats& rs = s.stats();
          score[c] = WorkScore(rs.work_units,
                               rs.events_added + rs.events_filtered,
                               node_updates);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  std::vector<size_t> picked = MatchLadder(score, LadderTargets(n_alerts));
  std::map<size_t, size_t> rank_of;
  for (size_t r = 0; r < picked.size(); ++r) rank_of[picked[r]] = r;
  std::sort(picked.begin(), picked.end());
  for (const size_t c : picked) {
    const Event& alert = pool[c];
    in.alerts.push_back(alert.id);
    in.rank.push_back(rank_of[c]);
    in.scripts.push_back(
        bdl::FormatSpec(workload::GenericSpecFor(*store, alert)));
  }
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  in.ingest_pool.reserve(4096);
  for (size_t i = 0; i < 4096; ++i) {
    in.ingest_pool.push_back(store->Get(
        static_cast<EventId>(rng.Uniform(store->NumEvents()))));
  }
  return in;
}

template <typename T>
void PutPod(std::string* b, const T& v) {
  b->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool GetPod(const std::string& b, size_t* off, T* v) {
  if (b.size() - *off < sizeof(T)) return false;
  std::memcpy(v, b.data() + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

bool GetStr(const std::string& b, size_t* off, std::string* s) {
  uint64_t n = 0;
  if (!GetPod(b, off, &n) || b.size() - *off < n) return false;
  s->assign(b, *off, n);
  *off += n;
  return true;
}

std::string EncodeInput(const Input& in) {
  std::string b;
  PutPod<uint64_t>(&b, in.v2.size());
  b += in.v2;
  PutPod<uint64_t>(&b, in.alerts.size());
  for (size_t i = 0; i < in.alerts.size(); ++i) {
    PutPod<uint64_t>(&b, in.alerts[i]);
    PutPod<uint64_t>(&b, in.rank[i]);
    PutPod<uint64_t>(&b, in.scripts[i].size());
    b += in.scripts[i];
  }
  PutPod<uint64_t>(&b, in.ingest_pool.size());
  for (const Event& e : in.ingest_pool) PutPod(&b, e);
  PutPod(&b, in.trace_end);
  PutPod<uint64_t>(&b, in.events);
  return b;
}

bool DecodeInput(const std::string& b, Input* in) {
  size_t off = 0;
  uint64_t n = 0;
  if (!GetStr(b, &off, &in->v2) || !GetPod(b, &off, &n)) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    uint64_t rank = 0;
    std::string script;
    if (!GetPod(b, &off, &id) || !GetPod(b, &off, &rank) ||
        !GetStr(b, &off, &script)) {
      return false;
    }
    auto spec = bdl::CompileBdl(script);
    if (!spec.ok()) return false;
    in->alerts.push_back(id);
    in->rank.push_back(rank);
    in->scripts.push_back(std::move(script));
    in->specs.push_back(std::move(spec.value()));
  }
  if (!GetPod(b, &off, &n)) return false;
  in->ingest_pool.resize(n);
  for (Event& e : in->ingest_pool) {
    if (!GetPod(b, &off, &e)) return false;
  }
  uint64_t events = 0;
  if (!GetPod(b, &off, &in->trace_end) || !GetPod(b, &off, &events)) {
    return false;
  }
  in->events = events;
  return off == b.size() && !in->alerts.empty();
}

/// Generates the input in a forked child and reads it back through a
/// pipe, so the generator's store and the sizing runs (four threads of
/// investigations) never count toward this process's peak RSS — the
/// program under test is all this process holds. Runs before any thread
/// exists.
bool GenerateInput(uint64_t seed, size_t n_alerts, Input* in) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    const std::string b = EncodeInput(MakeInput(seed, n_alerts));
    for (size_t off = 0; off < b.size();) {
      const ssize_t w = write(fds[1], b.data() + off, b.size() - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) _exit(1);
      off += static_cast<size_t>(w);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string b;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t r = read(fds[0], chunk, sizeof(chunk));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    b.append(chunk, static_cast<size_t>(r));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         DecodeInput(b, in);
}

/// Ingest batch `j`: pool rows re-timestamped after the trace's end, one
/// simulated millisecond apart, so no investigation's backward windows
/// (all inside the trace) can reach them.
std::vector<Event> IngestBatch(const Input& in, uint64_t j) {
  std::vector<Event> out;
  out.reserve(kIngestBatch);
  for (size_t k = 0; k < kIngestBatch; ++k) {
    const uint64_t n = j * kIngestBatch + k;
    Event e = in.ingest_pool[n % in.ingest_pool.size()];
    e.id = kInvalidEventId;
    e.timestamp = in.trace_end + 1 +
                  static_cast<TimeMicros>(n) * kMicrosPerMilli;
    out.push_back(e);
  }
  return out;
}

Result<std::unique_ptr<EventStore>> LoadStore(const Input& in,
                                              EventStoreOptions options) {
  Scope span("storage/LoadTrace");
  std::istringstream is(in.v2);
  return LoadTrace(is, std::move(options));
}

EventStoreOptions LocalOptions(StorageBackendKind backend) {
  EventStoreOptions o;
  o.backend = backend;
  o.shards = 1;
  return o;
}

// ------------------------------------------------------ investigations

/// What an investigation produced; compared byte for byte against the
/// in-process reference of the same alert.
struct Outcome {
  std::string graph_json;
  std::vector<TimeMicros> batch_times;  // sim time of each update batch
  TimeMicros run_start = 0;
  bool finished = false;  // Finish ran (completed or spec time budget)
  uint64_t windows = 0;
  size_t nodes = 0;
  size_t edges = 0;
  std::string error;  // non-empty: the investigation failed
};

/// The correctness gate: graph bytes, update count, windows and
/// finalization match the reference; with `exact_times` so does the
/// simulated time of every update. The daemon's store cannot promise
/// that: live ingest re-cuts its newest columnar segment, which changes
/// what the zone maps prune near the trace's end and so the simulated
/// cost of those scans, never the rows they return.
bool SameOutcome(const Outcome& a, const Outcome& b, bool exact_times) {
  return a.error.empty() && b.error.empty() && a.graph_json == b.graph_json &&
         a.batch_times.size() == b.batch_times.size() &&
         a.windows == b.windows && a.finished == b.finished &&
         (!exact_times ||
          (a.batch_times == b.batch_times && a.run_start == b.run_start));
}

/// Longest simulated wait between updates (the first wait runs from the
/// investigation's start), Table II's per-case statistic.
double MaxSimWaitSeconds(const Outcome& o) {
  TimeMicros prev = o.run_start;
  DurationMicros worst = 0;
  for (const TimeMicros t : o.batch_times) {
    worst = std::max(worst, t - prev);
    prev = t;
  }
  return MicrosToSeconds(worst);
}

std::string GraphJson(const Session& s, const EventStore& store) {
  Scope span("graph/WriteGraphJson");
  std::ostringstream os;
  WriteGraphJson(s.graph(), store.catalog(), os);
  return os.str();
}

/// Seam timings of traced in-process investigations: the benchmark's own
/// should_stop, clock and on_update callbacks are the only places the
/// engine calls back out, so the interval between them splits Step.
struct SeamTimes {
  int64_t window_start_ns = 0;
  bool in_window = false;
  int64_t last_charge_ns = 0;
  bool charged = false;
  int64_t scan_ns = 0;
  uint64_t scan_windows = 0;
  int64_t post_scan_ns = 0;
  uint64_t post_scan_batches = 0;
  std::vector<double> resolve_us;
};

/// The session's clock in traced runs: a SimClock whose AdvanceMicros —
/// called by the store at the end of every scan charge — is a seam.
class ProbeClock : public Clock {
 public:
  explicit ProbeClock(SeamTimes* seams) : seams_(seams) {}
  TimeMicros NowMicros() const override { return sim_.NowMicros(); }
  void AdvanceMicros(DurationMicros delta) override {
    Scope span(Seam("clock/AdvanceMicros"));
    sim_.AdvanceMicros(delta);
    const int64_t now = NowNs();
    if (seams_->in_window && !seams_->charged) {
      seams_->scan_ns += now - seams_->window_start_ns;
      seams_->scan_windows++;
    }
    seams_->charged = true;
    seams_->last_charge_ns = now;
  }

 private:
  SimClock sim_;
  SeamTimes* seams_;
};

/// One in-process investigation: StartWithSpec, Step under the 2 h
/// simulated cap, Finish when the daemon would (completed or the spec's
/// time budget). `seams` non-null selects the traced path.
InvSample RunInProcess(const EventStore& store, const Input& in, size_t i,
                       int scan_threads, SeamTimes* seams, Outcome* out) {
  SimClock plain_clock;
  std::optional<ProbeClock> probe;
  Clock* clock = &plain_clock;
  if (seams != nullptr) {
    probe.emplace(seams);
    clock = &*probe;
  }
  SessionOptions options;
  options.scan_threads = scan_threads;
  Session session(&store, clock, options);
  bdl::TrackingSpec spec = in.specs[i];
  const Event alert = store.Get(in.alerts[i]);

  InvSample w;
  Scope root("investigation");
  const int64_t t0 = NowNs();
  int64_t last_update = t0;
  RunLimits limits;
  limits.should_stop = [&] {
    if (seams != nullptr) {
      Scope span(Seam("engine/should_stop"));
      seams->window_start_ns = NowNs();
      seams->in_window = true;
      seams->charged = false;
    }
    return clock->NowMicros() >= kSimCap;
  };
  limits.on_update = [&](const UpdateBatch&) {
    const int64_t now = NowNs();
    if (seams != nullptr) {
      Scope span(Seam("engine/on_update"));
      if (seams->charged) {
        seams->post_scan_ns += now - seams->last_charge_ns;
        seams->post_scan_batches++;
      }
    }
    if (w.first_update_ns < 0) {
      w.first_update_ns = now - t0;
    } else {
      w.gaps_ns.push_back(now - last_update);
    }
    last_update = now;
  };
  Status st = Status::Ok();
  {
    Scope span("core/StartWithSpec");
    st = session.StartWithSpec(std::move(spec), alert);
  }
  if (seams != nullptr) seams->resolve_us.push_back(Us(NowNs() - t0));
  if (!st.ok()) {
    out->error = "start: " + st.ToString();
    w.total_ns = NowNs() - t0;
    return w;
  }
  Result<StopReason> reason = StopReason::kStopped;
  {
    Scope span("core/Step");
    reason = session.Step(limits);
  }
  if (seams != nullptr) seams->in_window = false;
  if (!reason.ok()) {
    out->error = "step: " + reason.status().ToString();
  } else if (reason.value() == StopReason::kCompleted ||
             reason.value() == StopReason::kTimeBudget) {
    Scope span("core/Finish");
    if (auto fst = session.Finish(true); !fst.ok()) {
      out->error = "finish: " + fst.ToString();
    }
    out->finished = true;
  }
  w.total_ns = NowNs() - t0;
  out->graph_json = GraphJson(session, store);
  out->run_start = session.stats().run_start;
  out->windows = session.stats().work_units;
  out->nodes = session.graph().NumNodes();
  out->edges = session.graph().NumEdges();
  for (const UpdateBatch& b : session.update_log().batches()) {
    out->batch_times.push_back(b.sim_time);
  }
  return w;
}

// -------------------------------------------------------------- passes

/// Exact per-pass counters; they must repeat exactly pass after pass.
struct PassCounts {
  uint64_t windows = 0;
  uint64_t batches = 0;
  StoreStats store;
  uint64_t quanta = 0;
};

/// `store_exact` false skips the probe counters the daemon's live ingest
/// moves (see SameOutcome); queries and rows stay exact everywhere.
bool SameCounts(const PassCounts& a, const PassCounts& b, bool store_exact) {
  return a.windows == b.windows && a.batches == b.batches &&
         a.quanta == b.quanta && a.store.queries == b.store.queries &&
         a.store.rows_matched == b.store.rows_matched &&
         a.store.rows_filtered == b.store.rows_filtered &&
         (!store_exact ||
          (a.store.partitions_probed == b.store.partitions_probed &&
           a.store.segments_pruned == b.store.segments_pruned &&
           a.store.simulated_cost == b.store.simulated_cost));
}

StoreStats Delta(const StoreStats& a, const StoreStats& b) {
  StoreStats d;
  d.queries = b.queries - a.queries;
  d.rows_matched = b.rows_matched - a.rows_matched;
  d.rows_filtered = b.rows_filtered - a.rows_filtered;
  d.partitions_probed = b.partitions_probed - a.partitions_probed;
  d.partitions_seeked = b.partitions_seeked - a.partitions_seeked;
  d.segments_pruned = b.segments_pruned - a.segments_pruned;
  d.simulated_cost = b.simulated_cost - a.simulated_cost;
  return d;
}

/// One pass over the alerts.
struct Pass {
  std::vector<InvSample> inv;
  int64_t wall_ns = 0;
  PassCounts counts;
  size_t wrong = 0;  // graphs that differ from the reference, or failed
};

/// Registry counters the per-layer metrics read as before/after deltas.
struct RegistryCounts {
  uint64_t prefetch_hits = 0;
  uint64_t rpcs = 0;
  uint64_t retries = 0;
  uint64_t shard_down = 0;
  static RegistryCounts Now() {
    auto& m = obs::Metrics();
    RegistryCounts r;
    r.prefetch_hits =
        m.FindOrCreateCounter(obs::names::kExecutorPrefetchHits)->value();
    r.rpcs = m.FindOrCreateCounter(obs::names::kDistRpcs)->value();
    r.retries = m.FindOrCreateCounter(obs::names::kDistRetries)->value();
    r.shard_down = m.FindOrCreateCounter(obs::names::kDistShardDown)->value();
    return r;
  }
};

/// This process's CPU time (user + sys) and voluntary context switches.
struct ProcessTimes {
  double cpu_s = 0;
  long voluntary_switches = 0;
  static ProcessTimes Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcessTimes t;
    t.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                  1e6;
    t.voluntary_switches = ru.ru_nvcsw;
    return t;
  }
};

/// Runs the first `count` alerts one at a time. With `ref` each outcome
/// is checked against it; without, the outcomes become the reference,
/// kept in `keep`.
Pass InProcessPass(const EventStore& store, const Input& in, size_t count,
                   int scan_threads, const std::vector<Outcome>* ref,
                   SeamTimes* seams, std::vector<Outcome>* keep = nullptr) {
  Pass pass;
  pass.inv.resize(count);
  const StoreStats s0 = store.stats();
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < count; ++i) {
    Outcome o;
    pass.inv[i] = RunInProcess(store, in, i, scan_threads, seams, &o);
    if (ref != nullptr ? !SameOutcome(o, (*ref)[i], true) : !o.error.empty()) {
      pass.wrong++;
    }
    pass.counts.windows += o.windows;
    pass.counts.batches += o.batch_times.size();
    if (keep != nullptr) keep->push_back(std::move(o));
  }
  pass.wall_ns = NowNs() - t0;
  pass.counts.store = Delta(s0, store.stats());
  return pass;
}

// ---------------------------------------------------------- served

/// Blocking line-JSON client over the daemon's unix socket.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() {
    if (fd_ >= 0) close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  /// Sends one request line and parses the response line; nullopt on a
  /// transport or parse failure.
  std::optional<service::JsonValue> Call(const std::string& request) {
    std::string line = request;
    line.push_back('\n');
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = send(fd_, line.data() + off, line.size() - off,
                             MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      off += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        auto parsed = service::ParseJson(std::string_view(buf_).substr(0, nl));
        buf_.erase(0, nl + 1);
        if (!parsed.ok()) return std::nullopt;
        return std::move(parsed.value());
      }
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Poll counts of one served client.
struct ServiceTimes {
  uint64_t polls = 0;
  uint64_t empty_polls = 0;
};

/// One served investigation on `client`: open, poll every 2 ms until
/// terminal, fetch the graph.
InvSample ServeOne(LineClient* client, const Input& in, size_t i,
                   ServiceTimes* st, Outcome* out) {
  InvSample w;
  Scope root("investigation");
  obs::JsonDict open;
  open.Add("op", "open");
  open.Add("bdl", in.scripts[i]);
  open.Add("start_event", static_cast<uint64_t>(in.alerts[i]));
  open.Add("sim_budget", static_cast<int64_t>(kSimCap));
  const int64_t t0 = NowNs();
  std::optional<service::JsonValue> resp;
  {
    Scope span("service/open");
    resp = client->Call(open.Str());
  }
  if (!resp || !resp->GetBool("ok")) {
    out->error = "open refused";
    w.total_ns = NowNs() - t0;
    return w;
  }
  const uint64_t session = resp->GetUint("session");
  uint64_t cursor = 0;
  int64_t last_update = t0;
  std::string state;
  for (;;) {
    obs::JsonDict poll;
    poll.Add("op", "poll");
    poll.Add("session", session);
    poll.Add("cursor", cursor);
    {
      Scope span("service/poll");
      resp = client->Call(poll.Str());
    }
    const int64_t now = NowNs();
    if (!resp || !resp->GetBool("ok")) {
      out->error = "poll failed";
      break;
    }
    const service::JsonValue* batches = resp->Find("batches");
    const size_t n = batches != nullptr ? batches->items.size() : 0;
    st->polls++;
    if (n == 0) st->empty_polls++;
    if (n > 0) {
      if (w.first_update_ns < 0) {
        w.first_update_ns = now - t0;
      } else {
        w.gaps_ns.push_back(now - last_update);
      }
      last_update = now;
      for (const service::JsonValue& b : batches->items) {
        out->batch_times.push_back(b.GetInt("sim_time"));
      }
    }
    cursor = resp->GetUint("next_cursor", cursor);
    if (resp->GetBool("terminal")) {
      state = resp->GetString("state");
      if (const service::JsonValue* snap = resp->Find("snapshot")) {
        out->run_start = snap->GetInt("run_start");
        out->windows = snap->GetUint("work_units");
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(kPollIntervalNs));
  }
  if (out->error.empty()) {
    obs::JsonDict graph;
    graph.Add("op", "graph");
    graph.Add("session", session);
    {
      Scope span("service/graph");
      resp = client->Call(graph.Str());
    }
    if (!resp || !resp->GetBool("ok")) {
      out->error = "graph failed";
    } else {
      out->graph_json = resp->GetString("graph");
    }
  }
  w.total_ns = NowNs() - t0;
  // The daemon finalizes exactly when the in-process run does.
  out->finished = state == "done";
  if (out->error.empty() && state != "done" && state != "budget") {
    out->error = "terminal state " + state;
  }
  return w;
}

/// The open-loop ingest generator: batch j is due at start + j * 20 ms
/// whatever happened to batch j - 1; ack time counts from the due time.
struct IngestLog {
  std::vector<double> ack_ms;
  std::vector<double> late_ms;  // send time minus due time
  uint64_t rejected = 0;
  uint64_t sent = 0;
};

void IngestLoop(const std::string& socket, const Input& in,
                const std::atomic<bool>* stop, IngestLog* log) {
  LineClient client;
  if (!client.Connect(socket)) {
    log->rejected++;
    return;
  }
  const int64_t start = NowNs();
  for (uint64_t j = 0; !stop->load(); ++j) {
    std::string req = "{\"op\":\"ingest\",\"events\":[";
    const std::vector<Event> batch = IngestBatch(in, j);
    for (size_t k = 0; k < batch.size(); ++k) {
      const Event& e = batch[k];
      obs::JsonDict d;
      d.Add("subject", static_cast<uint64_t>(e.subject));
      d.Add("object", static_cast<uint64_t>(e.object));
      d.Add("timestamp", static_cast<int64_t>(e.timestamp));
      d.Add("amount", static_cast<uint64_t>(e.amount));
      d.Add("action", ActionTypeName(e.action));
      d.Add("direction", e.direction == FlowDirection::kSubjectToObject
                             ? "s2o"
                             : "o2s");
      d.Add("host", static_cast<uint64_t>(e.host));
      if (k != 0) req += ",";
      req += d.Str();
    }
    req += "]}";
    const int64_t due = start + static_cast<int64_t>(j) * kIngestPeriodNs;
    while (NowNs() < due && !stop->load()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(due - NowNs(), 1'000'000)));
    }
    if (stop->load()) break;
    const int64_t sent = NowNs();
    auto resp = client.Call(req);
    const int64_t acked = NowNs();
    log->sent++;
    log->late_ms.push_back(Ms(sent - due));
    if (!resp || !resp->GetBool("ok")) {
      log->rejected++;
    } else {
      log->ack_ms.push_back(Ms(acked - due));
    }
  }
}

// ------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string moves;  // per-layer: the end-to-end metric it should move
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string m;
  for (const Metric& x : metrics) {
    if (!m.empty()) m += ",";
    char num[64];
    std::snprintf(num, sizeof(num), "%.9g",
                  std::isfinite(x.value) ? x.value : 0.0);
    m += "\"" + x.name + "\":{\"value\":" + num + ",\"unit\":\"" + x.unit +
         "\"}";
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// Frontier windows of the reference graphs — what the engine scanned to
/// find each edge — for the direct collect and RPC probes.
struct ProbeWindow {
  ObjectId key = kInvalidObjectId;
  TimeMicros begin = 0;
  TimeMicros end = 0;
};

std::vector<ProbeWindow> FrontierWindows(const EventStore& store,
                                         const Input& in) {
  std::vector<ProbeWindow> out;
  for (size_t i = 0; i < in.alerts.size() && out.size() < kLayerProbeWindows;
       ++i) {
    SimClock clock;
    Session s(&store, &clock);
    if (!s.StartWithSpec(in.specs[i], store.Get(in.alerts[i])).ok()) continue;
    RunLimits limits;
    limits.should_stop = [&] { return clock.NowMicros() >= kSimCap; };
    if (!s.Step(limits).ok()) continue;
    const TimeMicros ts = s.context().ts;
    s.graph().ForEachEdge([&](const DepGraph::Edge& edge) {
      if (out.size() >= kLayerProbeWindows) return;
      for (const ExecWindow& w :
           GenExeWindows(store.Get(edge.event), ts, ts, 8)) {
        out.push_back(ProbeWindow{w.frontier, w.begin, w.finish});
      }
    });
  }
  if (out.size() > kLayerProbeWindows) out.resize(kLayerProbeWindows);
  return out;
}

/// CPU seconds (utime + stime) of a live child, from /proc/<pid>/stat.
double ChildCpuSeconds(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string s((std::istreambuf_iterator<char>(f)),
                std::istreambuf_iterator<char>());
  const size_t rp = s.rfind(')');
  if (rp == std::string::npos) return 0;
  std::istringstream fields(s.substr(rp + 2));
  std::string tok;
  double ticks = 0;
  for (int field = 3; fields >> tok; ++field) {
    if (field == 14 || field == 15) ticks += std::atof(tok.c_str());
    if (field == 15) break;
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}


// ------------------------------------------------------------ the run

/// One run of one workload: set-up figures, the untraced passes (and in
/// traced runs the traced ones), and the layer figures gathered on the way.
struct Run {
  std::vector<double> setup_s;
  std::vector<double> load_s;    // LoadTrace share of each set-up
  std::vector<double> launch_s;  // ShardFleet::Launch share (fleet)
  std::vector<Outcome> ref;
  PassCounts ref_counts;
  bool store_exact = true;       // see SameCounts
  bool concurrent = false;       // passes run investigations side by side
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // each one fails the run
  // Figures read around every untraced pass.
  RegistryCounts reg;
  double cpu_s = 0;
  long switches = 0;
  uint64_t windows = 0;
  // Layer figures.
  SeamTimes seams;
  uint64_t polls = 0;
  uint64_t empty_polls = 0;
  uint64_t stalls = 0;
  double busy_share = 0;
  IngestLog ingest;
  double seal_us_per_row = 0;
  std::vector<SpanRecorder> spans;  // client threads' recorders
};

/// Counts a pass's investigations and wrong graphs; a timed pass must also
/// repeat the reference's windows and batches and the first timed pass's
/// store counters exactly.
void CheckPass(const Pass& p, const Pass* first, Run* run) {
  run->attempted += p.inv.size();
  run->failed += p.wrong;
  if (first != nullptr &&
      (!SameCounts(p.counts, first->counts, run->store_exact) ||
       p.counts.windows != run->ref_counts.windows ||
       p.counts.batches != run->ref_counts.batches)) {
    run->problems.push_back("exact counters changed between passes");
  }
}

/// The pass schedule shared by all workloads: a warm-up over the first
/// kWarmupAlerts alerts that is never reported, then timed passes over all
/// of them — `fixed` when nonzero, else until `seconds` have gone by and at
/// least kMinTimedPasses have run. Traced runs alternate untraced and
/// traced passes, so drift during the run hits both sides of the overhead
/// ratio alike. `pass_fn(traced, count)` runs the first `count` alerts.
template <typename PassFn, typename CpuFn>
void RunPasses(const Args& args, const Input& in, size_t fixed, Run* run,
               PassFn pass_fn, CpuFn cpu_now) {
  CheckPass(pass_fn(false, kWarmupAlerts), nullptr, run);
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  for (size_t n = 0;; ++n) {
    if (fixed != 0 ? n >= fixed
                   : n >= kMinTimedPasses && NowNs() - start >= budget) {
      break;
    }
    const bool traced = args.trace && n % 2 == 1;
    const RegistryCounts r0 = RegistryCounts::Now();
    const double cpu0 = cpu_now();
    const long sw0 = ProcessTimes::Now().voluntary_switches;
    Pass p = pass_fn(traced, in.alerts.size());
    const Pass* first = !run->untraced.empty() ? &run->untraced[0] : nullptr;
    CheckPass(p, first != nullptr ? first : &p, run);
    if (traced) {
      run->traced.push_back(std::move(p));
      continue;
    }
    const RegistryCounts r1 = RegistryCounts::Now();
    run->reg.prefetch_hits += r1.prefetch_hits - r0.prefetch_hits;
    run->reg.rpcs += r1.rpcs - r0.rpcs;
    run->reg.retries += r1.retries - r0.retries;
    run->reg.shard_down += r1.shard_down - r0.shard_down;
    run->cpu_s += cpu_now() - cpu0;
    run->switches += ProcessTimes::Now().voluntary_switches - sw0;
    run->windows += p.counts.windows;
    run->untraced.push_back(std::move(p));
  }
}

double SelfCpu() { return ProcessTimes::Now().cpu_s; }

/// Direct CollectDest calls on the workload's own store over the
/// reference graphs' frontier windows (traced runs).
void ProbeCollect(const EventStore& store,
                  const std::vector<ProbeWindow>& windows) {
  for (const ProbeWindow& w : windows) {
    Scope span("storage/CollectDest");
    const RangeScanBatch batch = store.CollectDest(w.key, w.begin, w.end);
    (void)batch;
  }
}

/// The in-process reference over the workload's storage layout, at one
/// scan thread: every later graph must reproduce it byte for byte.
void Reference(const EventStore& store, const Input& in, Run* run) {
  const Pass pass =
      InProcessPass(store, in, in.alerts.size(), 1, nullptr, nullptr,
                    &run->ref);
  run->ref_counts = pass.counts;
  if (pass.wrong != 0) run->problems.push_back("reference run failed");
}

/// Times SealTail per row on a columnar copy of our own fed the ingest
/// stream's batches (traced runs; the same on every workload).
double ProbeSealTail(const Input& in) {
  auto copy = LoadStore(in, LocalOptions(StorageBackendKind::kColumnar));
  if (!copy.ok()) return 0;
  EventStore& c = *copy.value();
  int64_t seal_ns = 0;
  size_t sealed = 0;
  for (uint64_t j = 0; j < kSealProbeBatches; ++j) {
    for (const Event& e : IngestBatch(in, j)) c.Append(e);
    if (c.TailRows() < kSealTailRows) continue;
    const size_t rows = c.TailRows();
    const int64_t t0 = NowNs();
    {
      Scope span("storage/SealTail");
      c.SealTail(nullptr);
    }
    seal_ns += NowNs() - t0;
    sealed += rows;
  }
  return sealed > 0 ? Us(seal_ns) / static_cast<double>(sealed) : 0;
}

// ----------------------------------------------------------- workloads

bool RunSweep(const Args& args, const Input& in, Run* run) {
  std::unique_ptr<EventStore> store;
  for (int r = 0; r < kSetupRepeats; ++r) {
    store.reset();
    const int64_t t0 = NowNs();
    auto loaded = LoadStore(in, LocalOptions(StorageBackendKind::kRow));
    if (!loaded.ok()) {
      run->problems.push_back("LoadTrace: " + loaded.status().ToString());
      return false;
    }
    store = std::move(loaded.value());
    run->setup_s.push_back(Sec(NowNs() - t0));
    run->load_s.push_back(run->setup_s.back());
  }
  Reference(*store, in, run);
  RunPasses(args, in, 0, run,
            [&](bool traced, size_t count) {
              return InProcessPass(*store, in, count, 1, &run->ref,
                                   traced ? &run->seams : nullptr);
            },
            SelfCpu);
  if (args.trace) ProbeCollect(*store, FrontierWindows(*store, in));
  return true;
}

/// Restricts this process — and every process it forks afterwards — to
/// the first `n` CPUs it may run on.
bool ConfineToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  cpu_set_t mine;
  CPU_ZERO(&mine);
  int taken = 0;
  for (int c = 0; c < CPU_SETSIZE && taken < n; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &mine);
      taken++;
    }
  }
  return taken == n && sched_setaffinity(0, sizeof(mine), &mine) == 0;
}

bool RunFleet(const Args& args, const Input& in, Run* run) {
  if (args.shardd.empty() || access(args.shardd.c_str(), X_OK) != 0) {
    std::printf("SKIP: no shard daemon binary (%s); pass --shardd PATH\n",
                args.shardd.empty() ? "unset" : args.shardd.c_str());
    return false;
  }
  // Unconfined, the daemons and the coordinator's threads spread over
  // whatever CPUs the host is busy on, and runs ranged twice as wide.
  if (!ConfineToCpus(kFleetCpus)) {
    run->problems.push_back("cannot confine the fleet to two CPUs");
    return false;
  }
  std::unique_ptr<EventStore> store;
  std::unique_ptr<dist::ShardFleet> fleet;
  std::vector<dist::ShardEndpoint> endpoints;
  for (int r = 0; r < kSetupRepeats; ++r) {
    store.reset();  // the coordinator's connections go before the daemons
    fleet.reset();
    endpoints.clear();
    const int64_t t0 = NowNs();
    dist::FleetOptions fo;
    fo.shardd_bin = args.shardd;
    fo.shards = kFleetShards;
    fo.backend = StorageBackendKind::kRow;
    Result<std::unique_ptr<dist::ShardFleet>> launched = Status::Ok();
    {
      Scope span("dist/ShardFleet::Launch");
      launched = dist::ShardFleet::Launch(fo);
    }
    const int64_t t1 = NowNs();
    if (!launched.ok()) {
      run->problems.push_back("fleet launch: " + launched.status().ToString());
      return false;
    }
    fleet = std::move(launched.value());
    for (const dist::ShardProcess& p : fleet->shards()) {
      auto ep = dist::ParseShardEndpoint(p.endpoint);
      if (!ep.ok()) {
        run->problems.push_back("bad endpoint " + p.endpoint);
        return false;
      }
      endpoints.push_back(ep.value());
    }
    // The wiring `aptrace_serverd --shard-endpoint` uses.
    EventStoreOptions options = LocalOptions(StorageBackendKind::kRow);
    options.shards = kFleetShards;
    options.dist_fanout_threads = kFleetShards;
    options.shard_backend_factory =
        [&endpoints](size_t shard, const EventStoreOptions& o)
        -> std::unique_ptr<StorageBackend> {
      auto client = std::make_shared<dist::ShardClient>(
          endpoints[shard], static_cast<uint32_t>(shard), o.backend);
      return std::make_unique<dist::RemoteShardBackend>(
          std::move(client), o.backend, o.cost_model);
    };
    Result<std::unique_ptr<EventStore>> loaded = Status::Ok();
    try {
      loaded = LoadStore(in, std::move(options));
    } catch (const dist::DistError& e) {
      loaded = Status::Internal(e.what());
    }
    const int64_t t2 = NowNs();
    if (!loaded.ok()) {
      run->problems.push_back("remote LoadTrace: " +
                              loaded.status().ToString());
      return false;
    }
    store = std::move(loaded.value());
    run->launch_s.push_back(Sec(t1 - t0));
    run->load_s.push_back(Sec(t2 - t1));
    run->setup_s.push_back(Sec(t2 - t0));
  }
  {
    // The reference runs in process over the same layout, two local row
    // shards: shard fan-out changes the simulated cost the 2-hour cap cuts
    // at, and with it the graph.
    EventStoreOptions layout = LocalOptions(StorageBackendKind::kRow);
    layout.shards = kFleetShards;
    auto local = LoadStore(in, layout);
    if (!local.ok()) {
      run->problems.push_back("LoadTrace: " + local.status().ToString());
      return false;
    }
    Reference(*local.value(), in, run);
  }
  std::vector<pid_t> pids;
  for (const dist::ShardProcess& p : fleet->shards()) pids.push_back(p.pid);
  RunPasses(
      args, in, 0, run,
      [&](bool traced, size_t count) {
        try {
          return InProcessPass(*store, in, count, kFleetScanThreads,
                               &run->ref, traced ? &run->seams : nullptr);
        } catch (const dist::DistError& e) {
          run->problems.push_back(std::string("fleet: ") + e.what());
          Pass failed;
          failed.inv.resize(count);
          failed.wrong = count;
          return failed;
        }
      },
      [&] {
        double cpu = SelfCpu();
        for (const pid_t pid : pids) cpu += ChildCpuSeconds(pid);
        return cpu;
      });
  if (args.trace) {
    const std::vector<ProbeWindow> windows = FrontierWindows(*store, in);
    ProbeCollect(*store, windows);
    dist::ShardClient client(endpoints[0], 0, StorageBackendKind::kRow);
    for (const ProbeWindow& w : windows) {
      obs::JsonDict fields;
      fields.Add("key", static_cast<uint64_t>(w.key));
      fields.Add("begin", static_cast<int64_t>(w.begin));
      fields.Add("end", static_cast<int64_t>(w.end));
      try {
        Scope span("dist/ShardClient::Call");
        client.Call("shard.collect_dest", fields);
      } catch (const dist::DistError& e) {
        run->problems.push_back(std::string("direct rpc: ") + e.what());
        break;
      }
    }
  }
  return true;
}

bool RunServed(const Args& args, const Input& in, Run* run) {
  run->store_exact = false;
  run->concurrent = true;
  // Relative, so the path stays short whatever the checkout's location.
  const std::string socket =
      ".bench_build/perfbench-" + std::to_string(getpid()) + ".sock";
  service::ServiceLimits limits;
  limits.seal_tail_rows = kSealTailRows;
  std::unique_ptr<EventStore> store;
  std::unique_ptr<service::SessionManager> manager;
  std::unique_ptr<service::Server> server;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    manager.reset();
    store.reset();
    const int64_t t0 = NowNs();
    auto loaded = LoadStore(in, LocalOptions(StorageBackendKind::kColumnar));
    const int64_t t1 = NowNs();
    if (!loaded.ok()) {
      run->problems.push_back("LoadTrace: " + loaded.status().ToString());
      return false;
    }
    store = std::move(loaded.value());
    manager = std::make_unique<service::SessionManager>(store.get(), limits);
    service::ServerOptions so;
    so.unix_socket_path = socket;
    server = std::make_unique<service::Server>(manager.get(), so);
    Status st = Status::Ok();
    {
      Scope span("service/Server::Start");
      st = server->Start();
    }
    if (!st.ok()) {
      run->problems.push_back("Server::Start: " + st.ToString());
      return false;
    }
    run->load_s.push_back(Sec(t1 - t0));
    run->setup_s.push_back(Sec(NowNs() - t0));
  }
  {
    // Columnar scans cost less simulated time than row scans, so the
    // reference runs in process over a columnar store too.
    auto local = LoadStore(in, LocalOptions(StorageBackendKind::kColumnar));
    if (!local.ok()) {
      run->problems.push_back("LoadTrace: " + local.status().ToString());
      return false;
    }
    Reference(*local.value(), in, run);
  }

  LineClient clients[kServedClients];
  for (LineClient& c : clients) {
    if (!c.Connect(socket)) {
      run->problems.push_back("cannot connect to " + socket);
      return false;
    }
  }
  std::atomic<bool> stop_ingest{false};
  std::thread ingest(IngestLoop, socket, std::cref(in), &stop_ingest,
                     &run->ingest);
  // The clients open the two alerts of a pair together and start the next
  // pair when both graphs are in. Pairs are neighbours on the size ladder,
  // so every investigation shares the scheduler with one of about its own
  // size, whatever the seed; free-running clients paired small alerts with
  // capped ones at random, and p50 ranged 40 % between runs.
  static_assert(kServedClients == 2, "pairs feed exactly two clients");
  std::vector<std::array<size_t, 2>> pairs;
  {
    std::vector<size_t> by_rank(in.alerts.size());
    for (size_t i = 0; i < in.alerts.size(); ++i) by_rank[in.rank[i]] = i;
    for (size_t r = 0; r + 1 < by_rank.size(); r += 2) {
      pairs.push_back({std::min(by_rank[r], by_rank[r + 1]),
                       std::max(by_rank[r], by_rank[r + 1])});
    }
    std::sort(pairs.begin(), pairs.end());  // sampling order
  }
  std::vector<SpanRecorder> recorders(kServedClients);
  const bool tracing = t_spans != nullptr;
  uint64_t wall_us = 0;
  int64_t latency_ns = 0;

  auto pass_fn = [&](bool traced, size_t count) {
    Pass pass;
    pass.inv.resize(count);
    std::vector<Outcome> outs(count);
    std::vector<ServiceTimes> times(kServedClients);
    std::barrier sync(static_cast<std::ptrdiff_t>(kServedClients));
    const uint64_t first_id = manager->stats().opened_total + 1;
    const service::ServiceStats s0 = manager->stats();
    const StoreStats st0 = store->stats();
    const int64_t t0 = NowNs();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kServedClients; ++c) {
      threads.emplace_back([&, c] {
        t_spans = traced && tracing ? &recorders[c] : nullptr;
        for (size_t k = 0; k < count / 2; ++k) {
          const size_t i = pairs[k][c];
          const size_t slot = count == in.alerts.size() ? i : 2 * k + c;
          pass.inv[slot] =
              ServeOne(&clients[c], in, i, &times[c], &outs[slot]);
          sync.arrive_and_wait();
        }
        t_spans = nullptr;
      });
    }
    for (std::thread& t : threads) t.join();
    pass.wall_ns = NowNs() - t0;
    const service::ServiceStats s1 = manager->stats();
    pass.counts.store = Delta(st0, store->stats());
    pass.counts.quanta = s1.quanta_total - s0.quanta_total;
    for (size_t i = 0; i < outs.size(); ++i) {
      const size_t alert =
          count == in.alerts.size() ? i : pairs[i / 2][i % 2];
      if (!SameOutcome(outs[i], run->ref[alert], false)) pass.wrong++;
      pass.counts.windows += outs[i].windows;
      pass.counts.batches += outs[i].batch_times.size();
    }
    if (traced) {
      for (const ServiceTimes& t : times) {
        run->polls += t.polls;
        run->empty_polls += t.empty_polls;
      }
    } else {
      run->stalls +=
          s1.backpressure_stalls_total - s0.backpressure_stalls_total;
      for (const InvSample& s : pass.inv) latency_ns += s.total_ns;
      for (const service::SessionRow& row : manager->SessionRows()) {
        if (row.id >= first_id) wall_us += row.wall_micros;
      }
    }
    return pass;
  };
  // A fixed pass count: the daemon keeps every session it has served, so
  // a time-bound count would turn a speed-up into more resident memory.
  RunPasses(args, in, kServedPasses, run, pass_fn, SelfCpu);
  stop_ingest.store(true);
  ingest.join();
  run->busy_share = latency_ns > 0 ? static_cast<double>(wall_us) * 1e3 /
                                         static_cast<double>(latency_ns)
                                   : 0;
  server->RequestShutdown();
  server->Shutdown();
  manager->StopAndJoin();
  run->spans = std::move(recorders);

  if (args.trace) {
    // The scheduler has stopped, so the daemon's store is quiescent.
    ProbeCollect(*store, FrontierWindows(*store, in));
  }
  server.reset();
  manager.reset();
  store.reset();
  unlink(socket.c_str());
  return true;
}

// ------------------------------------------------------------- metrics

/// End-to-end figures of a list of passes, each investigation timed on
/// its fastest pass.
struct E2E {
  double ips = 0;
  double inv_p50_ms = 0;
  double inv_p90_ms = 0;
  double first_p50_ms = 0;
  double gap_p50_us = 0;
  double gap_p99_us = 0;
};

/// Closed loops that run one investigation at a time take throughput from
/// the sum of each investigation's fastest time, which no single noisy
/// moment can move; concurrent passes (served) from the fastest whole pass.
E2E Summarize(const std::vector<Pass>& passes, bool concurrent) {
  E2E e;
  if (passes.empty()) return e;
  std::vector<std::vector<InvSample>> inv;
  int64_t fastest = passes[0].wall_ns;
  for (const Pass& p : passes) {
    inv.push_back(p.inv);
    fastest = std::min(fastest, p.wall_ns);
  }
  const std::vector<size_t> best = FastestPass(inv);
  std::vector<double> total_ms;
  std::vector<double> first_ms;
  std::vector<double> gaps_us;
  int64_t best_sum = 0;
  for (size_t i = 0; i < best.size(); ++i) {
    const InvSample& s = inv[best[i]][i];
    best_sum += s.total_ns;
    total_ms.push_back(Ms(s.total_ns));
    if (s.first_update_ns >= 0) first_ms.push_back(Ms(s.first_update_ns));
    for (const int64_t g : s.gaps_ns) gaps_us.push_back(Us(g));
  }
  e.ips = static_cast<double>(best.size()) /
          Sec(concurrent ? fastest : best_sum);
  e.inv_p50_ms = HarrellDavis(total_ms, 50);
  e.inv_p90_ms = HarrellDavis(total_ms, 90);
  e.first_p50_ms = Percentile(first_ms, 50);
  e.gap_p50_us = Percentile(gaps_us, 50);
  e.gap_p99_us = Percentile(gaps_us, 99);
  return e;
}

std::vector<Metric> EndToEndMetrics(const Run& run) {
  const E2E e = Summarize(run.untraced, run.concurrent);
  return {
      {"setup_s", Median(run.setup_s), "s", ""},
      {"investigations_per_s", e.ips, "1/s", ""},
      {"investigation_ms_p50", e.inv_p50_ms, "ms", ""},
      {"investigation_ms_p90", e.inv_p90_ms, "ms", ""},
      {"update_gap_us_p50", e.gap_p50_us, "us", ""},
      {"peak_rss_mb", PeakRssMb(), "MB", ""},
  };
}

/// Durations (us) of every recorded span called `name`.
std::vector<double> SpanUs(const std::vector<const SpanRecorder*>& recs,
                           const char* name) {
  std::vector<double> out;
  for (const SpanRecorder* r : recs) {
    for (const Span& s : r->spans()) {
      if (std::strcmp(s.name, name) == 0) {
        out.push_back(Us(s.end_ns - s.start_ns));
      }
    }
  }
  return out;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

std::vector<Metric> LayerMetrics(const Input& in, const Run& run,
                                 const std::vector<const SpanRecorder*>& recs,
                                 const std::vector<double>& compile_us) {
  const PassCounts c =
      run.untraced.empty() ? PassCounts{} : run.untraced[0].counts;
  const double passes = static_cast<double>(run.untraced.size());
  const double w = static_cast<double>(run.windows);
  const E2E plain = Summarize(run.untraced, run.concurrent);
  const E2E traced = Summarize(run.traced, run.concurrent);
  double nodes = 0;
  double edges = 0;
  std::vector<double> waits;
  for (const Outcome& o : run.ref) {
    nodes += static_cast<double>(o.nodes);
    edges += static_cast<double>(o.edges);
    waits.push_back(MaxSimWaitSeconds(o));
  }
  const SeamTimes& st = run.seams;
  const double traced_investigations =
      static_cast<double>(run.traced.size() * in.alerts.size());
  const std::vector<double> late = run.ingest.late_ms;
  return {
      {"bdl.compile_us", Median(compile_us), "us",
       "first_update_ms_p50 on served"},
      {"core.resolve_us", Median(st.resolve_us), "us",
       "investigation_ms_p50 on sweep and fleet"},
      {"core.windows", static_cast<double>(c.windows), "count", "exact"},
      {"core.batches_per_window",
       Ratio(static_cast<double>(c.batches), static_cast<double>(c.windows)),
       "ratio", "exact"},
      {"core.scan_us_per_window",
       Ratio(Us(st.scan_ns), static_cast<double>(st.scan_windows)), "us",
       "investigations_per_s on sweep"},
      {"core.post_scan_us_per_batch",
       Ratio(Us(st.post_scan_ns), static_cast<double>(st.post_scan_batches)),
       "us", "update_gap_us_p50 and investigations_per_s on sweep"},
      {"core.prefetch_hit_ratio",
       Ratio(static_cast<double>(run.reg.prefetch_hits), w), "ratio",
       "investigation_ms_p90 on served and fleet"},
      {"graph.nodes", nodes, "count", "exact"},
      {"graph.edges", edges, "count", "exact"},
      {"graph.json_us", Median(SpanUs(recs, "graph/WriteGraphJson")), "us",
       "investigation_ms_p50 on served"},
      {"storage.load_s", Median(run.load_s), "s", "setup_s on all"},
      {"storage.queries", static_cast<double>(c.store.queries), "count",
       "exact"},
      {"storage.rows_matched", static_cast<double>(c.store.rows_matched),
       "count", "exact"},
      {"storage.rows_filtered", static_cast<double>(c.store.rows_filtered),
       "count", "exact"},
      {"storage.units_probed",
       static_cast<double>(c.store.partitions_probed), "count",
       "exact on sweep and fleet"},
      {"storage.segments_pruned",
       static_cast<double>(c.store.segments_pruned), "count",
       "exact on sweep and fleet"},
      {"storage.sim_cost_s", MicrosToSeconds(c.store.simulated_cost), "s",
       "exact on sweep and fleet; must not move"},
      {"storage.collect_us", Median(SpanUs(recs, "storage/CollectDest")),
       "us", "investigation_ms_p50 on served and sweep"},
      {"storage.seal_tail_us_per_row", run.seal_us_per_row, "us",
       "investigation_ms_p90 and setup_s on served"},
      {"service.open_us", Median(SpanUs(recs, "service/open")), "us",
       "first_update_ms_p50 on served"},
      {"service.poll_us", Median(SpanUs(recs, "service/poll")), "us",
       "investigation_ms_p50 on served"},
      {"service.graph_us", Median(SpanUs(recs, "service/graph")), "us",
       "investigation_ms_p50 on served"},
      {"service.polls_per_investigation",
       Ratio(static_cast<double>(run.polls), traced_investigations), "ratio",
       "investigation_ms_p50 on served"},
      {"service.empty_poll_ratio",
       Ratio(static_cast<double>(run.empty_polls),
             static_cast<double>(run.polls)),
       "ratio", "investigation_ms_p50 on served"},
      {"service.quanta", static_cast<double>(c.quanta), "count", "exact"},
      {"service.windows_per_quantum",
       Ratio(static_cast<double>(c.windows), static_cast<double>(c.quanta)),
       "ratio", "investigation_ms_p90 on served"},
      {"service.busy_share", run.busy_share, "ratio",
       "investigation_ms_p90 on served"},
      {"service.backpressure_stalls",
       Ratio(static_cast<double>(run.stalls), passes), "count",
       "investigation_ms_p90 on served"},
      {"dist.launch_s", Median(run.launch_s), "s", "setup_s on fleet"},
      {"dist.load_s", run.launch_s.empty() ? 0 : Median(run.load_s), "s",
       "setup_s on fleet"},
      {"dist.rpcs", Ratio(static_cast<double>(run.reg.rpcs), passes),
       "count", "investigations_per_s on fleet"},
      {"dist.rpcs_per_window", Ratio(static_cast<double>(run.reg.rpcs), w),
       "ratio", "investigations_per_s and update_gap_us_p50 on fleet"},
      {"dist.retries", static_cast<double>(run.reg.retries), "count",
       "failures on fleet"},
      {"dist.shard_down", static_cast<double>(run.reg.shard_down), "count",
       "failures on fleet"},
      {"dist.rpc_us", Median(SpanUs(recs, "dist/ShardClient::Call")), "us",
       "update_gap_us_p50 on fleet"},
      {"run.cpu_s", Ratio(run.cpu_s, passes), "s", "per untraced pass"},
      {"run.switches_per_window",
       Ratio(static_cast<double>(run.switches), w), "ratio",
       "investigations_per_s on fleet, investigation_ms_p50 on served"},
      {"run.trace_overhead_pct", (Ratio(plain.ips, traced.ips) - 1) * 100,
       "%", "traced vs untraced investigations_per_s"},
      {"run.first_update_ms_p50", plain.first_p50_ms, "ms",
       "user-visible; noisy on sweep"},
      {"run.update_gap_us_p99", plain.gap_p99_us, "us",
       "user-visible tail; ranged over 20 % on served and fleet"},
      {"run.sim_wait_s_p90", Percentile(waits, 90), "s",
       "Table II statistic; exact, must not move"},
      {"run.ingest_ack_ms_p50", Percentile(run.ingest.ack_ms, 50), "ms",
       "served only: ack time from each batch's due time"},
      {"run.ingest_late_ms_p99", Percentile(late, 99), "ms",
       "served only: generator lateness"},
  };
}

// ------------------------------------------------------------- outputs

void WriteLayerFiles(const Args& args, const std::vector<Metric>& metrics,
                     const std::vector<const SpanRecorder*>& recs) {
  const std::string base = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  std::map<std::string, std::pair<size_t, std::pair<double, double>>> self;
  std::string events;
  size_t written = 0;
  for (size_t t = 0; t < recs.size(); ++t) {
    const std::vector<Span>& spans = recs[t]->spans();
    const std::vector<int64_t> self_ns = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      auto& agg = self[spans[i].name];
      agg.first++;
      agg.second.first += Us(spans[i].end_ns - spans[i].start_ns);
      agg.second.second += Us(self_ns[i]);
      if (written++ >= kChromeSpans) continue;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    events.empty() ? "" : ",\n", spans[i].name, t,
                    Us(spans[i].start_ns), Us(spans[i].end_ns -
                                               spans[i].start_ns));
      events += buf;
    }
  }
  std::ofstream trace(base + ".trace.json");
  trace << "{\"traceEvents\":[\n" << events << "\n]}\n";
  std::ofstream layers(base + ".layers.json");
  layers << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
         << ",\n\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.9g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    layers << (i ? ",\n" : "\n") << " \"" << metrics[i].name
           << "\":{\"value\":" << num << ",\"unit\":\"" << metrics[i].unit
           << "\",\"moves\":\"" << metrics[i].moves << "\"}";
  }
  layers << "},\n\"spans\":{";
  size_t k = 0;
  for (const auto& [name, agg] : self) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"count\":%zu,\"total_us\":%.1f,\"self_us\":%.1f",
                  agg.first, agg.second.first, agg.second.second);
    layers << (k++ ? ",\n" : "\n") << " \"" << name << "\":{" << buf << "}";
  }
  layers << "}}\n";
  if (!trace || !layers) {
    std::fprintf(stderr, "perfbench: cannot write %s.*.json\n", base.c_str());
  }
}

// ------------------------------------------------------------ selftest

/// Unit checks of the arithmetic above on synthetic samples.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAIL: %s\n", what);
      failures++;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  expect(std::isnan(Percentile({}, 50)), "percentile of nothing is NaN");
  expect(near(Percentile({7}, 99), 7), "percentile of one sample");
  expect(near(Percentile({4, 1, 3, 2}, 50), 2.5), "median interpolates");
  expect(near(Percentile({1, 2, 3, 4, 5}, 90), 4.6), "p90 interpolates");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(near(Percentile(hundred, 90), 90.1), "p90 of 1..100");
  expect(near(Percentile(hundred, 0), 1) && near(Percentile(hundred, 100), 100),
         "percentile ends");
  expect(std::isnan(HarrellDavis({}, 50)), "Harrell-Davis of nothing");
  expect(std::fabs(HarrellDavis(hundred, 50) - 50.5) < 1e-6,
         "Harrell-Davis median of 1..100 is 50.5 by symmetry");
  const double hd90 = HarrellDavis(hundred, 90);
  expect(hd90 > 89 && hd90 < 92, "Harrell-Davis p90 of 1..100 near 90.9");
  // Fifty 1s and fifty 3s; moving one sample from 1 to 3 shifts the
  // interpolated median by 1 but the Harrell-Davis one by much less.
  std::vector<double> steps(100, 1.0);
  std::fill(steps.begin() + 50, steps.end(), 3.0);
  std::vector<double> moved = steps;
  moved[49] = 3.0;
  expect(near(Percentile(moved, 50) - Percentile(steps, 50), 1) &&
             HarrellDavis(moved, 50) - HarrellDavis(steps, 50) < 0.3,
         "Harrell-Davis spreads the middle samples' weight");

  // Investigation 0 is fastest in pass 1, investigation 1 in pass 0, and
  // investigation 2 ties (the earlier pass wins); the kept pass's gaps come
  // with it.
  auto sample = [](int64_t total, int64_t first, std::vector<int64_t> gaps) {
    InvSample s;
    s.total_ns = total;
    s.first_update_ns = first;
    s.gaps_ns = std::move(gaps);
    return s;
  };
  const std::vector<std::vector<InvSample>> passes = {
      {sample(50, 5, {1}), sample(10, 1, {2}), sample(30, 3, {3})},
      {sample(40, 4, {9}), sample(20, 2, {8}), sample(30, 6, {7})},
      {sample(45, 4, {5}), sample(15, 2, {5}), sample(31, 6, {5})}};
  const std::vector<size_t> best = FastestPass(passes);
  expect(best == std::vector<size_t>({1, 0, 0}), "fastest pass per item");
  expect(passes[best[0]][0].gaps_ns == std::vector<int64_t>({9}),
         "gaps travel with the kept pass");
  expect(FastestPass({}).empty(), "no passes");

  // root [0,100) with children [10,30) and [20,50) (overlapping) and
  // [60,70), whose own child [62,65) is a grandchild of root.
  std::vector<Span> spans = {{"root", 0, 100, -1},
                             {"a", 10, 30, 0},
                             {"b", 20, 50, 0},
                             {"c", 60, 70, 0},
                             {"d", 62, 65, 3}};
  const std::vector<int64_t> self = SelfTimes(spans);
  expect(self == std::vector<int64_t>({50, 20, 30, 7, 3}),
         "self time subtracts the union of child intervals");
  SpanRecorder rec;
  const int32_t outer = rec.Begin("outer");
  const int32_t inner = rec.Begin("inner");
  rec.End(inner);
  const int32_t sibling = rec.Begin("sibling");
  rec.End(sibling);
  rec.End(outer);
  expect(rec.spans()[1].parent == outer && rec.spans()[2].parent == outer &&
             rec.spans()[0].parent == -1,
         "recorder nests by the open-span stack");
  expect(SelfTimes(rec.spans())[0] >= 0, "recorded self time non-negative");

  // Ladder: an exact candidate for every target wins over near misses.
  const std::vector<double> values = {100, 1, 10, 11, 1000, 5};
  const std::vector<size_t> picked = MatchLadder(values, {1, 10, 100});
  expect(picked == std::vector<size_t>({1, 2, 0}), "ladder picks exact fits");
  expect(MatchLadder({1, 2}, {1, 2, 3}).empty(), "ladder needs enough");
  const std::vector<double> t = LadderTargets(100);
  expect(t.size() == 100 && std::is_sorted(t.begin(), t.end()) &&
             near(t[0], 5) && t[99] < 140000 && t[99] > 70000,
         "ladder targets ascend from 5 to under 140000");

  std::fprintf(stderr, "selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(google-build-using-namespace)
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.selftest) return SelfTest();
  const int64_t t_in = NowNs();
  Input in;
  if (!GenerateInput(args.seed, args.alerts, &in)) {
    std::fprintf(stderr, "perfbench: input generation failed\n");
    return 1;
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu events, %zu bytes v2, "
               "%zu alerts (input %.2f s)\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), in.events,
               in.v2.size(), in.alerts.size(), Sec(NowNs() - t_in));
  if (in.alerts.size() != args.alerts) {
    std::fprintf(stderr, "perfbench: the ladder could not be filled\n");
    return 1;
  }
  SpanRecorder main_spans;
  std::vector<double> compile_us;
  if (args.trace) {
    t_spans = &main_spans;
    for (const std::string& script : in.scripts) {
      const int64_t t0 = NowNs();
      {
        Scope span("bdl/CompileBdl");
        auto spec = bdl::CompileBdl(script);
        (void)spec;
      }
      compile_us.push_back(Us(NowNs() - t0));
    }
  }
  Run run;
  bool ran = false;
  if (args.workload == "sweep") ran = RunSweep(args, in, &run);
  if (args.workload == "fleet") ran = RunFleet(args, in, &run);
  if (args.workload == "served") ran = RunServed(args, in, &run);
  if (ran && args.trace) run.seal_us_per_row = ProbeSealTail(in);
  t_spans = nullptr;
  if (!ran && run.problems.empty()) return 0;  // skipped
  // The open-loop generator must keep its schedule: a run whose generator
  // fell more than one period behind on over 1 % of batches is invalid.
  const auto late = std::count_if(
      run.ingest.late_ms.begin(), run.ingest.late_ms.end(),
      [](double ms) { return ms > Ms(kIngestPeriodNs); });
  if (static_cast<double>(late) > 0.01 * static_cast<double>(run.ingest.sent)) {
    run.problems.push_back("ingest generator fell behind its schedule");
  }
  run.attempted += run.ingest.sent;
  run.failed += run.ingest.rejected;
  for (const std::string& p : run.problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  if (!ran) return 1;
  const bool correct = run.problems.empty() && run.failed == 0;
  std::vector<Metric> metrics;
  if (args.trace) {
    std::vector<const SpanRecorder*> recs = {&main_spans};
    for (const SpanRecorder& r : run.spans) recs.push_back(&r);
    metrics = LayerMetrics(in, run, recs, compile_us);
    WriteLayerFiles(args, metrics, recs);
  } else {
    metrics = EndToEndMetrics(run);
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-32s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.moves.c_str());
  }
  std::fprintf(stderr, "  timed passes %zu (+%zu traced), attempted %llu, "
               "failed %llu, ingest late>period %ld\n",
               run.untraced.size(), run.traced.size(),
               static_cast<unsigned long long>(run.attempted),
               static_cast<unsigned long long>(run.failed),
               static_cast<long>(late));
  PrintResult(correct, run.attempted, run.failed, metrics);
  return correct ? 0 : 1;
}
