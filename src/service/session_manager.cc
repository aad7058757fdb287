#include "service/session_manager.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "core/query_profile.h"
#include "graph/json_writer.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace aptrace::service {

namespace {

struct ServiceMetrics {
  obs::Counter* sessions_opened;
  obs::Gauge* sessions_live;
  obs::Counter* admission_rejected;
  obs::Counter* quanta;
  obs::Counter* backpressure_stalls;
  obs::Counter* ingest_events;
  obs::Counter* ingest_rejected;
  obs::LatencyHistogram* first_update_latency;
  obs::Counter* slow_queries;
  obs::Counter* flight_dumps;
};

const ServiceMetrics& Sm() {
  static const ServiceMetrics m = {
      obs::Metrics().FindOrCreateCounter(obs::names::kServiceSessionsOpened),
      obs::Metrics().FindOrCreateGauge(obs::names::kServiceSessionsLive),
      obs::Metrics().FindOrCreateCounter(
          obs::names::kServiceAdmissionRejected),
      obs::Metrics().FindOrCreateCounter(obs::names::kServiceQuanta),
      obs::Metrics().FindOrCreateCounter(
          obs::names::kServiceBackpressureStalls),
      obs::Metrics().FindOrCreateCounter(obs::names::kServiceIngestEvents),
      obs::Metrics().FindOrCreateCounter(obs::names::kServiceIngestRejected),
      obs::Metrics().FindOrCreateHistogram(
          obs::names::kServiceFirstUpdateLatency),
      obs::Metrics().FindOrCreateCounter(obs::names::kServiceSlowQueries),
      obs::Metrics().FindOrCreateCounter(obs::names::kServiceFlightDumps),
  };
  return m;
}

}  // namespace

const char* SessionStateName(SessionState s) {
  switch (s) {
    case SessionState::kRunning:
      return "running";
    case SessionState::kDone:
      return "done";
    case SessionState::kCancelled:
      return "cancelled";
    case SessionState::kBudget:
      return "budget";
    case SessionState::kFailed:
      return "failed";
  }
  return "unknown";
}

/// One hosted session: the engine plus the scheduler's bookkeeping.
///
/// Locking: `exec_mu` serializes every touch of `clock`/`session` (the
/// scheduler's quantum vs connection-thread graph/checkpoint reads); all
/// remaining fields are guarded by SessionManager::mu_. exec_mu is always
/// taken before mu_ (RunQuantum's callbacks take mu_ while holding
/// exec_mu), never the other way around.
struct SessionManager::Managed {
  uint64_t id = 0;
  std::unique_ptr<SimClock> clock;
  std::unique_ptr<Session> session;
  Mutex exec_mu{"SessionManager::Managed::exec_mu"};

  SessionState state = SessionState::kRunning;
  std::string detail = "running";
  uint64_t weight = 1;
  uint64_t arrival = 0;
  uint64_t vtime = 0;  // consumed simulated micros / weight
  uint64_t window_budget = 0;
  DurationMicros sim_budget = 0;
  bool cancel_requested = false;
  bool quantum_active = false;
  bool first_update_seen = false;
  TimeMicros opened_wall = 0;
  std::deque<ServiceBatch> buffer;
  uint64_t batch_seq = 0;

  /// Cumulative wall time of this session's quanta (observational).
  uint64_t wall_micros = 0;
  /// Once-per-session anomaly latches (slow query, first backpressure
  /// parking, failure) — each fires one log/dump, then stays set.
  bool slow_logged = false;
  bool stall_dumped = false;
  bool failure_dumped = false;
};

SessionManager::SessionManager(EventStore* store, ServiceLimits limits)
    : store_(store), limits_(limits) {
  scheduler_ = std::thread([this] { SchedulerLoop(); });
}

SessionManager::~SessionManager() { StopAndJoin(); }

void SessionManager::StopAndJoin() {
  Stop();
  // The scheduler drains accepted ingest before exiting (see
  // SchedulerLoop), so after the join every acked batch is in the store.
  if (scheduler_.joinable()) scheduler_.join();
}

void SessionManager::EnableDurability(WalWriter* wal,
                                      uint64_t applied_through) {
  MutexLock wal_lock(&wal_mu_);
  MutexLock lock(&mu_);
  wal_ = wal;
  applied_through_ = applied_through;
  last_enqueued_seq_ = applied_through;
  stats_.wal_last_seq = applied_through;
  stats_.wal_applied_through = applied_through;
}

uint64_t SessionManager::AppliedThrough() const {
  MutexLock lock(&mu_);
  return applied_through_;
}

void SessionManager::Stop() {
  {
    MutexLock lock(&mu_);
    draining_ = true;
    stop_ = true;
  }
  sched_cv_.NotifyAll();
}

bool SessionManager::draining() const {
  MutexLock lock(&mu_);
  return draining_;
}

SessionManager::Managed* SessionManager::FindLocked(uint64_t id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

Result<uint64_t> SessionManager::Admit(std::unique_ptr<Managed> s) {
  MutexLock lock(&mu_);
  if (draining_) {
    return Status::FailedPrecondition("SRV-E008: server is draining");
  }
  if (stats_.live >= static_cast<uint64_t>(limits_.max_live_sessions)) {
    stats_.admission_rejected_total++;
    Sm().admission_rejected->Add();
    return Status::FailedPrecondition(
        "SRV-E002: session limit reached (" +
        std::to_string(limits_.max_live_sessions) + " live)");
  }
  s->id = next_id_++;
  s->arrival = arrival_seq_++;
  // A newcomer inherits the smallest virtual time among running sessions
  // instead of zero: it gets service promptly (ties break by arrival, so
  // it runs after the current leaders' next quanta) without being owed
  // the entire backlog of service the incumbents already consumed.
  uint64_t min_vtime = 0;
  bool any = false;
  for (const auto& [id, other] : sessions_) {
    (void)id;
    if (other->state != SessionState::kRunning) continue;
    min_vtime = any ? std::min(min_vtime, other->vtime) : other->vtime;
    any = true;
  }
  s->vtime = any ? min_vtime : 0;
  const uint64_t id = s->id;
  sessions_.emplace(id, std::move(s));
  stats_.opened_total++;
  stats_.live++;
  Sm().sessions_opened->Add();
  Sm().sessions_live->Set(static_cast<int64_t>(stats_.live));
  sched_cv_.NotifyAll();
  return id;
}

Result<uint64_t> SessionManager::Open(const std::string& bdl_text,
                                      const OpenOptions& opts) {
  APTRACE_SPAN("service/open");
  auto s = std::make_unique<Managed>();
  s->clock = std::make_unique<SimClock>();
  s->weight = std::max<uint64_t>(1, opts.weight);
  s->window_budget = opts.window_budget.value_or(limits_.window_budget);
  s->sim_budget = opts.sim_budget.value_or(limits_.sim_budget);
  s->opened_wall = MonotonicNowMicros();
  s->session = std::make_unique<Session>(store_, s->clock.get());
  {
    // The start-event lookup and start-point resolution read the store;
    // serialize them against the scheduler's between-quanta ingest
    // appends and the seals that recut its segments.
    MutexLock store_lock(&store_mu_);
    std::optional<Event> start_override;
    if (opts.start_event.has_value()) {
      if (*opts.start_event >= store_->NumEvents()) {
        return Status::InvalidArgument("SRV-E004: start_event " +
                                       std::to_string(*opts.start_event) +
                                       " out of range");
      }
      start_override = store_->Get(*opts.start_event);
    }
    if (auto st = s->session->Start(bdl_text, start_override); !st.ok()) {
      return Status::InvalidArgument("SRV-E004: " + st.message());
    }
  }
  return Admit(std::move(s));
}

Result<uint64_t> SessionManager::Resume(const std::string& path,
                                        const OpenOptions& opts) {
  APTRACE_SPAN("service/resume");
  auto s = std::make_unique<Managed>();
  s->clock = std::make_unique<SimClock>();
  s->weight = std::max<uint64_t>(1, opts.weight);
  s->window_budget = opts.window_budget.value_or(limits_.window_budget);
  s->sim_budget = opts.sim_budget.value_or(limits_.sim_budget);
  s->opened_wall = MonotonicNowMicros();
  s->session = std::make_unique<Session>(store_, s->clock.get());
  {
    MutexLock store_lock(&store_mu_);
    if (auto st = s->session->LoadCheckpoint(path); !st.ok()) {
      return Status::InvalidArgument("SRV-E009: " + st.message());
    }
  }
  return Admit(std::move(s));
}

Result<PollResult> SessionManager::Poll(uint64_t id, uint64_t cursor,
                                        size_t max_batches) {
  MutexLock lock(&mu_);
  Managed* s = FindLocked(id);
  if (s == nullptr) {
    return Status::NotFound("SRV-E003: unknown session " +
                            std::to_string(id));
  }
  // Batches below the cursor are acknowledged: drop them, which is what
  // unstalls a session the scheduler parked on a full buffer.
  const bool was_full = s->buffer.size() >= limits_.update_buffer_cap;
  while (!s->buffer.empty() && s->buffer.front().seq < cursor) {
    s->buffer.pop_front();
  }
  if (was_full && s->buffer.size() < limits_.update_buffer_cap) {
    sched_cv_.NotifyAll();
  }
  PollResult r;
  r.state = s->state;
  r.detail = s->detail;
  r.terminal = s->state != SessionState::kRunning;
  const size_t want = max_batches == 0 ? s->buffer.size() : max_batches;
  for (const ServiceBatch& b : s->buffer) {
    if (r.batches.size() >= want) break;
    r.batches.push_back(b);
  }
  r.next_cursor =
      r.batches.empty() ? cursor : r.batches.back().seq + 1;
  r.snapshot = s->session->Snapshot();
  return r;
}

Status SessionManager::Cancel(uint64_t id) {
  MutexLock lock(&mu_);
  Managed* s = FindLocked(id);
  if (s == nullptr) {
    return Status::NotFound("SRV-E003: unknown session " +
                            std::to_string(id));
  }
  if (s->state != SessionState::kRunning) return Status::Ok();  // no-op
  s->cancel_requested = true;
  // A quantum in flight finalizes the session when it ends; wait for that
  // boundary so the reply means the session is terminal.
  while (s->quantum_active && s->state == SessionState::kRunning) {
    idle_cv_.Wait(lock);
  }
  if (s->state == SessionState::kRunning) {
    s->state = SessionState::kCancelled;
    s->detail = "cancelled";
    stats_.cancelled++;
    stats_.live--;
    Sm().sessions_live->Set(static_cast<int64_t>(stats_.live));
    idle_cv_.NotifyAll();
  }
  sched_cv_.NotifyAll();
  return Status::Ok();
}

Result<std::string> SessionManager::GraphJson(uint64_t id) {
  Managed* s = nullptr;
  {
    MutexLock lock(&mu_);
    s = FindLocked(id);
    if (s == nullptr) {
      return Status::NotFound("SRV-E003: unknown session " +
                              std::to_string(id));
    }
  }
  // exec_mu waits out an in-flight quantum, so the graph is at a window
  // boundary; the catalog is immutable (ingest never adds objects).
  MutexLock exec_lock(&s->exec_mu);
  std::ostringstream os;
  WriteGraphJson(s->session->engine()->graph(), store_->catalog(), os);
  return os.str();
}

Result<SessionSnapshot> SessionManager::Snapshot(uint64_t id) {
  MutexLock lock(&mu_);
  Managed* s = FindLocked(id);
  if (s == nullptr) {
    return Status::NotFound("SRV-E003: unknown session " +
                            std::to_string(id));
  }
  return s->session->Snapshot();
}

Result<SessionProfile> SessionManager::Profile(uint64_t id) {
  Managed* s = nullptr;
  {
    MutexLock lock(&mu_);
    s = FindLocked(id);
    if (s == nullptr) {
      return Status::NotFound("SRV-E003: unknown session " +
                              std::to_string(id));
    }
  }
  // Like GraphJson: exec_mu waits out an in-flight quantum, so the
  // profile describes complete windows only.
  MutexLock exec_lock(&s->exec_mu);
  const QueryProfile* profile = s->session->profile();
  if (profile == nullptr) {
    return Status::FailedPrecondition(
        "SRV-E005: engine keeps no query profile");
  }
  SessionProfile out;
  out.profile_json = QueryProfileToJson(*profile);
  out.scan_cost_micros =
      static_cast<uint64_t>(s->session->executor()->scan_cost_total());
  out.sim_now = s->clock->NowMicros();
  out.work_units = s->session->stats().work_units;
  out.probe_unit = store_->backend().capabilities().probe_unit;
  return out;
}

std::vector<SessionRow> SessionManager::SessionRows() const {
  MutexLock lock(&mu_);
  std::vector<SessionRow> rows;
  rows.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) {
    SessionRow row;
    row.id = id;
    row.state = SessionStateName(s->state);
    row.detail = s->detail;
    row.weight = s->weight;
    row.vtime = s->vtime;
    row.wall_micros = s->wall_micros;
    row.buffered_updates = s->buffer.size();
    row.stalled = s->state == SessionState::kRunning &&
                  s->buffer.size() >= limits_.update_buffer_cap;
    // Snapshot() takes only the session's snapshot mutex — never the
    // engine — so this view cannot block on a running quantum.
    const SessionSnapshot snap = s->session->Snapshot();
    row.sim_micros = snap.sim_now;
    row.work_units = snap.work_units;
    row.graph_nodes = snap.graph_nodes;
    row.graph_edges = snap.graph_edges;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<StoreShardRow> SessionManager::StoreShardRows() const {
  ShardedStore::Snapshot snap;
  {
    // The snapshot's resident/tail row counts read what ApplyIngest
    // appends.
    MutexLock store_lock(&store_mu_);
    snap = store_->ShardSnapshot();
  }
  std::vector<StoreShardRow> rows;
  rows.reserve(snap.shards.size());
  for (const ShardedStore::ShardStatsRow& s : snap.shards) {
    StoreShardRow row;
    row.shard = s.shard;
    row.resident_rows = s.resident_rows;
    row.tail_rows = s.tail_rows;
    row.scans = s.stats.queries;
    row.rows_matched = s.stats.rows_matched;
    row.rows_filtered = s.stats.rows_filtered;
    row.partitions_probed = s.stats.partitions_probed;
    row.partitions_seeked = s.stats.partitions_seeked;
    row.segments_pruned = s.stats.segments_pruned;
    row.boundary_rows = s.boundary_rows;
    row.sim_cost_micros = static_cast<uint64_t>(s.stats.simulated_cost);
    rows.push_back(row);
  }
  return rows;
}

Status SessionManager::Checkpoint(uint64_t id, const std::string& path) {
  Managed* s = nullptr;
  {
    MutexLock lock(&mu_);
    s = FindLocked(id);
    if (s == nullptr) {
      return Status::NotFound("SRV-E003: unknown session " +
                              std::to_string(id));
    }
    if (s->state != SessionState::kRunning) {
      return Status::FailedPrecondition(
          std::string("SRV-E005: cannot checkpoint a ") +
          SessionStateName(s->state) + " session");
    }
  }
  // Daemon checkpoints carry a durable-ingest mark: the applied WAL
  // position and the store size it implies. Reading applied_through_
  // before NumEvents() keeps the pair conservative — ApplyIngest bumps
  // the store first and the seq after, so store_events here always
  // covers at least the batches wal_seq claims. Non-durable daemons
  // (no --data-dir) write the classic mark-free format.
  CheckpointDurableMark mark;
  bool durable = false;
  {
    MutexLock wal_lock(&wal_mu_);
    durable = wal_ != nullptr;
  }
  if (durable) {
    {
      MutexLock lock(&mu_);
      mark.wal_seq = applied_through_;
    }
    MutexLock store_lock(&store_mu_);
    mark.store_events = store_->NumEvents();
  }
  MutexLock exec_lock(&s->exec_mu);
  if (auto st = s->session->SaveCheckpoint(path, durable ? &mark : nullptr);
      !st.ok()) {
    return Status::Internal("SRV-E009: " + st.message());
  }
  return Status::Ok();
}

Status SessionManager::ValidateEvent(const Event& e) const {
  const ObjectCatalog& catalog = store_->catalog();
  if (e.subject >= catalog.size() || e.object >= catalog.size()) {
    return Status::InvalidArgument(
        "SRV-E007: event references an unknown object");
  }
  if (e.host != kInvalidHostId && e.host >= catalog.NumHosts()) {
    return Status::InvalidArgument(
        "SRV-E007: event references an unknown host");
  }
  if (static_cast<uint8_t>(e.action) > static_cast<uint8_t>(
                                           ActionType::kDelete) ||
      static_cast<uint8_t>(e.direction) > 1) {
    return Status::InvalidArgument(
        "SRV-E007: event has an invalid action or direction");
  }
  return Status::Ok();
}

Result<IngestAck> SessionManager::Ingest(std::vector<Event> events) {
  APTRACE_SPAN("service/ingest");
  // Validation reads only the immutable catalog — no lock needed. The
  // whole batch is rejected on the first invalid row so a partial batch
  // never lands.
  for (const Event& e : events) {
    if (auto st = ValidateEvent(e); !st.ok()) {
      MutexLock lock(&mu_);
      stats_.ingest_rejected_total += events.size();
      Sm().ingest_rejected->Add(events.size());
      return st;
    }
  }
  IngestAck ack;
  ack.accepted = events.size();
  if (events.empty()) return ack;

  // wal_mu_ serializes producers for the whole admit -> log -> enqueue
  // sequence, so WAL order equals queue order equals store apply order.
  // mu_ is taken twice underneath it instead of once across the fsync:
  // the log write must not stall polls or the scheduler.
  MutexLock wal_lock(&wal_mu_);
  {
    MutexLock lock(&mu_);
    if (draining_) {
      return Status::FailedPrecondition("SRV-E008: server is draining");
    }
    if (ingest_queue_.size() + events.size() > limits_.ingest_queue_cap) {
      stats_.ingest_rejected_total += events.size();
      Sm().ingest_rejected->Add(events.size());
      return Status::FailedPrecondition(
          "SRV-E007: ingest queue full (" +
          std::to_string(limits_.ingest_queue_cap) + " events)");
    }
  }
  if (wal_ != nullptr) {
    // Durability contract: the batch is on disk (written + fsync'd)
    // before anything is buffered or acked. On failure the writer has
    // already rolled the log back to the previous record boundary, so
    // nothing is enqueued and the store never diverges from the log.
    auto seq = wal_->AppendBatch(events);
    if (!seq.ok()) {
      MutexLock lock(&mu_);
      stats_.ingest_rejected_total += events.size();
      Sm().ingest_rejected->Add(events.size());
      return Status::Internal("SRV-E010: durable ingest failed: " +
                              seq.status().message());
    }
    ack.wal_seq = seq.value();
  }
  {
    MutexLock lock(&mu_);
    // Only the queue can have changed since the admission check —
    // shrunk, by ApplyIngest — because every producer holds wal_mu_.
    for (Event& e : events) ingest_queue_.push_back(std::move(e));
    stats_.ingest_queue_depth = ingest_queue_.size();
    if (ack.wal_seq != 0) {
      last_enqueued_seq_ = ack.wal_seq;
      stats_.wal_last_seq = ack.wal_seq;
    }
  }
  sched_cv_.NotifyAll();
  return ack;
}

ServiceStats SessionManager::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

bool SessionManager::WaitAllTerminal(uint64_t timeout_micros) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_micros);
  MutexLock lock(&mu_);
  while (stats_.live != 0) {
    // A deadline already in the past (timeout 0) polls exactly once.
    if (!idle_cv_.WaitUntil(lock, deadline)) break;
  }
  return stats_.live == 0;
}

SessionManager::Managed* SessionManager::PickNextLocked() {
  Managed* best = nullptr;
  for (const auto& [id, s] : sessions_) {
    (void)id;
    if (s->state != SessionState::kRunning) continue;
    if (s->buffer.size() >= limits_.update_buffer_cap &&
        !s->cancel_requested) {
      continue;  // backpressured: wait for a poll to drain the buffer
    }
    if (best == nullptr || s->vtime < best->vtime ||
        (s->vtime == best->vtime && s->arrival < best->arrival)) {
      best = s.get();
    }
  }
  return best;
}

void SessionManager::SchedulerLoop() {
  obs::Tracer::Global().SetThreadName("scheduler");
  for (;;) {
    bool apply_ingest = false;
    Managed* next = nullptr;
    {
      MutexLock lock(&mu_);
      for (;;) {
        if (!ingest_queue_.empty()) {
          // Drained even while stopping: accepted ingest must land.
          apply_ingest = true;
          break;
        }
        if (stop_) {
          idle_cv_.NotifyAll();
          return;
        }
        next = PickNextLocked();
        if (next != nullptr) break;
        idle_cv_.NotifyAll();
        sched_cv_.Wait(lock);
      }
      if (!apply_ingest) next->quantum_active = true;
    }
    if (apply_ingest) {
      // Between quanta no scan is in flight: this is the externally
      // synchronized moment the post-seal Append contract requires.
      ApplyIngest();
      continue;
    }
    RunQuantum(next);
    {
      MutexLock lock(&mu_);
      next->quantum_active = false;
    }
    idle_cv_.NotifyAll();
  }
}

void SessionManager::RunQuantum(Managed* s) {
  APTRACE_SPAN("service/quantum");
  MutexLock exec_lock(&s->exec_mu);
  {
    MutexLock lock(&mu_);
    if (s->state != SessionState::kRunning) return;
    if (s->cancel_requested) {
      s->state = SessionState::kCancelled;
      s->detail = "cancelled";
      stats_.cancelled++;
      stats_.live--;
      Sm().sessions_live->Set(static_cast<int64_t>(stats_.live));
      return;
    }
  }

  const uint64_t start_work = s->session->stats().work_units;
  const TimeMicros start_sim = s->clock->NowMicros();
  const TimeMicros start_wall = MonotonicNowMicros();

  RunLimits limits;
  // A quantum is a fixed slice of the session's own windows, cut short
  // only by its budgets, so its length never depends on timing. Stop,
  // cancel and backpressure apply at the quantum boundary below. No
  // lock: everything read here belongs to the engine's thread.
  limits.should_stop = [this, s, start_work] {
    const RunStats& rs = s->session->stats();
    if (rs.work_units - start_work >= limits_.quantum_windows) return true;
    if (s->window_budget != 0 && rs.work_units >= s->window_budget) {
      return true;
    }
    return s->sim_budget != 0 && s->clock->NowMicros() >= s->sim_budget;
  };
  limits.on_update = [this, s](const UpdateBatch& b) {
    MutexLock lock(&mu_);
    s->buffer.push_back(ServiceBatch{s->batch_seq++, b});
    if (!s->first_update_seen) {
      s->first_update_seen = true;
      Sm().first_update_latency->Observe(
          MicrosToSeconds(MonotonicNowMicros() - s->opened_wall));
    }
  };

  const auto reason = s->session->Step(limits);
  Sm().quanta->Add();

  const uint64_t end_work = s->session->stats().work_units;
  const TimeMicros end_sim = s->clock->NowMicros();
  const uint64_t wall_delta =
      static_cast<uint64_t>(MonotonicNowMicros() - start_wall);
  const bool window_budget_hit =
      s->window_budget != 0 && end_work >= s->window_budget;
  const bool sim_budget_hit =
      s->sim_budget != 0 && end_sim >= s->sim_budget;

  SessionState new_state = SessionState::kRunning;
  std::string detail = "running";
  bool cancelled = false;
  {
    MutexLock lock(&mu_);
    cancelled = s->cancel_requested;
  }
  if (!reason.ok()) {
    new_state = SessionState::kFailed;
    detail = reason.status().message();
  } else if (cancelled) {
    new_state = SessionState::kCancelled;
    detail = "cancelled";
  } else if (reason.value() == StopReason::kCompleted ||
             reason.value() == StopReason::kTimeBudget) {
    // Terminal exactly as `aptrace run` would be: finalize (prune to
    // matched paths) so the served graph is byte-identical to the CLI's.
    if (auto st = s->session->Finish(/*prune_to_matched_paths=*/true);
        !st.ok()) {
      new_state = SessionState::kFailed;
      detail = st.message();
    } else {
      new_state = SessionState::kDone;
      detail = StopReasonName(reason.value());
    }
  } else if (window_budget_hit) {
    new_state = SessionState::kBudget;
    detail = "window_budget_exhausted";
  } else if (sim_budget_hit) {
    new_state = SessionState::kBudget;
    detail = "sim_budget_exhausted";
  }

  bool slow = false;
  bool dump_stall = false;
  bool dump_failure = false;
  uint64_t slow_wall = 0;
  {
    MutexLock lock(&mu_);
    // Charge consumed virtual time (at least one tick so zero-cost quanta
    // cannot pin the schedule).
    const uint64_t consumed = static_cast<uint64_t>(
        std::max<DurationMicros>(1, end_sim - start_sim));
    s->vtime += std::max<uint64_t>(1, consumed / s->weight);
    stats_.quanta_total++;
    s->wall_micros += wall_delta;
    if (limits_.slow_query_micros != 0 && !s->slow_logged &&
        s->wall_micros >= limits_.slow_query_micros) {
      // Latched: one warning line, one counter tick, one dump — however
      // many more quanta this session runs.
      s->slow_logged = true;
      slow = true;
      slow_wall = s->wall_micros;
      stats_.slow_queries_total++;
    }
    // Backpressure: a quantum that leaves the buffer full parks the
    // session until a poll drains it (PickNextLocked skips it).
    if (new_state == SessionState::kRunning &&
        s->buffer.size() >= limits_.update_buffer_cap) {
      stats_.backpressure_stalls_total++;
      Sm().backpressure_stalls->Add();
      if (!s->stall_dumped) {
        s->stall_dumped = true;
        dump_stall = true;
      }
    }
    if (new_state != SessionState::kRunning) {
      s->state = new_state;
      s->detail = detail;
      stats_.live--;
      Sm().sessions_live->Set(static_cast<int64_t>(stats_.live));
      switch (new_state) {
        case SessionState::kDone:
          stats_.done++;
          break;
        case SessionState::kCancelled:
          stats_.cancelled++;
          break;
        case SessionState::kBudget:
          stats_.budget_exhausted++;
          break;
        case SessionState::kFailed:
          stats_.failed++;
          if (!s->failure_dumped) {
            s->failure_dumped = true;
            dump_failure = true;
          }
          break;
        case SessionState::kRunning:
          break;
      }
    }
  }
  // Anomaly reporting happens outside mu_ (log/dump I/O must not block
  // connection threads); exec_mu still pins the session.
  if (slow) {
    Sm().slow_queries->Add();
    APTRACE_LOG(Warning) << "slow_query session=" << s->id
                         << " wall_micros=" << slow_wall
                         << " sim_micros=" << end_sim
                         << " work_units=" << end_work
                         << " threshold_micros="
                         << limits_.slow_query_micros;
    DumpFlight(s->id, "slow-query");
  }
  if (dump_stall) DumpFlight(s->id, "backpressure");
  if (dump_failure) DumpFlight(s->id, "failure");
}

void SessionManager::DumpFlight(uint64_t id, const char* reason) {
  if (limits_.flight_dump_dir.empty()) return;
  const std::string path = limits_.flight_dump_dir + "/flight-" +
                           std::to_string(id) + "-" + reason + ".json";
  if (auto st = obs::Tracer::Global().WriteChromeTrace(path); !st.ok()) {
    APTRACE_LOG(Warning) << "service: flight dump to " << path
                         << " failed: " << st.message();
    return;
  }
  NoteFlightDump();
  APTRACE_LOG(Info) << "service: flight recorder dumped to " << path
                    << " (session=" << id << " reason=" << reason << ")";
}

void SessionManager::NoteFlightDump() {
  {
    MutexLock lock(&mu_);
    stats_.flight_dumps_total++;
  }
  Sm().flight_dumps->Add();
}

void SessionManager::ApplyIngest() {
  APTRACE_SPAN("service/apply_ingest");
  std::deque<Event> batch;
  uint64_t through = 0;
  {
    MutexLock lock(&mu_);
    batch.swap(ingest_queue_);
    stats_.ingest_queue_depth = 0;
    // The queue held exactly the batches in (applied_through_,
    // last_enqueued_seq_] — producers update the seq and enqueue in one
    // mu_ critical section — so applying the swap advances the durable
    // apply mark to last_enqueued_seq_.
    through = last_enqueued_seq_;
  }
  if (batch.empty()) return;
  {
    MutexLock store_lock(&store_mu_);
    for (Event& e : batch) store_->Append(std::move(e));
    MaintainStoreLocked();
  }
  {
    MutexLock lock(&mu_);
    stats_.ingested_total += batch.size();
    applied_through_ = through;
    stats_.wal_applied_through = through;
  }
  Sm().ingest_events->Add(batch.size());
  APTRACE_LOG(Debug) << "service: ingested " << batch.size() << " events";
}

void SessionManager::MaintainStoreLocked() {
  if (limits_.seal_tail_rows == 0 ||
      store_->TailRows() < limits_.seal_tail_rows) {
    return;
  }
  // Seal before evicting so rows already older than the horizon move
  // into sealed segments first (eviction only ever drops a sealed
  // prefix); compact last so it sees the post-eviction live region.
  const size_t sealed = store_->SealTail();
  size_t evicted = 0;
  if (limits_.retention_micros != 0) {
    evicted = store_->EvictBefore(store_->MaxTime() - limits_.retention_micros);
  }
  const size_t compacted = store_->CompactSegments();
  APTRACE_LOG(Debug) << "service: sealed " << sealed << " tail rows"
                     << " (evicted " << evicted << " rows, compacted "
                     << compacted << " segments)";
}

}  // namespace aptrace::service
