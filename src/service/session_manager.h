#ifndef APTRACE_SERVICE_SESSION_MANAGER_H_
#define APTRACE_SERVICE_SESSION_MANAGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "storage/event_store.h"
#include "storage/wal.h"
#include "util/clock.h"
#include "util/status.h"
#include "util/sync.h"

namespace aptrace::service {

/// Admission-control and scheduling knobs of the daemon. Every rejection
/// they cause carries an SRV-E0xx code (docs/service.md lists them all).
struct ServiceLimits {
  /// Live (still running) sessions admitted at once; further `open`
  /// requests are rejected with SRV-E002.
  int max_live_sessions = 8;

  /// Windows one session processes per scheduling quantum before the
  /// scheduler re-picks the globally neediest session. A quantum is a
  /// fixed slice: only the session's own window/sim budgets (or the end
  /// of its run) cut it short.
  uint64_t quantum_windows = 8;

  /// Default per-session budgets, overridable (downward only is NOT
  /// enforced — the daemon trusts its operator, not its clients) per
  /// `open` request. 0 = unlimited. A session that exhausts a budget
  /// terminates in state "budget" with detail naming the budget.
  uint64_t window_budget = 0;
  DurationMicros sim_budget = 0;

  /// Undelivered update batches buffered per session before the scheduler
  /// stops scheduling it (backpressure; it resumes as polls drain the
  /// buffer). Never rejects — it only stalls. Checked at quantum
  /// boundaries, so a buffer may overshoot the cap by the batches of one
  /// quantum (at most quantum_windows - 1 beyond it).
  size_t update_buffer_cap = 256;

  /// Pending live-ingest events buffered before `ingest` requests are
  /// rejected with SRV-E007.
  size_t ingest_queue_cap = 4096;

  /// Cumulative wall micros a session may consume across its quanta
  /// before it is flagged slow: one structured `slow_query` warning line,
  /// one counter tick, one flight-recorder dump — exactly once per
  /// session. 0 disables. The APTRACE_SLOW_QUERY_MICROS default.
  uint64_t slow_query_micros = 0;

  /// Directory anomaly-triggered flight-recorder dumps are written into
  /// (`flight-<id>-<reason>.json`); empty disables auto-dumps. Anomalies:
  /// session failure, first backpressure parking, slow query — each dumps
  /// at most once per session.
  std::string flight_dump_dir;

  /// Hot-tail rows that trigger a background SealTail between quanta
  /// (columnar backend; a no-op on the row store). 0 disables sealing.
  size_t seal_tail_rows = 0;

  /// Retention window: after each seal, sealed rows older than
  /// MaxTime() - retention_micros are evicted from scans (logical
  /// archive tier). 0 disables eviction. By design this changes what
  /// queries over old time ranges return, so differential tests keep it
  /// off.
  DurationMicros retention_micros = 0;
};

/// Terminal and live states of a hosted session.
enum class SessionState : uint8_t {
  kRunning,    // schedulable (or stalled on backpressure)
  kDone,       // engine finished; graph finalized (pruned) and frozen
  kCancelled,  // client cancel; partial graph frozen
  kBudget,     // service budget exhausted; partial graph frozen
  kFailed,     // engine error; detail carries the message
};

const char* SessionStateName(SessionState s);

/// One update batch as streamed to clients, tagged with a per-session
/// monotonically increasing sequence number (the poll cursor).
struct ServiceBatch {
  uint64_t seq = 0;
  UpdateBatch batch;
};

/// What `poll` returns: the batches after the client's cursor plus a
/// consistent progress snapshot.
struct PollResult {
  SessionState state = SessionState::kRunning;
  std::string detail;
  bool terminal = false;
  uint64_t next_cursor = 0;
  std::vector<ServiceBatch> batches;
  SessionSnapshot snapshot;
};

/// Per-open overrides of the service defaults.
struct OpenOptions {
  uint64_t weight = 1;  // fair-share weight; higher = larger share
  std::optional<uint64_t> window_budget;
  std::optional<DurationMicros> sim_budget;
  std::optional<EventId> start_event;  // explicit alert event
};

/// Aggregate service counters, snapshotted under one mutex (the
/// StoreStats pattern), so `stats` responses are never torn.
struct ServiceStats {
  uint64_t opened_total = 0;
  uint64_t live = 0;
  uint64_t done = 0;
  uint64_t cancelled = 0;
  uint64_t budget_exhausted = 0;
  uint64_t failed = 0;
  uint64_t admission_rejected_total = 0;
  uint64_t quanta_total = 0;
  uint64_t backpressure_stalls_total = 0;
  uint64_t ingested_total = 0;
  uint64_t ingest_rejected_total = 0;
  uint64_t ingest_queue_depth = 0;
  uint64_t slow_queries_total = 0;
  uint64_t flight_dumps_total = 0;
  /// Durable-ingest positions (0 until EnableDurability): highest WAL
  /// sequence acknowledged, and the highest one whose events have been
  /// applied to the store.
  uint64_t wal_last_seq = 0;
  uint64_t wal_applied_through = 0;
};

/// What a successful `ingest` acknowledges: the events buffered and —
/// when durability is on — the WAL sequence number their batch was
/// fsync'd under before this ack was produced.
struct IngestAck {
  size_t accepted = 0;
  uint64_t wal_seq = 0;  // 0 when the daemon runs without a WAL
};

/// One live-view row of the `/sessions` endpoint (and `aptrace_client
/// top`): scheduler bookkeeping under the manager mutex plus the
/// session's own tear-free snapshot, taken in the same pass.
struct SessionRow {
  uint64_t id = 0;
  std::string state;
  std::string detail;
  uint64_t weight = 1;
  uint64_t vtime = 0;            // consumed sim micros / weight
  TimeMicros sim_micros = 0;     // session clock (consumed sim micros)
  uint64_t wall_micros = 0;      // cumulative quantum wall time
  uint64_t work_units = 0;
  uint64_t graph_nodes = 0;
  uint64_t graph_edges = 0;
  uint64_t buffered_updates = 0; // undelivered update batches
  bool stalled = false;          // parked on a full update buffer
};

/// One /sessions row per store shard (docs/sharding.md): the shard's
/// resident rows plus its slice of the scatter-gather scan counters,
/// taken from one consistent ShardedStore snapshot (the slices sum
/// exactly to the store totals). A monolithic store renders a single
/// synthetic shard-0 row so scrapers see a uniform shape.
struct StoreShardRow {
  uint32_t shard = 0;
  uint64_t resident_rows = 0;
  uint64_t tail_rows = 0;
  uint64_t scans = 0;          // scatter-gather scans that touched the shard
  uint64_t rows_matched = 0;
  uint64_t rows_filtered = 0;
  uint64_t partitions_probed = 0;
  uint64_t partitions_seeked = 0;
  uint64_t segments_pruned = 0;
  uint64_t boundary_rows = 0;  // delivered cross-host rows
  uint64_t sim_cost_micros = 0;
};

/// What the `profile` op returns: the session's query profile document
/// plus independently accumulated figures tests reconcile it against
/// (core/query_profile.h explains the exact identities).
struct SessionProfile {
  std::string profile_json;      // QueryProfileToJson output
  uint64_t scan_cost_micros = 0; // the executor's running scan-cost sum
  TimeMicros sim_now = 0;        // session clock (>= scan_cost_micros)
  uint64_t work_units = 0;
  std::string probe_unit;        // storage unit of partitions_probed
};

/// Owns every concurrently tracked session of the daemon and the one
/// scheduler thread that advances them (the tentpole of the service
/// layer; docs/service.md describes the model in full).
///
/// Fair-share scheduling: conceptually the scheduler pops the globally
/// highest-priority execution window across all live sessions. Windows
/// within a session are already totally ordered by its WindowQueue, so
/// the cross-session choice reduces to picking which session's
/// front-of-queue to run next; the scheduler picks the session with the
/// smallest consumed-simulated-cost / weight (stride scheduling over
/// virtual time, arrival order breaking ties) and runs it for one
/// quantum of `quantum_windows` windows on the scheduler thread itself —
/// every scan and every seal happens there. Cancel, stop and
/// backpressure act at quantum boundaries: a session whose client stops
/// polling ends a quantum with a full update buffer, stalls, and cedes
/// the whole machine to the others.
///
/// Determinism: each session owns a private SimClock and its engine state
/// never observes the interleaving (a quantum is just a should_stop-
/// bounded Session::Step), so a daemon-hosted session produces a graph
/// bit-identical to the same script run via `aptrace run`, on either
/// storage backend (tests/service_differential_test.cc enforces this).
/// Its quantum count depends only on its own windows and budgets.
///
/// Live ingestion: Ingest() validates and buffers events; the scheduler
/// appends them to the sealed store between quanta on its own thread, so
/// no quantum's scan can race the append (the external synchronization
/// the post-seal Append contract requires), and under store_mu_, which
/// the store reads outside quanta also take. Running sessions' resolved
/// time ranges are fixed at open, so their results are unaffected;
/// sessions opened after an append see the new events.
///
/// Thread-safety: every public method may be called from any connection
/// thread. Lock order: a session's exec_mu (engine access) before the
/// manager mutex; the store mutex (ingest and seals vs open resolution
/// and shard rows) is a leaf among the manager's locks.
class SessionManager {
 public:
  /// The store must be sealed and outlive the manager.
  SessionManager(EventStore* store, ServiceLimits limits);

  /// Stop() + joins the scheduler.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Compiles and admits a new tracking session; returns its id.
  /// Failures: SRV-E002 (admission), SRV-E004 (compile/start), SRV-E008
  /// (draining).
  Result<uint64_t> Open(const std::string& bdl_text, const OpenOptions& opts);

  /// Re-admits a checkpointed session from `path` (same admission rules
  /// as Open; SRV-E009 on checkpoint I/O or parse failure).
  Result<uint64_t> Resume(const std::string& path, const OpenOptions& opts);

  /// Batches newer than `cursor` plus current state. SRV-E003 on an
  /// unknown id. Delivered batches are dropped from the buffer, which
  /// unstalls a backpressured session.
  Result<PollResult> Poll(uint64_t id, uint64_t cursor, size_t max_batches);

  /// Stops a running session at the next quantum boundary, waiting for
  /// an in-flight quantum to end, so the session is terminal on return
  /// (SRV-E003 unknown id; cancelling a terminal session is a no-op).
  Status Cancel(uint64_t id);

  /// Serializes the session's current dependency graph as canonical
  /// graph JSON (graph/json_writer.h) — the bytes `aptrace run` would
  /// write. Waits for an in-flight quantum to end. SRV-E003 unknown id.
  Result<std::string> GraphJson(uint64_t id);

  /// Consistent progress snapshot (never torn; see SessionSnapshot).
  Result<SessionSnapshot> Snapshot(uint64_t id);

  /// The session's per-hop / per-rule query profile ("EXPLAIN ANALYZE").
  /// Waits for an in-flight quantum to end, like GraphJson, so the
  /// profile is at a window boundary and internally consistent.
  /// SRV-E003 unknown id; SRV-E005 when the engine keeps no profile.
  Result<SessionProfile> Profile(uint64_t id);

  /// One row per session (live and terminal) for the /sessions endpoint;
  /// ordered by id. Safe from any thread, never blocks on a quantum.
  std::vector<SessionRow> SessionRows() const;

  /// One row per store shard for the /sessions endpoint, from a single
  /// consistent store snapshot. Safe from any thread: takes store_mu_,
  /// so the resident/tail row counts never race an ingest append.
  std::vector<StoreShardRow> StoreShardRows() const;

  /// Persists a paused session to `path` (core checkpoint format).
  /// SRV-E003 unknown id; SRV-E005 terminal session; SRV-E009 I/O error.
  Status Checkpoint(uint64_t id, const std::string& path);

  /// Validates and buffers live events for the scheduler to append
  /// between quanta. SRV-E007 on a full queue or invalid rows (the whole
  /// batch is rejected — no partial ingest), SRV-E008 when draining.
  /// With durability enabled the batch is appended to the WAL and
  /// fsync'd *before* this returns — the ack's wal_seq is the durable
  /// receipt — and a WAL failure rejects the batch with SRV-E010 without
  /// buffering anything (the writer rolls the log back to the last
  /// record boundary, so no torn record is left behind).
  Result<IngestAck> Ingest(std::vector<Event> events);

  /// Turns on the durable-ingest path: every accepted batch is appended
  /// to `wal` (non-owning; must outlive the manager) under wal_mu_, so
  /// WAL order equals apply order. `applied_through` is the recovery
  /// boundary: the highest WAL sequence already contained in the store
  /// (see storage/recovery.h). Call before serving — not concurrently
  /// with Ingest.
  void EnableDurability(WalWriter* wal, uint64_t applied_through);

  /// Highest WAL sequence whose events the scheduler has applied to the
  /// store — the `applied_through` a snapshot of the store should be
  /// stamped with.
  uint64_t AppliedThrough() const;

  ServiceStats stats() const;

  /// Records one successful flight-recorder dump in both ServiceStats
  /// and the Prometheus counter, so the `stats` op and /metrics agree.
  /// Called by the anomaly auto-dumps and by the protocol's
  /// client-requested `flight-dump` op after its write succeeds.
  void NoteFlightDump();

  /// Graceful drain: stop admitting (SRV-E008), finish the in-flight
  /// quantum, apply already-accepted ingest, stop the scheduler. Running
  /// sessions stay paused and resumable via Checkpoint. Idempotent.
  void Stop();

  /// Stop() plus a join of the scheduler thread: when this returns,
  /// every accepted ingest batch has been applied to the store, so the
  /// caller can safely snapshot it (SnapshotDataDir) with
  /// AppliedThrough(). Idempotent; the destructor uses it.
  void StopAndJoin();

  bool draining() const;

  /// Blocks until every admitted session reaches a terminal state or
  /// `timeout_micros` of wall time passes (0 = poll once). Test helper
  /// and drain aid; returns true when all sessions are terminal.
  bool WaitAllTerminal(uint64_t timeout_micros);

 private:
  struct Managed;

  void SchedulerLoop();
  /// Runs one quantum of `s`. Called with no locks held; takes exec_mu.
  void RunQuantum(Managed* s);
  /// Picks the runnable session with minimal (vtime, arrival); nullptr
  /// when none. Caller holds mu_.
  Managed* PickNextLocked() APTRACE_REQUIRES(mu_);
  /// Appends all buffered ingest events, then runs the tiered-storage
  /// maintenance pass. Called from the scheduler with no locks held,
  /// between quanta.
  void ApplyIngest();
  /// Background seal -> evict -> compact, per the seal_tail_rows /
  /// retention_micros limits, sequentially on the scheduler thread.
  void MaintainStoreLocked() APTRACE_REQUIRES(store_mu_);
  Result<uint64_t> Admit(std::unique_ptr<Managed> s);
  /// Writes the flight recorder to flight_dump_dir (no-op when empty).
  /// Called with no locks held (takes mu_ for the counters).
  void DumpFlight(uint64_t id, const char* reason);
  /// Looks up a session id. Sessions are never erased, so the returned
  /// pointer stays valid for the manager's lifetime.
  Managed* FindLocked(uint64_t id) APTRACE_REQUIRES(mu_);
  Status ValidateEvent(const Event& e) const;

  EventStore* store_;
  const ServiceLimits limits_;

  /// Serializes ingest producers so WAL append order equals queue order
  /// (and therefore store apply order). Held across the admission check,
  /// the WAL append+fsync, and the enqueue. Ordered BEFORE mu_ — Ingest
  /// takes mu_ twice under it, releasing it around the fsync so polls
  /// and the scheduler never block on disk.
  Mutex wal_mu_{"SessionManager::wal_mu_"};
  WalWriter* wal_ APTRACE_GUARDED_BY(wal_mu_) = nullptr;

  mutable Mutex mu_{"SessionManager::mu_"};
  CondVar sched_cv_;  // wakes the scheduler
  CondVar idle_cv_;   // WaitAllTerminal / Stop waiters
  std::map<uint64_t, std::unique_ptr<Managed>> sessions_
      APTRACE_GUARDED_BY(mu_);
  std::deque<Event> ingest_queue_ APTRACE_GUARDED_BY(mu_);
  /// WAL sequence of the newest batch in ingest_queue_ (== the newest
  /// acked batch). The queue always holds exactly the batches in
  /// (applied_through_, last_enqueued_seq_].
  uint64_t last_enqueued_seq_ APTRACE_GUARDED_BY(mu_) = 0;
  uint64_t applied_through_ APTRACE_GUARDED_BY(mu_) = 0;
  uint64_t next_id_ APTRACE_GUARDED_BY(mu_) = 1;
  uint64_t arrival_seq_ APTRACE_GUARDED_BY(mu_) = 0;
  bool stop_ APTRACE_GUARDED_BY(mu_) = false;
  bool draining_ APTRACE_GUARDED_BY(mu_) = false;
  ServiceStats stats_ APTRACE_GUARDED_BY(mu_);

  /// Serializes store mutation (ingest apply, seals) against store reads
  /// outside quanta (open-time context resolution, /sessions shard rows).
  /// Leaf among the manager's locks; only the store's own nest inside.
  mutable Mutex store_mu_{"SessionManager::store_mu_"};

  std::thread scheduler_;
};

}  // namespace aptrace::service

#endif  // APTRACE_SERVICE_SESSION_MANAGER_H_
