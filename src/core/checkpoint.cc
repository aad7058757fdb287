// Checkpoint persistence for paused investigations: Executor state and
// the Session-level wrapper. Line-oriented text, same spirit as
// storage/trace_io.cc.

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "bdl/analyzer.h"
#include "core/executor.h"
#include "core/session.h"

namespace aptrace {

namespace {
constexpr char kMagic[] = "aptrace-checkpoint v1";

Status ParseError(const std::string& why) {
  return Status::InvalidArgument("checkpoint parse error: " + why);
}
}  // namespace

Status Executor::SaveCheckpoint(std::ostream& os,
                                const CheckpointDurableMark* mark) const {
  if (!bootstrapped_) {
    return Status::FailedPrecondition(
        "nothing to checkpoint: the executor has not run yet");
  }
  // Durable mark first (daemon checkpoints only), so restore can reject a
  // lossy data directory before it bothers parsing engine state.
  if (mark != nullptr) {
    os << "D\t" << mark->store_events << "\t" << mark->wal_seq << "\n";
  }
  // Shard layout guard: event ids are global across shards, but probe
  // accounting and the per-shard stats are layout-dependent, so a restore
  // into a differently sharded store is refused rather than silently
  // reinterpreted.
  os << "H\t" << ctx_.store->shard_count() << "\n";
  // Store fingerprint guards against restoring over a different trace.
  os << "F\t" << ctx_.store->NumEvents() << "\t" << ctx_.store->MinTime()
     << "\t" << ctx_.store->MaxTime() << "\n";
  os << "R\t" << stats_.run_start << "\t" << stats_.work_units << "\t"
     << stats_.events_added << "\t" << stats_.events_filtered << "\t"
     << stats_.objects_excluded << "\t" << seq_ << "\t"
     << clock_->NowMicros() << "\n";

  graph_.ForEachNode([&](const DepGraph::Node& n) {
    os << "N\t" << n.object << "\t" << n.hop << "\t" << n.state << "\n";
  });
  graph_.ForEachEdge([&](const DepGraph::Edge& e) {
    os << "G\t" << e.event << "\n";
  });
  for (const ObjectId id : excluded_) os << "X\t" << id << "\n";
  for (const auto& [object, watermark] : covered_until_) {
    os << "C\t" << object << "\t" << watermark << "\n";
  }
  // Pending windows in pop (priority) order, so a restored queue heapifies
  // back to the identical schedule.
  for (const ExecWindow& w : queue_.SortedSnapshot()) {
    os << "W\t" << w.begin << "\t" << w.finish << "\t" << w.dep_event
       << "\t" << w.frontier << "\t" << w.hop << "\t" << w.state << "\t"
       << (w.boosted ? 1 : 0) << "\t" << w.seq << "\t" << w.priority_key
       << "\n";
  }
  os << "L\t" << log_.run_start() << "\n";
  for (const UpdateBatch& b : log_.batches()) {
    os << "U\t" << b.sim_time << "\t" << b.new_edges << "\t" << b.new_nodes
       << "\t" << b.total_edges << "\t" << b.total_nodes << "\n";
  }
  if (!os.good()) return Status::Internal("checkpoint write failed");
  return Status::Ok();
}

Status Executor::RestoreCheckpoint(std::istream& is) {
  if (bootstrapped_) {
    return Status::FailedPrecondition(
        "restore requires a freshly constructed executor");
  }
  std::string line;
  bool fingerprint_ok = false;
  bool counters_ok = false;
  std::vector<std::tuple<ObjectId, int, int>> nodes;
  TimeMicros saved_clock = 0;

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream f(line);
    std::string kind;
    f >> kind;
    if (kind == "D") {
      uint64_t store_events = 0;
      uint64_t wal_seq = 0;
      f >> store_events >> wal_seq;
      if (!f) return ParseError("bad durable-mark record");
      if (store_events > ctx_.store->NumEvents()) {
        return Status::FailedPrecondition(
            "STO-E009: checkpoint durable mark covers " +
            std::to_string(store_events) +
            " events (through WAL batch " + std::to_string(wal_seq) +
            ") but the recovered store holds only " +
            std::to_string(ctx_.store->NumEvents()) +
            " — the data directory lost acknowledged batches");
      }
    } else if (kind == "H") {
      size_t shards = 0;
      f >> shards;
      if (!f) return ParseError("bad shard-count record");
      if (shards != ctx_.store->shard_count()) {
        return Status::FailedPrecondition(
            "STO-E011: checkpoint was taken over a store with " +
            std::to_string(shards) + " shard(s) but this store runs " +
            std::to_string(ctx_.store->shard_count()) +
            " — restore with --shards=" + std::to_string(shards) +
            " (or APTRACE_SHARDS) matching the checkpoint");
      }
    } else if (kind == "F") {
      size_t events = 0;
      TimeMicros lo = 0, hi = 0;
      f >> events >> lo >> hi;
      if (events > ctx_.store->NumEvents() || lo != ctx_.store->MinTime()) {
        return ParseError("checkpoint was taken over a different trace");
      }
      fingerprint_ok = true;
    } else if (kind == "R") {
      f >> stats_.run_start >> stats_.work_units >> stats_.events_added >>
          stats_.events_filtered >> stats_.objects_excluded >> seq_ >>
          saved_clock;
      if (!f) return ParseError("bad counters record");
      counters_ok = true;
    } else if (kind == "N") {
      ObjectId id = 0;
      int hop = 0, state = 0;
      f >> id >> hop >> state;
      // A hop counts distinct edges from the start, so it can never
      // exceed the store's event count; the graph indexes nodes by hop.
      if (!f || hop < 0 ||
          static_cast<uint64_t>(hop) > ctx_.store->NumEvents()) {
        return ParseError("bad node record");
      }
      nodes.emplace_back(id, hop, state);
    } else if (kind == "G") {
      EventId id = 0;
      f >> id;
      if (!f || id >= ctx_.store->NumEvents()) {
        return ParseError("bad edge record");
      }
      if (graph_.start() == kInvalidObjectId) {
        graph_.SetStart(ctx_.start_node);
      }
      graph_.AddEventEdge(ctx_.store->Get(id));
    } else if (kind == "X") {
      ObjectId id = 0;
      f >> id;
      if (!f) return ParseError("bad exclusion record");
      excluded_.insert(id);
    } else if (kind == "C") {
      ObjectId id = 0;
      TimeMicros watermark = 0;
      f >> id >> watermark;
      if (!f) return ParseError("bad coverage record");
      covered_until_[id] = watermark;
    } else if (kind == "W") {
      ExecWindow w;
      int boosted = 0;
      f >> w.begin >> w.finish >> w.dep_event >> w.frontier >> w.hop >>
          w.state >> boosted >> w.seq >> w.priority_key;
      if (!f) return ParseError("bad window record");
      w.boosted = boosted != 0;
      queue_.push(w);
    } else if (kind == "L") {
      TimeMicros start = 0;
      f >> start;
      log_.SetRunStart(start);
    } else if (kind == "U") {
      UpdateBatch b;
      f >> b.sim_time >> b.new_edges >> b.new_nodes >> b.total_edges >>
          b.total_nodes;
      if (!f) return ParseError("bad update record");
      log_.Add(b);
    } else {
      return ParseError("unknown record kind '" + kind + "'");
    }
  }
  if (!fingerprint_ok || !counters_ok) {
    return ParseError("missing fingerprint or counters record");
  }
  // Hops and states are insertion-order dependent: restore the saved
  // values over whatever edge replay produced.
  if (graph_.start() == kInvalidObjectId) graph_.SetStart(ctx_.start_node);
  for (const auto& [id, hop, state] : nodes) {
    graph_.SetHop(id, hop);
    graph_.SetState(id, state);
  }
  maintainer_.RecomputeBoosts();
  // Move the session clock to the checkpointed instant so elapsed time
  // (and the `time <= ...` budget) carries across the restore.
  if (saved_clock > clock_->NowMicros()) {
    clock_->AdvanceMicros(saved_clock - clock_->NowMicros());
  }
  bootstrapped_ = true;
  return Status::Ok();
}

Status Session::SaveCheckpoint(const std::string& path,
                               const CheckpointDurableMark* mark) const {
  if (executor_ == nullptr) {
    return Status::FailedPrecondition(
        "checkpointing requires a started session on the responsive "
        "engine");
  }
  std::ofstream os(path);
  if (!os) return Status::InvalidArgument("cannot open for write: " + path);
  os << kMagic << "\n";
  os << "K\t" << executor_->num_windows_k() << "\n";
  os << "A\t" << executor_->context().start_event.id << "\n";
  const std::string& script = executor_->context().spec.source_text;
  os << "S\t" << script.size() << "\n" << script << "\n";
  if (auto s = executor_->SaveCheckpoint(os, mark); !s.ok()) return s;
  if (!os.good()) return Status::Internal("checkpoint write failed");
  return Status::Ok();
}

Status Session::LoadCheckpoint(const std::string& path) {
  std::ifstream is(path);
  if (!is) return Status::InvalidArgument("cannot open for read: " + path);
  std::string line;
  if (!std::getline(is, line) || line != kMagic) {
    return ParseError("missing or wrong header");
  }
  int k = 8;
  EventId alert_id = kInvalidEventId;
  size_t script_size = 0;
  for (int header = 0; header < 3; ++header) {
    if (!std::getline(is, line)) return ParseError("truncated header");
    std::istringstream f(line);
    std::string kind;
    f >> kind;
    if (kind == "K") {
      f >> k;
    } else if (kind == "A") {
      f >> alert_id;
    } else if (kind == "S") {
      f >> script_size;
    } else {
      return ParseError("unexpected header record '" + kind + "'");
    }
  }
  if (alert_id == kInvalidEventId || alert_id >= store_->NumEvents()) {
    return ParseError("bad starting-event id");
  }
  std::string script(script_size, '\0');
  is.read(script.data(), static_cast<std::streamsize>(script_size));
  if (is.gcount() != static_cast<std::streamsize>(script_size)) {
    return ParseError("truncated script");
  }
  std::getline(is, line);  // consume the newline after the script blob

  auto spec = bdl::CompileBdl(script);
  if (!spec.ok()) return spec.status();
  const Event alert = store_->Get(alert_id);
  auto ctx = ResolveContext(*store_, std::move(spec.value()), clock_, alert);
  if (!ctx.ok()) return ctx.status();
  ctx.value().scan_threads = options_.scan_threads;

  auto executor = MakeExecutor(std::move(ctx.value()), k);
  if (auto s = executor->RestoreCheckpoint(is); !s.ok()) return s;
  executor_ = executor.get();
  engine_ = std::move(executor);
  start_override_ = alert;
  last_action_ = RefineAction::kNoChange;
  RefreshSnapshot();
  return Status::Ok();
}

}  // namespace aptrace
