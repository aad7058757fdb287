#include "service/protocol.h"

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json_dict.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "service/json.h"
#include "util/string_util.h"

namespace aptrace::service {

namespace {

/// Splits the "SRV-E0xx: message" convention every SessionManager error
/// follows; anything else maps to the generic bad-request code.
std::pair<std::string, std::string> SplitCode(const std::string& message) {
  if (message.rfind("SRV-E", 0) == 0) {
    const size_t colon = message.find(':');
    if (colon != std::string::npos) {
      std::string rest = message.substr(colon + 1);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      return {message.substr(0, colon), rest};
    }
  }
  return {"SRV-E001", message};
}

std::string ErrorResponse(const std::string& message) {
  const auto [code, text] = SplitCode(message);
  obs::JsonDict d;
  d.Add("ok", false);
  d.Add("code", code);
  d.Add("error", text);
  obs::Metrics()
      .FindOrCreateCounter(obs::names::kServiceRequestErrors)
      ->Add();
  return d.Str();
}

std::string ErrorResponse(const Status& st) {
  return ErrorResponse(st.message());
}

std::string OkResponse(obs::JsonDict d) {
  obs::JsonDict out;
  out.Add("ok", true);
  std::string body = d.Str();
  // Splice the payload members after "ok":true rather than nesting them,
  // keeping responses flat: {"ok":true,"session":1}.
  std::string head = out.Str();
  if (body == "{}") return head;
  head.pop_back();  // '}'
  head += ",";
  head += body.substr(1);
  return head;
}

obs::JsonDict SnapshotDict(const SessionSnapshot& snap) {
  obs::JsonDict d;
  d.Add("started", snap.started);
  d.Add("exhausted", snap.exhausted);
  d.Add("graph_nodes", static_cast<uint64_t>(snap.graph_nodes));
  d.Add("graph_edges", static_cast<uint64_t>(snap.graph_edges));
  d.Add("max_hop", static_cast<int64_t>(snap.max_hop));
  d.Add("update_batches", static_cast<uint64_t>(snap.update_batches));
  d.Add("work_units", snap.work_units);
  d.Add("events_added", snap.events_added);
  d.Add("events_filtered", snap.events_filtered);
  d.Add("objects_excluded", snap.objects_excluded);
  d.Add("run_start", static_cast<int64_t>(snap.run_start));
  d.Add("sim_now", static_cast<int64_t>(snap.sim_now));
  d.Add("scan_threads", static_cast<int64_t>(snap.scan_threads));
  d.Add("queue_size", static_cast<uint64_t>(snap.queue_size));
  d.Add("direction", bdl::TrackDirectionName(snap.direction));
  return d;
}

/// One `poll` batch as {"seq":..,"sim_time":..,"new_edges":..,
/// "new_nodes":..,"total_edges":..,"total_nodes":..}: the bytes
/// obs::JsonDict would produce, without a string per member.
void AppendBatchJson(std::string& out, const ServiceBatch& b) {
  out += "{\"seq\":";
  AppendDecimal(out, b.seq);
  out += ",\"sim_time\":";
  AppendDecimal(out, b.batch.sim_time);
  out += ",\"new_edges\":";
  AppendDecimal(out, b.batch.new_edges);
  out += ",\"new_nodes\":";
  AppendDecimal(out, b.batch.new_nodes);
  out += ",\"total_edges\":";
  AppendDecimal(out, b.batch.total_edges);
  out += ",\"total_nodes\":";
  AppendDecimal(out, b.batch.total_nodes);
  out += '}';
}

OpenOptions ParseOpenOptions(const JsonValue& req) {
  OpenOptions opts;
  opts.weight = req.GetUint("weight", 1);
  if (const JsonValue* v = req.Find("window_budget");
      v != nullptr && v->IsNumber()) {
    opts.window_budget = req.GetUint("window_budget");
  }
  if (const JsonValue* v = req.Find("sim_budget");
      v != nullptr && v->IsNumber()) {
    opts.sim_budget = req.GetInt("sim_budget");
  }
  if (const JsonValue* v = req.Find("start_event");
      v != nullptr && v->IsNumber()) {
    opts.start_event = req.GetUint("start_event");
  }
  return opts;
}

/// Accepts an action as its canonical name ("read", "write", ...) or its
/// numeric value; nullopt on anything else.
std::optional<ActionType> ParseAction(const JsonValue& ev) {
  const JsonValue* v = ev.Find("action");
  if (v == nullptr) return std::nullopt;
  if (v->IsNumber() && v->is_int && v->int_v >= 0 && v->int_v <= 7) {
    return static_cast<ActionType>(v->int_v);
  }
  if (v->IsString()) {
    for (int a = 0; a <= 7; ++a) {
      if (v->str_v == ActionTypeName(static_cast<ActionType>(a))) {
        return static_cast<ActionType>(a);
      }
    }
  }
  return std::nullopt;
}

Result<Event> ParseEvent(const JsonValue& ev) {
  if (!ev.IsObject()) {
    return Status::InvalidArgument("SRV-E007: event must be an object");
  }
  Event e;
  const JsonValue* subject = ev.Find("subject");
  const JsonValue* object = ev.Find("object");
  const JsonValue* timestamp = ev.Find("timestamp");
  if (subject == nullptr || !subject->IsNumber() || object == nullptr ||
      !object->IsNumber() || timestamp == nullptr ||
      !timestamp->IsNumber()) {
    return Status::InvalidArgument(
        "SRV-E007: event needs numeric subject, object, timestamp");
  }
  e.subject = ev.GetUint("subject");
  e.object = ev.GetUint("object");
  e.timestamp = ev.GetInt("timestamp");
  e.amount = ev.GetUint("amount", 0);
  const auto action = ParseAction(ev);
  if (!action.has_value()) {
    return Status::InvalidArgument("SRV-E007: event has a bad action");
  }
  e.action = *action;
  if (const JsonValue* dir = ev.Find("direction"); dir != nullptr) {
    if (dir->IsString() && dir->str_v == "s2o") {
      e.direction = FlowDirection::kSubjectToObject;
    } else if (dir->IsString() && dir->str_v == "o2s") {
      e.direction = FlowDirection::kObjectToSubject;
    } else if (dir->IsNumber() && dir->is_int &&
               (dir->int_v == 0 || dir->int_v == 1)) {
      e.direction = static_cast<FlowDirection>(dir->int_v);
    } else {
      return Status::InvalidArgument("SRV-E007: event has a bad direction");
    }
  } else {
    e.direction = ActionDefaultDirection(e.action);
  }
  e.host = static_cast<HostId>(ev.GetUint("host", kInvalidHostId));
  return e;
}

}  // namespace

std::string ProtocolHandler::HandleLine(const std::string& line,
                                        bool* shutdown_requested) {
  obs::Metrics().FindOrCreateCounter(obs::names::kServiceRequests)->Add();
  if (shutdown_requested != nullptr) *shutdown_requested = false;

  auto parsed = ParseJson(line);
  if (!parsed.ok()) {
    return ErrorResponse("SRV-E001: " + parsed.status().message());
  }
  const JsonValue& req = parsed.value();
  if (!req.IsObject()) {
    return ErrorResponse("SRV-E001: request must be a JSON object");
  }
  const std::string op = req.GetString("op");

  if (op == "open" || op == "resume") {
    Result<uint64_t> id =
        op == "open"
            ? manager_->Open(req.GetString("bdl"), ParseOpenOptions(req))
            : manager_->Resume(req.GetString("path"), ParseOpenOptions(req));
    if (!id.ok()) return ErrorResponse(id.status());
    obs::JsonDict d;
    d.Add("session", id.value());
    return OkResponse(std::move(d));
  }

  if (op == "poll") {
    auto r = manager_->Poll(req.GetUint("session"), req.GetUint("cursor", 0),
                            static_cast<size_t>(req.GetUint("max", 0)));
    if (!r.ok()) return ErrorResponse(r.status());
    const PollResult& p = r.value();
    obs::JsonDict d;
    d.Add("state", SessionStateName(p.state));
    d.Add("detail", p.detail);
    d.Add("terminal", p.terminal);
    d.Add("next_cursor", p.next_cursor);
    // The batch array grows with the engine's pace, so it is appended
    // straight onto the reply: {"ok":true,...,"batches":[...],"snapshot":{}}.
    std::string out = OkResponse(std::move(d));
    out.pop_back();  // '}'
    out += ",\"batches\":[";
    for (size_t i = 0; i < p.batches.size(); ++i) {
      if (i != 0) out += ',';
      AppendBatchJson(out, p.batches[i]);
    }
    out += "],\"snapshot\":";
    out += SnapshotDict(p.snapshot).Str();
    out += '}';
    return out;
  }

  if (op == "cancel") {
    if (auto st = manager_->Cancel(req.GetUint("session")); !st.ok()) {
      return ErrorResponse(st);
    }
    return OkResponse({});
  }

  if (op == "graph") {
    auto g = manager_->GraphJson(req.GetUint("session"));
    if (!g.ok()) return ErrorResponse(g.status());
    obs::JsonDict d;
    d.Add("graph", g.value());  // escaped: the value is the exact bytes
    return OkResponse(std::move(d));
  }

  if (op == "checkpoint") {
    if (auto st = manager_->Checkpoint(req.GetUint("session"),
                                       req.GetString("path"));
        !st.ok()) {
      return ErrorResponse(st);
    }
    return OkResponse({});
  }

  if (op == "stats") {
    if (req.Find("session") != nullptr) {
      auto snap = manager_->Snapshot(req.GetUint("session"));
      if (!snap.ok()) return ErrorResponse(snap.status());
      obs::JsonDict d;
      d.AddRaw("snapshot", SnapshotDict(snap.value()).Str());
      return OkResponse(std::move(d));
    }
    const ServiceStats s = manager_->stats();
    obs::JsonDict d;
    d.Add("opened_total", s.opened_total);
    d.Add("live", s.live);
    d.Add("done", s.done);
    d.Add("cancelled", s.cancelled);
    d.Add("budget_exhausted", s.budget_exhausted);
    d.Add("failed", s.failed);
    d.Add("admission_rejected_total", s.admission_rejected_total);
    d.Add("quanta_total", s.quanta_total);
    d.Add("backpressure_stalls_total", s.backpressure_stalls_total);
    d.Add("ingested_total", s.ingested_total);
    d.Add("ingest_rejected_total", s.ingest_rejected_total);
    d.Add("ingest_queue_depth", s.ingest_queue_depth);
    d.Add("slow_queries_total", s.slow_queries_total);
    d.Add("flight_dumps_total", s.flight_dumps_total);
    d.Add("wal_last_seq", s.wal_last_seq);
    d.Add("wal_applied_through", s.wal_applied_through);
    d.Add("draining", manager_->draining());
    return OkResponse(std::move(d));
  }

  if (op == "profile") {
    auto p = manager_->Profile(req.GetUint("session"));
    if (!p.ok()) return ErrorResponse(p.status());
    const SessionProfile& sp = p.value();
    obs::JsonDict d;
    d.AddRaw("profile", sp.profile_json);
    d.Add("scan_cost_micros", sp.scan_cost_micros);
    d.Add("sim_now", static_cast<int64_t>(sp.sim_now));
    d.Add("work_units", sp.work_units);
    d.Add("probe_unit", sp.probe_unit);
    return OkResponse(std::move(d));
  }

  if (op == "flight-dump") {
    obs::Tracer& tracer = obs::Tracer::Global();
    obs::JsonDict d;
    if (const JsonValue* path = req.Find("path");
        path != nullptr && path->IsString()) {
      if (auto st = tracer.WriteChromeTrace(path->str_v); !st.ok()) {
        return ErrorResponse("SRV-E009: " + st.message());
      }
      d.Add("written", path->str_v);
    } else {
      d.Add("trace", tracer.ToChromeTraceJson());  // escaped string value
    }
    // Only successful dumps count, and in both ServiceStats and the
    // Prometheus counter, mirroring SessionManager::DumpFlight.
    manager_->NoteFlightDump();
    d.Add("records", static_cast<uint64_t>(tracer.RecordCount()));
    return OkResponse(std::move(d));
  }

  if (op == "ingest") {
    const JsonValue* events = req.Find("events");
    if (events == nullptr || !events->IsArray()) {
      return ErrorResponse("SRV-E007: ingest needs an events array");
    }
    std::vector<Event> batch;
    batch.reserve(events->items.size());
    for (const JsonValue& ev : events->items) {
      auto e = ParseEvent(ev);
      if (!e.ok()) return ErrorResponse(e.status());
      batch.push_back(std::move(e.value()));
    }
    auto accepted = manager_->Ingest(std::move(batch));
    if (!accepted.ok()) return ErrorResponse(accepted.status());
    obs::JsonDict d;
    d.Add("accepted", static_cast<uint64_t>(accepted.value().accepted));
    // Durable receipt: the batch is fsync'd in the WAL under this
    // sequence number. Absent when the daemon runs without --data-dir.
    if (accepted.value().wal_seq != 0) {
      d.Add("wal_seq", accepted.value().wal_seq);
    }
    return OkResponse(std::move(d));
  }

  if (op == "shutdown") {
    if (shutdown_requested != nullptr) *shutdown_requested = true;
    obs::JsonDict d;
    d.Add("draining", true);
    return OkResponse(std::move(d));
  }

  return ErrorResponse("SRV-E001: unknown op '" + op + "'");
}

}  // namespace aptrace::service
