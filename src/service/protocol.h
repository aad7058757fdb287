#ifndef APTRACE_SERVICE_PROTOCOL_H_
#define APTRACE_SERVICE_PROTOCOL_H_

#include <string>

#include "service/session_manager.h"

namespace aptrace::service {

/// The daemon's wire protocol: one JSON object per line in each
/// direction (LF-terminated, no framing beyond the newline).
///
/// Requests carry an `op` plus op-specific fields; responses always
/// carry `ok`, and failures add `code` (an SRV-E0xx from the table in
/// docs/service.md) and `error`. Ops:
///
///   open        {bdl, weight?, window_budget?, sim_budget?,
///                start_event?}                       -> {session}
///   resume      {path, weight?}                      -> {session}
///   poll        {session, cursor?, max?}             -> {state, detail,
///                terminal, next_cursor, batches[], snapshot}
///   cancel      {session}                            -> {}
///   graph       {session}                            -> {graph}  (the
///                canonical graph JSON, escaped into one string — the
///                exact bytes `aptrace run` writes)
///   checkpoint  {session, path}                      -> {}
///   stats       {session?}  -> per-session snapshot, or service totals
///   ingest      {events: [{subject, object, timestamp, amount?,
///                action, direction?, host?}]}        -> {accepted}
///   profile     {session}  -> {profile, scan_cost_micros, sim_now,
///                work_units, probe_unit}  (per-hop / per-rule query
///                profile; see core/query_profile.h)
///   flight-dump {path?}    -> {written, records} when `path` is given
///                (the flight recorder as a Chrome trace file), else
///                {trace, records} with the JSON inline
///   shutdown    {}                                   -> {draining:true}
///
/// Error codes: SRV-E001 malformed request/unknown op, SRV-E002
/// admission, SRV-E003 unknown session, SRV-E004 compile/start failure,
/// SRV-E005 wrong-state operation, SRV-E007 ingest rejected, SRV-E008
/// draining, SRV-E009 checkpoint/flight-dump I/O. Codes are grep-able in
/// responses and logs the same way the CLI's `error[CLI-E00x]`
/// diagnostics are.
///
/// The same listener also answers plain HTTP GETs (/metrics, /healthz,
/// /readyz, /sessions) — see service/http.h; the Server sniffs the
/// dialect per connection.
class ProtocolHandler {
 public:
  explicit ProtocolHandler(SessionManager* manager) : manager_(manager) {}

  /// Handles one request line; returns the response line (no trailing
  /// newline — the transport owns framing). Sets `*shutdown_requested`
  /// when the line was a `shutdown` op the caller must act on; the
  /// handler itself never stops the manager.
  std::string HandleLine(const std::string& line, bool* shutdown_requested);

 private:
  SessionManager* manager_;
};

}  // namespace aptrace::service

#endif  // APTRACE_SERVICE_PROTOCOL_H_
