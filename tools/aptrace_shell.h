#ifndef APTRACE_TOOLS_APTRACE_SHELL_H_
#define APTRACE_TOOLS_APTRACE_SHELL_H_

#include <iosfwd>

#include "storage/event_store.h"

namespace aptrace::tools {

/// The interactive analyst console (`aptrace shell --trace=...`): the
/// paper's monitor / pause / refine / resume loop at a prompt. Reads
/// commands from `in`, writes to `out`; returns the exit code. Scriptable
/// by piping commands (see tests/cli_smoke.cmake).
///
/// Commands:
///   start <file.bdl>     begin an analysis from a script file
///   refine <file.bdl>    pause + update the script through the Refiner
///   from <event-id>      begin an unconstrained backtrack from an event
///   step [n]             process until n more updates arrive (default 1)
///   run [duration]       run until done or simulated duration elapses
///   status               graph size, pending queue, elapsed, script
///   alerts [train-days]  run the anomaly detectors over the trace
///   path <object-id>     causal chain from the start to the object
///   dot <file>           write the graph as Graphviz DOT
///   json <file>          write the graph as JSON
///   fmt                  print the current script, canonically formatted
///   help                 this list
///   quit
int RunShell(EventStore* store, std::istream& in, std::ostream& out);

}  // namespace aptrace::tools

#endif  // APTRACE_TOOLS_APTRACE_SHELL_H_
