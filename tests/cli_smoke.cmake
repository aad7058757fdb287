# Drives the aptrace CLI end to end: scenarios -> export -> run.
file(MAKE_DIRECTORY ${WORKDIR})

execute_process(COMMAND ${CLI} scenarios RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "phishing_email")
  message(FATAL_ERROR "scenarios failed: rc=${rc} out=${out}")
endif()

execute_process(
  COMMAND ${CLI} export --scenario=excel_macro --out=${WORKDIR}/a2.tsv
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/a2.tsv)
  message(FATAL_ERROR "export failed: rc=${rc} out=${out}")
endif()

execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/a2.tsv --script=${WORKDIR}/a2.tsv.bdl
          --sim-limit=2mins --quiet --dot=${WORKDIR}/a2.dot
          --json=${WORKDIR}/a2.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/a2.dot OR NOT EXISTS ${WORKDIR}/a2.json)
  message(FATAL_ERROR "run failed: rc=${rc} out=${out}")
endif()
if(NOT out MATCHES "start point: event")
  message(FATAL_ERROR "run output missing start point: ${out}")
endif()

# Drive the interactive shell with a piped command script.
file(WRITE ${WORKDIR}/shell_cmds.txt "alerts\nstep\nstatus\nquit\n")
execute_process(
  COMMAND ${CLI} shell --trace=${WORKDIR}/a2.tsv
  INPUT_FILE ${WORKDIR}/shell_cmds.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "alerts" OR NOT out MATCHES "no analysis running")
  message(FATAL_ERROR "shell failed: rc=${rc} out=${out}")
endif()

# Lint: a script with three seeded defects must surface all of them in one
# invocation, with documented codes, in both human and SARIF output.
file(WRITE ${WORKDIR}/bad.bdl
  "backward proc p[exena = \"winword.exe\" and pid = \"abc\"] -> *\n"
  "where starttime = \"not a time\"\n")
execute_process(
  COMMAND ${LINT} --sarif=${WORKDIR}/bad.sarif ${WORKDIR}/bad.bdl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "lint should exit 1 on errors: rc=${rc} ${out}${err}")
endif()
foreach(code BDL-E004 BDL-E006 BDL-E007)
  if(NOT out MATCHES "${code}")
    message(FATAL_ERROR "lint output missing ${code}: ${out}")
  endif()
endforeach()
if(NOT out MATCHES "bad.bdl:1:17")
  message(FATAL_ERROR "lint output missing line:column: ${out}")
endif()
file(READ ${WORKDIR}/bad.sarif sarif)
if(NOT sarif MATCHES "\"version\":\"2.1.0\"" OR NOT sarif MATCHES "BDL-E004"
   OR NOT sarif MATCHES "\"startLine\":1" OR NOT sarif MATCHES "\"startColumn\":17")
  message(FATAL_ERROR "SARIF output malformed: ${sarif}")
endif()

# A clean script passes, and --werror flips warnings to a non-zero exit.
file(WRITE ${WORKDIR}/warn.bdl "backward proc p[] -> *\nwhere hop <= 0\n")
execute_process(COMMAND ${LINT} ${WORKDIR}/warn.bdl RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warning-only lint should exit 0: rc=${rc}")
endif()
execute_process(COMMAND ${LINT} --werror ${WORKDIR}/warn.bdl RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "lint --werror should exit 1 on warnings: rc=${rc}")
endif()

# Metrics: a run exports the deterministic scan-cost counter, and in
# process (collect batch 1) no window is served from a batched collect.
execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/a2.tsv --script=${WORKDIR}/a2.tsv.bdl
          --sim-limit=2mins --quiet
          --json=${WORKDIR}/det1.json --metrics-out=${WORKDIR}/det.metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/det1.json)
  message(FATAL_ERROR "metrics run failed: rc=${rc} ${out}${err}")
endif()
file(READ ${WORKDIR}/det.metrics metrics)
if(NOT metrics MATCHES "aptrace_executor_scan_cost_micros_total")
  message(FATAL_ERROR "metrics missing scan cost counter: ${metrics}")
endif()
if(NOT metrics MATCHES "aptrace_executor_prefetch_hits_total 0\n")
  message(FATAL_ERROR "in-process run served batched rows: ${metrics}")
endif()

# Determinism: a second run over the same inputs must produce a
# byte-identical graph JSON.
execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/a2.tsv --script=${WORKDIR}/a2.tsv.bdl
          --sim-limit=2mins --quiet --json=${WORKDIR}/det2.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second run failed: rc=${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORKDIR}/det1.json ${WORKDIR}/det2.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "graph JSON is not deterministic")
endif()

# The executor owns no scan threads: --threads is an unknown flag.
execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/a2.tsv --script=${WORKDIR}/a2.tsv.bdl
          --sim-limit=2mins --quiet --threads=2
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "unknown flag: --threads=2")
  message(FATAL_ERROR "--threads should be rejected as unknown: rc=${rc} ${err}")
endif()

# Storage backends: the same analysis on --backend=row and
# --backend=columnar must produce byte-identical graph JSON (the physical
# layout may only change the simulated cost, never the answer). These
# runs are uncapped: a simulated-time limit would cut the two backends
# at different points, since the columnar scans are cheaper.
execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/a2.tsv --script=${WORKDIR}/a2.tsv.bdl
          --quiet --backend=row --json=${WORKDIR}/row.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/row.json)
  message(FATAL_ERROR "run --backend=row failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/a2.tsv --script=${WORKDIR}/a2.tsv.bdl
          --quiet --backend=columnar
          --json=${WORKDIR}/columnar.json --metrics-out=${WORKDIR}/col.metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/columnar.json)
  message(FATAL_ERROR "run --backend=columnar failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORKDIR}/row.json ${WORKDIR}/columnar.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--backend=columnar graph JSON differs from --backend=row")
endif()
file(READ ${WORKDIR}/col.metrics colmetrics)
if(NOT colmetrics MATCHES "aptrace_store_columnar_queries_total")
  message(FATAL_ERROR "columnar metrics missing backend counter: ${colmetrics}")
endif()

# An invalid backend is a usage error with a documented diagnostic code.
execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/a2.tsv --script=${WORKDIR}/a2.tsv.bdl
          --sim-limit=2mins --quiet --backend=bogus
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "CLI-E002")
  message(FATAL_ERROR "--backend=bogus should fail with CLI-E002: rc=${rc} ${err}")
endif()

# Binary v2 container: export, analyze, and match the v1 text answer.
execute_process(
  COMMAND ${CLI} export --scenario=excel_macro --trace-format=v2
          --out=${WORKDIR}/a2v2.bin
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/a2v2.bin)
  message(FATAL_ERROR "export --trace-format=v2 failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/a2v2.bin --script=${WORKDIR}/a2.tsv.bdl
          --quiet --backend=row --json=${WORKDIR}/v2.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/v2.json)
  message(FATAL_ERROR "run on v2 trace failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORKDIR}/row.json ${WORKDIR}/v2.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "v2-trace graph JSON differs from v1-trace answer")
endif()
execute_process(
  COMMAND ${CLI} export --scenario=excel_macro --trace-format=bogus
          --out=${WORKDIR}/never.bin
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "CLI-E003")
  message(FATAL_ERROR "--trace-format=bogus should fail with CLI-E003: rc=${rc} ${err}")
endif()

# The analysis CLI refuses to run a script that fails --lint --werror.
execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/a2.tsv --script=${WORKDIR}/warn.bdl
          --lint --werror --sim-limit=2mins --quiet
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "not running")
  message(FATAL_ERROR "run --lint --werror should refuse: rc=${rc} ${err}")
endif()

# ---------------------------------------------------------------- serverd
# Daemon smoke: start aptrace_serverd on a unix socket over the exported
# trace, drive it with aptrace_client, and check the tentpole invariant —
# a daemon-served `run` writes graph JSON byte-identical to `aptrace run`.
set(SOCKET ${WORKDIR}/serverd.sock)
set(SRVLOG ${WORKDIR}/serverd.log)
file(REMOVE ${SOCKET} ${SRVLOG})
execute_process(
  COMMAND sh -c "'${SERVERD}' --trace='${WORKDIR}/a2.tsv' --socket='${SOCKET}' \
                 > '${SRVLOG}' 2>&1 & echo $! > '${WORKDIR}/serverd.pid'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch serverd: rc=${rc}")
endif()
file(READ ${WORKDIR}/serverd.pid SERVERD_PID)
string(STRIP "${SERVERD_PID}" SERVERD_PID)

# Wait (up to ~10s) for the daemon to announce readiness.
set(ready FALSE)
foreach(attempt RANGE 100)
  if(EXISTS ${SRVLOG})
    file(READ ${SRVLOG} srvlog)
    if(srvlog MATCHES "serverd: ready")
      set(ready TRUE)
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT ready)
  file(READ ${SRVLOG} srvlog)
  message(FATAL_ERROR "serverd never became ready: ${srvlog}")
endif()

# The tentpole invariant: served graph bytes == CLI graph bytes.
execute_process(
  COMMAND ${CLIENT} run --socket=${SOCKET} --script=${WORKDIR}/a2.tsv.bdl
          --json=${WORKDIR}/served.json --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/served.json)
  message(FATAL_ERROR "client run failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORKDIR}/row.json ${WORKDIR}/served.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "daemon-served graph JSON differs from `aptrace run`")
endif()

# Observability plane: scrape the daemon's HTTP endpoints through the
# client (no curl dependency in the test environment).
execute_process(
  COMMAND ${CLIENT} http --socket=${SOCKET} --path=/healthz
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "ok")
  message(FATAL_ERROR "client http /healthz failed: rc=${rc} ${out}")
endif()
execute_process(
  COMMAND ${CLIENT} http --socket=${SOCKET} --path=/metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "aptrace_service_sessions_opened_total"
   OR NOT out MATCHES "aptrace_service_http_requests_total")
  message(FATAL_ERROR "client http /metrics failed: rc=${rc} ${out}")
endif()
execute_process(
  COMMAND ${CLIENT} http --socket=${SOCKET} --path=/nope
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "404")
  message(FATAL_ERROR "http /nope should exit nonzero with 404: rc=${rc} ${err}")
endif()

# A profiled daemon run: the rendered breakdown table appears, the graph
# bytes are untouched (profiling observes, never steers), and the profile
# totals reconcile exactly — total sim cost == the session's charged scan
# cost, total windows == its work units.
execute_process(
  COMMAND ${CLIENT} run --socket=${SOCKET} --script=${WORKDIR}/a2.tsv.bdl
          --profile --quiet --json=${WORKDIR}/profiled.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "query profile \\(probe unit:")
  message(FATAL_ERROR "client run --profile failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORKDIR}/row.json ${WORKDIR}/profiled.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--profile changed the served graph JSON")
endif()
string(REGEX MATCH "\"total\":{\"windows\":([0-9]+)" _ "${out}")
set(PROFILE_WINDOWS ${CMAKE_MATCH_1})
string(REGEX MATCH "\"sim_cost_micros\":([0-9]+)" _ "${out}")
set(PROFILE_SIM ${CMAKE_MATCH_1})
string(REGEX MATCH "\"scan_cost_micros\":([0-9]+)" _ "${out}")
set(SCAN_COST ${CMAKE_MATCH_1})
string(REGEX MATCH "\"work_units\":([0-9]+)" _ "${out}")
set(WORK_UNITS ${CMAKE_MATCH_1})
if(PROFILE_WINDOWS STREQUAL "" OR WORK_UNITS STREQUAL ""
   OR NOT PROFILE_WINDOWS STREQUAL WORK_UNITS)
  message(FATAL_ERROR
    "profile windows (${PROFILE_WINDOWS}) != work units (${WORK_UNITS}): ${out}")
endif()
if(PROFILE_SIM STREQUAL "" OR SCAN_COST STREQUAL ""
   OR NOT PROFILE_SIM STREQUAL SCAN_COST)
  message(FATAL_ERROR
    "profile sim cost (${PROFILE_SIM}) != charged scan cost (${SCAN_COST}): ${out}")
endif()

# Session lifecycle over the wire: open, poll, cancel.
execute_process(
  COMMAND ${CLIENT} open --socket=${SOCKET} --script=${WORKDIR}/a2.tsv.bdl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "\"session\":([0-9]+)")
  message(FATAL_ERROR "client open failed: rc=${rc} ${out}")
endif()
set(SESSION ${CMAKE_MATCH_1})
execute_process(
  COMMAND ${CLIENT} poll --socket=${SOCKET} --session=${SESSION}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "\"ok\":true")
  message(FATAL_ERROR "client poll failed: rc=${rc} ${out}")
endif()
execute_process(
  COMMAND ${CLIENT} cancel --socket=${SOCKET} --session=${SESSION}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "client cancel failed: rc=${rc} ${out}")
endif()
execute_process(
  COMMAND ${CLIENT} stats --socket=${SOCKET}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "\"cancelled\":1")
  message(FATAL_ERROR "client stats missing cancelled count: rc=${rc} ${out}")
endif()

# Unknown sessions surface the documented error code and a nonzero exit.
execute_process(
  COMMAND ${CLIENT} poll --socket=${SOCKET} --session=9999
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(rc EQUAL 0 OR NOT out MATCHES "SRV-E003")
  message(FATAL_ERROR "poll of unknown session should fail with SRV-E003: rc=${rc} ${out}")
endif()

# Graceful shutdown: the client op drains the daemon and the process exits.
execute_process(
  COMMAND ${CLIENT} shutdown --socket=${SOCKET}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "\"draining\":true")
  message(FATAL_ERROR "client shutdown failed: rc=${rc} ${out}")
endif()
set(drained FALSE)
foreach(attempt RANGE 100)
  file(READ ${SRVLOG} srvlog)
  if(srvlog MATCHES "serverd: drained")
    set(drained TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT drained)
  execute_process(COMMAND sh -c "kill ${SERVERD_PID} 2>/dev/null")
  file(READ ${SRVLOG} srvlog)
  message(FATAL_ERROR "serverd did not drain after shutdown op: ${srvlog}")
endif()

# ------------------------------------------------------------ durability
# Durable ingest (docs/durability.md): boot the daemon with --data-dir,
# ingest a batch (fsync'd to the WAL before the ack), checkpoint a parked
# session, then SIGKILL the process — no shutdown hook runs, whatever the
# WAL holds is what survives. A restart over the same data dir must
# replay the acknowledged batch, report the recovery on /metrics, resume
# the checkpoint, and serve graphs byte-identical to `aptrace run` over a
# trace that already contains the ingested events.

# The ingest payload reuses the last event of the exported trace with
# bumped timestamps, so the combined reference trace stays well-formed
# no matter how the scenario generator evolves.
file(READ ${WORKDIR}/a2.tsv base_trace)
if(NOT base_trace MATCHES
   "\nE\t([0-9]+)\t([0-9]+)\t([0-9]+)\t([0-9]+)\t([0-9]+)\t([0-9]+)\t([0-9]+)\n$")
  message(FATAL_ERROR "could not parse the last event line of a2.tsv")
endif()
set(ING_SUBJ ${CMAKE_MATCH_1})
set(ING_OBJ ${CMAKE_MATCH_2})
set(ING_AMOUNT ${CMAKE_MATCH_4})
set(ING_ACTION ${CMAKE_MATCH_5})
set(ING_DIR ${CMAKE_MATCH_6})
set(ING_HOST ${CMAKE_MATCH_7})
math(EXPR ING_TS1 "${CMAKE_MATCH_3} + 1000000")
math(EXPR ING_TS2 "${CMAKE_MATCH_3} + 2000000")
file(WRITE ${WORKDIR}/combined.tsv "${base_trace}")
foreach(ts ${ING_TS1} ${ING_TS2})
  file(APPEND ${WORKDIR}/combined.tsv
    "E\t${ING_SUBJ}\t${ING_OBJ}\t${ts}\t${ING_AMOUNT}\t${ING_ACTION}\t${ING_DIR}\t${ING_HOST}\n")
endforeach()
file(WRITE ${WORKDIR}/ingest.json
  "[{\"subject\":${ING_SUBJ},\"object\":${ING_OBJ},\"timestamp\":${ING_TS1},"
  "\"amount\":${ING_AMOUNT},\"action\":${ING_ACTION},\"direction\":${ING_DIR},"
  "\"host\":${ING_HOST}},"
  "{\"subject\":${ING_SUBJ},\"object\":${ING_OBJ},\"timestamp\":${ING_TS2},"
  "\"amount\":${ING_AMOUNT},\"action\":${ING_ACTION},\"direction\":${ING_DIR},"
  "\"host\":${ING_HOST}}]\n")

# The uninterrupted reference: a plain CLI run over base + ingested
# events. Recovery assigns replayed events dense ids in append order, so
# the daemon's recovered store is indistinguishable from this trace.
execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/combined.tsv
          --script=${WORKDIR}/a2.tsv.bdl --quiet --backend=row
          --json=${WORKDIR}/durable_ref.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/durable_ref.json)
  message(FATAL_ERROR "combined reference run failed: rc=${rc} ${out}${err}")
endif()

# Boot 1: empty data dir, so --trace seeds the store. --buffer-cap=1
# parks the session after one update batch, keeping it checkpointable.
set(DSOCKET ${WORKDIR}/durable1.sock)
set(DSRVLOG ${WORKDIR}/durable1.log)
set(DDIR ${WORKDIR}/ddir)
file(REMOVE ${DSOCKET} ${DSRVLOG})
file(REMOVE_RECURSE ${DDIR})
file(MAKE_DIRECTORY ${DDIR})
execute_process(
  COMMAND sh -c "'${SERVERD}' --trace='${WORKDIR}/a2.tsv' --data-dir='${DDIR}' \
                 --seal-tail=2 --buffer-cap=1 --socket='${DSOCKET}' \
                 > '${DSRVLOG}' 2>&1 & echo $! > '${WORKDIR}/durable1.pid'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch durable serverd: rc=${rc}")
endif()
file(READ ${WORKDIR}/durable1.pid DURABLE_PID)
string(STRIP "${DURABLE_PID}" DURABLE_PID)
set(ready FALSE)
foreach(attempt RANGE 100)
  if(EXISTS ${DSRVLOG})
    file(READ ${DSRVLOG} srvlog)
    if(srvlog MATCHES "serverd: ready")
      set(ready TRUE)
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT ready)
  file(READ ${DSRVLOG} srvlog)
  message(FATAL_ERROR "durable serverd never became ready: ${srvlog}")
endif()

# Ingest: the ack carries the durable WAL sequence — the batch is on
# disk and fsync'd before this response exists.
execute_process(
  COMMAND ${CLIENT} ingest --socket=${DSOCKET} --events=${WORKDIR}/ingest.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "\"accepted\":2"
   OR NOT out MATCHES "\"wal_seq\":1")
  message(FATAL_ERROR "durable ingest failed: rc=${rc} ${out}")
endif()

# Wait for the scheduler to apply the batch to the store, so the session
# opened next sees the combined event set from its first window.
set(applied FALSE)
foreach(attempt RANGE 100)
  execute_process(
    COMMAND ${CLIENT} stats --socket=${DSOCKET}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(rc EQUAL 0 AND out MATCHES "\"wal_applied_through\":1")
    set(applied TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT applied)
  message(FATAL_ERROR "ingested batch never applied: ${out}")
endif()

# Open a session, wait for the tiny buffer to park it, checkpoint it.
# The checkpoint carries the durable mark (store size + WAL position).
execute_process(
  COMMAND ${CLIENT} open --socket=${DSOCKET} --script=${WORKDIR}/a2.tsv.bdl
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "\"session\":([0-9]+)")
  message(FATAL_ERROR "durable open failed: rc=${rc} ${out}")
endif()
set(DSESSION ${CMAKE_MATCH_1})
set(parked FALSE)
foreach(attempt RANGE 100)
  execute_process(
    COMMAND ${CLIENT} stats --socket=${DSOCKET}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(rc EQUAL 0 AND out MATCHES "\"backpressure_stalls_total\":[1-9]")
    set(parked TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT parked)
  message(FATAL_ERROR "session never parked on backpressure: ${out}")
endif()
execute_process(
  COMMAND ${CLIENT} checkpoint --socket=${DSOCKET} --session=${DSESSION}
          --out=${WORKDIR}/durable.ckpt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/durable.ckpt)
  message(FATAL_ERROR "durable checkpoint failed: rc=${rc} ${out}")
endif()

# SIGKILL: no drain, no snapshot, no WAL reset. Everything acknowledged
# must still be recoverable from ${DDIR} alone.
execute_process(COMMAND sh -c "kill -9 ${DURABLE_PID}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to SIGKILL durable serverd: rc=${rc}")
endif()
execute_process(COMMAND sh -c "while kill -0 ${DURABLE_PID} 2>/dev/null; do sleep 0.05; done")

# Boot 2 over the same data dir: the manifest is absent (the kill
# skipped the drain snapshot), so --trace seeds the base store and the
# WAL replays the acknowledged batch on top.
set(DSOCKET2 ${WORKDIR}/durable2.sock)
set(DSRVLOG2 ${WORKDIR}/durable2.log)
file(REMOVE ${DSOCKET2} ${DSRVLOG2})
execute_process(
  COMMAND sh -c "'${SERVERD}' --trace='${WORKDIR}/a2.tsv' --data-dir='${DDIR}' \
                 --seal-tail=2 --socket='${DSOCKET2}' \
                 > '${DSRVLOG2}' 2>&1 & echo $! > '${WORKDIR}/durable2.pid'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to relaunch durable serverd: rc=${rc}")
endif()
file(READ ${WORKDIR}/durable2.pid DURABLE_PID2)
string(STRIP "${DURABLE_PID2}" DURABLE_PID2)
set(ready FALSE)
foreach(attempt RANGE 100)
  if(EXISTS ${DSRVLOG2})
    file(READ ${DSRVLOG2} srvlog)
    if(srvlog MATCHES "serverd: ready")
      set(ready TRUE)
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT ready)
  file(READ ${DSRVLOG2} srvlog)
  message(FATAL_ERROR "recovered serverd never became ready: ${srvlog}")
endif()
file(READ ${DSRVLOG2} srvlog)
if(NOT srvlog MATCHES "serverd: recovered 2 events \\(1 batches")
  message(FATAL_ERROR "recovery summary missing or wrong: ${srvlog}")
endif()

# The recovery metrics are on the scrape surface.
execute_process(
  COMMAND ${CLIENT} http --socket=${DSOCKET2} --path=/metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "aptrace_wal_recovered_batches_total 1"
   OR NOT out MATCHES "aptrace_wal_recovered_events_total 2")
  message(FATAL_ERROR "recovery metrics missing from /metrics: rc=${rc} ${out}")
endif()

# Resume the pre-crash checkpoint: the durable mark validates against
# the recovered store (no double-ingest, no lost batch), and the
# completed session's graph is byte-identical to the uninterrupted run.
execute_process(
  COMMAND ${CLIENT} run --socket=${DSOCKET2} --resume=${WORKDIR}/durable.ckpt
          --json=${WORKDIR}/durable_resumed.json --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/durable_resumed.json)
  message(FATAL_ERROR "resume after crash failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/durable_ref.json ${WORKDIR}/durable_resumed.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed graph differs from the uninterrupted reference")
endif()

# A fresh session over the recovered store agrees too.
execute_process(
  COMMAND ${CLIENT} run --socket=${DSOCKET2} --script=${WORKDIR}/a2.tsv.bdl
          --json=${WORKDIR}/durable_served.json --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/durable_served.json)
  message(FATAL_ERROR "post-recovery run failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/durable_ref.json ${WORKDIR}/durable_served.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "post-recovery graph differs from the reference")
endif()

# Graceful drain folds the WAL into a snapshot: the manifest appears and
# the log records the snapshot position.
execute_process(
  COMMAND ${CLIENT} shutdown --socket=${DSOCKET2}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "durable shutdown failed: rc=${rc} ${out}")
endif()
set(drained FALSE)
foreach(attempt RANGE 100)
  file(READ ${DSRVLOG2} srvlog)
  if(srvlog MATCHES "serverd: drained")
    set(drained TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT drained)
  execute_process(COMMAND sh -c "kill ${DURABLE_PID2} 2>/dev/null")
  file(READ ${DSRVLOG2} srvlog)
  message(FATAL_ERROR "durable serverd did not drain: ${srvlog}")
endif()
if(NOT srvlog MATCHES "serverd: snapshot through batch 1 written to"
   OR NOT EXISTS ${DDIR}/MANIFEST)
  message(FATAL_ERROR "drain snapshot missing: ${srvlog}")
endif()

# ------------------------------------------------------------- sharding
# Sharded store (docs/sharding.md): the same analysis at --shards=1 and
# --shards=4 must write byte-identical graph JSON — sharding changes the
# physical scan plan (scatter-gather over (host, time) shards), never
# the answer. Uncapped for the same reason as the backend comparison.
execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/a2.tsv --script=${WORKDIR}/a2.tsv.bdl
          --quiet --backend=row --shards=1 --json=${WORKDIR}/shard1.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/shard1.json)
  message(FATAL_ERROR "run --shards=1 failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CLI} run --trace=${WORKDIR}/a2.tsv --script=${WORKDIR}/a2.tsv.bdl
          --quiet --backend=row --shards=4
          --json=${WORKDIR}/shard4.json --metrics-out=${WORKDIR}/shard.metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/shard4.json)
  message(FATAL_ERROR "run --shards=4 failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${WORKDIR}/shard1.json ${WORKDIR}/shard4.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--shards=4 graph JSON differs from --shards=1")
endif()

# The sharded run exports the shard gauge and a non-zero scatter counter.
file(READ ${WORKDIR}/shard.metrics shardmetrics)
if(NOT shardmetrics MATCHES "aptrace_store_shards 4")
  message(FATAL_ERROR "metrics missing shard gauge: ${shardmetrics}")
endif()
if(NOT shardmetrics MATCHES "aptrace_store_shard_scans_total [1-9]")
  message(FATAL_ERROR "metrics missing shard scan counter: ${shardmetrics}")
endif()

# Invalid or zero shard counts are usage errors with a documented code.
foreach(bad 0 65 bogus)
  execute_process(
    COMMAND ${CLI} run --trace=${WORKDIR}/a2.tsv --script=${WORKDIR}/a2.tsv.bdl
            --sim-limit=2mins --quiet --shards=${bad}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "CLI-E005")
    message(FATAL_ERROR "--shards=${bad} should fail with CLI-E005: rc=${rc} ${err}")
  endif()
endforeach()

# A sharded daemon serves the same bytes and exposes per-shard counters
# on the scrape surface.
set(SHSOCKET ${WORKDIR}/sharded.sock)
set(SHSRVLOG ${WORKDIR}/sharded.log)
file(REMOVE ${SHSOCKET} ${SHSRVLOG})
execute_process(
  COMMAND sh -c "'${SERVERD}' --trace='${WORKDIR}/a2.tsv' --shards=4 \
                 --socket='${SHSOCKET}' \
                 > '${SHSRVLOG}' 2>&1 & echo $! > '${WORKDIR}/sharded.pid'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch sharded serverd: rc=${rc}")
endif()
file(READ ${WORKDIR}/sharded.pid SHARDED_PID)
string(STRIP "${SHARDED_PID}" SHARDED_PID)
set(ready FALSE)
foreach(attempt RANGE 100)
  if(EXISTS ${SHSRVLOG})
    file(READ ${SHSRVLOG} srvlog)
    if(srvlog MATCHES "serverd: ready")
      set(ready TRUE)
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT ready)
  file(READ ${SHSRVLOG} srvlog)
  message(FATAL_ERROR "sharded serverd never became ready: ${srvlog}")
endif()
execute_process(
  COMMAND ${CLIENT} run --socket=${SHSOCKET} --script=${WORKDIR}/a2.tsv.bdl
          --json=${WORKDIR}/sharded_served.json --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/sharded_served.json)
  message(FATAL_ERROR "sharded client run failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/shard1.json ${WORKDIR}/sharded_served.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharded daemon graph JSON differs from --shards=1")
endif()
execute_process(
  COMMAND ${CLIENT} http --socket=${SHSOCKET} --path=/metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "aptrace_store_shards 4"
   OR NOT out MATCHES "aptrace_store_shard_scans_total [1-9]")
  message(FATAL_ERROR "sharded /metrics missing shard counters: rc=${rc} ${out}")
endif()
execute_process(
  COMMAND ${CLIENT} shutdown --socket=${SHSOCKET}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sharded shutdown failed: rc=${rc} ${out}")
endif()
set(drained FALSE)
foreach(attempt RANGE 100)
  file(READ ${SHSRVLOG} srvlog)
  if(srvlog MATCHES "serverd: drained")
    set(drained TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT drained)
  execute_process(COMMAND sh -c "kill ${SHARDED_PID} 2>/dev/null")
  file(READ ${SHSRVLOG} srvlog)
  message(FATAL_ERROR "sharded serverd did not drain: ${srvlog}")
endif()

# Checkpoints record the shard layout: one taken over a 4-shard store
# resumes only into a 4-shard store; a mismatched restore is refused
# with the documented code instead of silently reinterpreting the
# layout-dependent probe accounting.
file(WRITE ${WORKDIR}/shard_save.txt
  "start ${WORKDIR}/a2.tsv.bdl\nstep\nsave ${WORKDIR}/shard.ckpt\nquit\n")
execute_process(
  COMMAND ${CLI} shell --trace=${WORKDIR}/a2.tsv --shards=4
  INPUT_FILE ${WORKDIR}/shard_save.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "checkpoint written to"
   OR NOT EXISTS ${WORKDIR}/shard.ckpt)
  message(FATAL_ERROR "sharded shell save failed: rc=${rc} ${out}")
endif()
file(WRITE ${WORKDIR}/shard_load.txt "load ${WORKDIR}/shard.ckpt\nquit\n")
execute_process(
  COMMAND ${CLI} shell --trace=${WORKDIR}/a2.tsv --shards=1
  INPUT_FILE ${WORKDIR}/shard_load.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "STO-E011")
  message(FATAL_ERROR
    "mismatched-shard restore should report STO-E011: rc=${rc} ${out}")
endif()
execute_process(
  COMMAND ${CLI} shell --trace=${WORKDIR}/a2.tsv --shards=4
  INPUT_FILE ${WORKDIR}/shard_load.txt
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "resumed from")
  message(FATAL_ERROR "matching-shard restore failed: rc=${rc} ${out}")
endif()

# ---------------------------------------------------------- distribution
# Distributed shard fabric (docs/distribution.md): aptrace_fleet forks a
# 4-daemon shardd fleet plus a coordinator serverd wired to it with one
# --shard-endpoint= per daemon. The tentpole invariant: graphs served
# over the fabric are byte-identical to `aptrace run` over the same
# trace. Then the degraded-mode contract — SIGKILL one daemon, the next
# query fails with a typed DST error while the coordinator stays up —
# and the dist counters on the /metrics scrape surface. Every failure
# path goes through dist_fail so no daemon outlives the test.
if(DEFINED FLEET AND DEFINED SHARDD)

set(FDIR ${WORKDIR}/fleet)
set(FSOCKET ${WORKDIR}/fleet.sock)
set(FLOG ${WORKDIR}/fleet.log)
file(REMOVE ${FSOCKET} ${FLOG})
file(REMOVE_RECURSE ${FDIR})
file(MAKE_DIRECTORY ${FDIR})
execute_process(
  COMMAND sh -c "'${FLEET}' --shardd='${SHARDD}' --serverd='${SERVERD}' \
                 --shards=4 --trace='${WORKDIR}/a2.tsv' --socket='${FSOCKET}' \
                 --pid-dir='${FDIR}' \
                 > '${FLOG}' 2>&1 & echo $! > '${WORKDIR}/fleet.pid'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch fleet: rc=${rc}")
endif()
file(READ ${WORKDIR}/fleet.pid FLEET_PID)
string(STRIP "${FLEET_PID}" FLEET_PID)

# Teardown that works from any failure point: TERM the launcher (it
# forwards the signal to the coordinator and reaps its shardds on exit),
# wait briefly, then force-kill stragglers via the pid files.
macro(dist_teardown)
  execute_process(COMMAND sh -c "\
kill ${FLEET_PID} 2>/dev/null; \
for i in $(seq 1 50); do kill -0 ${FLEET_PID} 2>/dev/null || break; sleep 0.1; done; \
kill -9 ${FLEET_PID} 2>/dev/null; \
for f in '${FDIR}'/shard*.pid; do [ -f \"$f\" ] && kill -9 $(cat \"$f\") 2>/dev/null; done; \
true")
endmacro()
macro(dist_fail msg)
  dist_teardown()
  message(FATAL_ERROR "${msg}")
endmacro()

# The launcher logs the shardd endpoints, the coordinator announces the
# fabric, then its usual ready line.
set(ready FALSE)
foreach(attempt RANGE 150)
  if(EXISTS ${FLOG})
    file(READ ${FLOG} fleetlog)
    if(fleetlog MATCHES "serverd: ready")
      set(ready TRUE)
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT ready)
  file(READ ${FLOG} fleetlog)
  dist_fail("distributed serverd never became ready: ${fleetlog}")
endif()
if(NOT fleetlog MATCHES "fleet: 4 shardd\\(s\\) ready"
   OR NOT fleetlog MATCHES "distributed fabric: 4 remote shard")
  dist_fail("fleet log missing fabric announcements: ${fleetlog}")
endif()

# The tentpole invariant: fabric-served graph bytes == `aptrace run`.
execute_process(
  COMMAND ${CLIENT} run --socket=${FSOCKET} --script=${WORKDIR}/a2.tsv.bdl
          --json=${WORKDIR}/dist_served.json --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORKDIR}/dist_served.json)
  dist_fail("distributed client run failed: rc=${rc} ${out}${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/row.json ${WORKDIR}/dist_served.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  dist_fail("fabric-served graph JSON differs from `aptrace run`")
endif()

# The dist counters are on the scrape surface: RPCs flowed, no shard has
# been declared down yet.
execute_process(
  COMMAND ${CLIENT} http --socket=${FSOCKET} --path=/metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "aptrace_dist_rpcs_total [1-9]"
   OR NOT out MATCHES "aptrace_store_shards 4")
  dist_fail("distributed /metrics missing dist counters: rc=${rc} ${out}")
endif()
if(NOT out MATCHES "aptrace_dist_shard_down_total 0")
  dist_fail("healthy fleet should report zero shards down: ${out}")
endif()

# Degraded mode: SIGKILL one daemon (no drain — its connections die
# mid-stream). The next query must fail with a typed DST error, within
# the client's bounded retry budget, and the coordinator must stay up.
file(READ ${FDIR}/shard2.pid SHARD2_PID)
string(STRIP "${SHARD2_PID}" SHARD2_PID)
# No wait-for-exit here: the kernel closes the daemon's sockets at the
# kill, and the corpse stays a zombie until the launcher reaps it — so
# polling `kill -0` would spin forever.
execute_process(COMMAND sh -c "kill -9 ${SHARD2_PID}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  dist_fail("failed to SIGKILL shardd 2: rc=${rc}")
endif()
execute_process(
  COMMAND ${CLIENT} run --socket=${FSOCKET} --script=${WORKDIR}/a2.tsv.bdl
          --json=${WORKDIR}/dist_degraded.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  dist_fail("query over a killed shard should fail, not succeed: ${out}")
endif()
if(NOT "${out}${err}" MATCHES "DST-")
  dist_fail("degraded query missing typed DST error: ${out}${err}")
endif()
execute_process(
  COMMAND ${CLIENT} http --socket=${FSOCKET} --path=/healthz
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "ok")
  dist_fail("coordinator died with its shard: rc=${rc} ${out}")
endif()
execute_process(
  COMMAND ${CLIENT} http --socket=${FSOCKET} --path=/metrics
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "aptrace_dist_shard_down_total [1-9]"
   OR NOT out MATCHES "aptrace_dist_retries_total [1-9]")
  dist_fail("degraded /metrics missing shard-down accounting: rc=${rc} ${out}")
endif()

# Graceful teardown: shut the coordinator down through the client; the
# launcher reaps the remaining shardds and exits with the coordinator's
# code.
execute_process(
  COMMAND ${CLIENT} shutdown --socket=${FSOCKET}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  dist_fail("distributed shutdown failed: rc=${rc} ${out}")
endif()
set(stopped FALSE)
foreach(attempt RANGE 100)
  execute_process(COMMAND sh -c "kill -0 ${FLEET_PID} 2>/dev/null"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    set(stopped TRUE)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(NOT stopped)
  dist_fail("fleet launcher did not exit after coordinator shutdown")
endif()
foreach(shard RANGE 3)
  if(EXISTS ${FDIR}/shard${shard}.pid)
    file(READ ${FDIR}/shard${shard}.pid SPID)
    string(STRIP "${SPID}" SPID)
    execute_process(COMMAND sh -c "kill -0 ${SPID} 2>/dev/null"
                    RESULT_VARIABLE rc)
    if(rc EQUAL 0)
      dist_fail("shardd ${shard} (pid ${SPID}) outlived the fleet")
    endif()
  endif()
endforeach()

endif()  # DEFINED FLEET AND DEFINED SHARDD
