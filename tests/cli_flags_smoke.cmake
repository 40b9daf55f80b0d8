# Smoke test for the tools' flag checking: a flag a tool does not read exits
# 2 with a message naming it (a retired --workers=4 must not quietly run
# sequential SPNL, a mistyped spnl_gen --n=500 must not generate the 100k
# default), so does a malformed value, every flag a tool does read passes
# the check, a retired --inject-faults key exits non-zero with
# "unknown fault key" before the graph is loaded, and so does a flag
# combination no path implements (exit 2).
file(MAKE_DIRECTORY ${WORK_DIR})
set(GRAPH ${WORK_DIR}/flags.adj)

execute_process(
  COMMAND ${SPNL_GEN} --out=${GRAPH} --model=webcrawl --vertices=2000
          --avg-degree=6 --seed=3
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spnl_gen failed (rc=${rc})")
endif()

# Every flag below is one the tool reads: the check must not trip on it.
execute_process(
  COMMAND ${SPNL_PARTITION} ${GRAPH} --k=4 --algo=spnl --threads=2
          --inject-faults=slow:0@0 --quiet
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "known flags were rejected (rc=${rc}): ${err}")
endif()

execute_process(
  COMMAND ${SPNL_PARTITION} ${GRAPH} --k=4 --workers=4 --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--workers=4: expected exit 2, got rc=${rc}")
endif()
if(NOT err MATCHES "unknown flag --workers")
  message(FATAL_ERROR "--workers=4: stderr does not name the flag: ${err}")
endif()

execute_process(
  COMMAND ${SPNL_PARTITION} ${GRAPH} --k=4 --threads=2
          --inject-faults=crash:1@10
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "--inject-faults=crash:1@10 unexpectedly succeeded")
endif()
if(NOT err MATCHES "unknown fault key")
  message(FATAL_ERROR "--inject-faults=crash:1@10: stderr lacks "
                      "'unknown fault key': ${err}")
endif()
# The spec is checked before the input is read: no graph summary.
if(out MATCHES "\\|V\\|=")
  message(FATAL_ERROR "--inject-faults=crash:1@10: the graph was loaded "
                      "before the spec was rejected: ${out}")
endif()

# An algorithm/mode combination no path implements exits 2 before the input
# is read, naming the flag, instead of running some other algorithm under
# the requested label (or dropping the flag). A flag the selected path has
# no use for (a perf or governor flag without a sink there, a watchdog
# without worker threads) exits 2 the same way.
foreach(case
    "--algo;--algo=nonsense --window=64"
    "--window;--window=64 --buffer=128"
    "--passes;--algo=hash --passes=2"
    "--threads;--algo=ldg --threads=3"
    "--checkpoint;--passes=2 --checkpoint=${WORK_DIR}/c.bin --checkpoint-every=100"
    "--inject-faults;--inject-faults=stuck:0@10"
    "--watchdog-timeout;--watchdog-timeout=0.2"
    "--watchdog-timeout;--algo=labelprop --threads=2 --watchdog-timeout=0.2"
    "--perf-report;--window=64 --perf-report"
    "--perf-json;--buffer=128 --perf-json=${WORK_DIR}/p.json"
    "--memory-budget;--algo=multilevel --memory-budget=1M"
    "--deadline;--algo=labelprop --threads=2 --deadline=60"
    "--degrade-policy;--window=64 --degrade-policy=abort"
    "--governor-interval;--buffer=128 --governor-interval=64")
  list(GET case 0 flag)
  list(GET case 1 flags)
  separate_arguments(flags)
  execute_process(
    COMMAND ${SPNL_PARTITION} ${GRAPH} --k=4 ${flags}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${flag}" OR NOT out STREQUAL "")
    message(FATAL_ERROR "${flags}: expected exit 2 naming ${flag} before any "
                        "output, got rc=${rc}: ${err}\nstdout: ${out}")
  endif()
endforeach()
if(EXISTS ${WORK_DIR}/c.bin)
  message(FATAL_ERROR "a rejected --checkpoint run still wrote a snapshot")
endif()
if(EXISTS ${WORK_DIR}/p.json)
  message(FATAL_ERROR "a rejected --perf-json run still wrote its file")
endif()

# Re-streaming carries the perf sink and the governor into every pass.
execute_process(
  COMMAND ${SPNL_PARTITION} ${GRAPH} --k=4 --passes=2
          --perf-json=${WORK_DIR}/restream.json --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORK_DIR}/restream.json)
  message(FATAL_ERROR "--passes=2 --perf-json: expected the file, got "
                      "rc=${rc}: ${out}${err}")
endif()
# Both passes fetch all 2000 records and the end of the stream.
file(READ ${WORK_DIR}/restream.json perf_json)
if(NOT perf_json MATCHES "\"stage\":\"queue_wait\",\"calls\":4002,")
  message(FATAL_ERROR "--passes=2 --perf-json: expected 2 x 2001 stream "
                      "fetches: ${perf_json}")
endif()
execute_process(
  COMMAND ${SPNL_PARTITION} ${GRAPH} --k=4 --passes=2 --memory-budget=16K
          --governor-interval=64
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "degraded: stage=")
  message(FATAL_ERROR "--passes=2 --memory-budget: expected a degradation, "
                      "got rc=${rc}: ${out}${err}")
endif()
execute_process(
  COMMAND ${SPNL_PARTITION} ${GRAPH} --k=4 --passes=2 --memory-budget=1K
          --degrade-policy=abort --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "resource budget exceeded")
  message(FATAL_ERROR "--passes=2 --degrade-policy=abort: expected exit 1, "
                      "got rc=${rc}: ${out}${err}")
endif()

# Re-streaming reports the PT and MC of its passes.
execute_process(
  COMMAND ${SPNL_PARTITION} ${GRAPH} --k=4 --passes=2 --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "MC=" OR out MATCHES "MC=0B")
  message(FATAL_ERROR "--passes=2: expected a nonzero MC, got rc=${rc}: "
                      "${out}${err}")
endif()

# The summary line reports the process's peak RSS next to MC, and the perf
# JSON carries the same peak in bytes; on Linux neither reads 0.
execute_process(
  COMMAND ${SPNL_PARTITION} ${GRAPH} --k=4 --perf-json=${WORK_DIR}/rss.json --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "MC=[0-9.]+[KMGT]?B RSS=[0-9.]+[KMGT]?B"
   OR out MATCHES "RSS=0B")
  message(FATAL_ERROR "expected a nonzero RSS= after MC= on the summary "
                      "line, got rc=${rc}: ${out}${err}")
endif()
file(READ ${WORK_DIR}/rss.json perf_json)
if(NOT perf_json MATCHES "\"peak_rss_bytes\":[1-9][0-9]*[,}]")
  message(FATAL_ERROR "--perf-json: expected a nonzero peak_rss_bytes: "
                      "${perf_json}")
endif()

execute_process(
  COMMAND ${SPNL_GEN} --out=${WORK_DIR}/n.adj --n=500
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "spnl_gen --n=500: expected exit 2, got rc=${rc}")
endif()
if(NOT err MATCHES "unknown flag --n")
  message(FATAL_ERROR "spnl_gen --n=500: stderr does not name the flag: ${err}")
endif()
if(EXISTS ${WORK_DIR}/n.adj)
  message(FATAL_ERROR "spnl_gen --n=500 still wrote a graph")
endif()

execute_process(
  COMMAND ${SPNL_GEN} --out=${WORK_DIR}/abc.adj --vertices=abc
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--vertices")
  message(FATAL_ERROR "spnl_gen --vertices=abc: expected exit 2 naming the "
                      "flag, got rc=${rc}: ${err}")
endif()
if(EXISTS ${WORK_DIR}/abc.adj)
  message(FATAL_ERROR "spnl_gen --vertices=abc still wrote a graph")
endif()

# --memory-budget takes the byte sizes spnl_partition takes. The endpoint
# cannot be bound, so a budget that parses ends in exit 1 at startup; the
# timeout ends a server that started anyway.
execute_process(
  COMMAND ${SPNL_SERVER} --listen=unix:/nonexistent/s.sock --memory-budget=-1
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 10)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "spnl_server --memory-budget=-1: expected exit 2, "
                      "got rc=${rc}: ${err}")
endif()
execute_process(
  COMMAND ${SPNL_SERVER} --listen=unix:/nonexistent/s.sock --memory-budget=256M
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 10)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "spnl_server --memory-budget=256M: expected exit 1 "
                      "(unbindable endpoint), got rc=${rc}: ${err}")
endif()

foreach(tool ${SPNL_CONVERT} ${SPNL_ANALYZE} ${SPNL_CLIENT} ${SPNL_SERVER})
  execute_process(
    COMMAND ${tool} --bogus=1
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag --bogus")
    message(FATAL_ERROR "${tool} --bogus=1: expected exit 2 naming the flag, "
                        "got rc=${rc}: ${err}")
  endif()
endforeach()

# Known-flags runs of the other tools. --help exits 0 only after the flag
# check, so the daemon and its client are covered without a server.
set(SADJ ${WORK_DIR}/flags.sadj)
set(ROUTE ${WORK_DIR}/flags.route)
foreach(cmd
    "${SPNL_CONVERT};${GRAPH};--out=${SADJ};--format=adj;--to=sadj;--max-bad-records=0;--quarantine-log=${WORK_DIR}/bad.txt;--inject-io-faults=seed:1;--quiet"
    "${SPNL_PARTITION};${SADJ};--format=sadj;--k=4;--out=${ROUTE};--quiet"
    "${SPNL_ANALYZE};${GRAPH};${ROUTE};--format=adj;--matrix;--pagerank-steps=1"
    "${SPNL_CLIENT};--help;--connect=unix:${WORK_DIR}/none.sock;--k=4;--algo=spnl;--format=adj;--lambda=0.5;--shards=0;--balance=vertex;--slack=1.1;--out=${ROUTE};--deadline=1;--max-attempts=1;--batch=64;--inject-disconnect-after=0;--inject-io-faults=seed:1;--quiet"
    "${SPNL_SERVER};--help;--listen=unix:${WORK_DIR}/none.sock;--max-sessions=1;--memory-budget=0;--idle-timeout=1;--read-timeout=1;--drain-dir=${WORK_DIR};--retry-after-ms=10;--inject-io-faults=seed:1;--quiet")
  execute_process(COMMAND ${cmd}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "known flags were rejected (rc=${rc}): ${cmd}\n${err}")
  endif()
endforeach()

execute_process(
  COMMAND ${SPNL_ANALYZE} ${GRAPH} ${ROUTE} --pagerank-steps=abc
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--pagerank-steps" OR NOT out STREQUAL "")
  message(FATAL_ERROR "spnl_analyze --pagerank-steps=abc: expected exit 2 "
                      "naming the flag before any output, got rc=${rc}: "
                      "${err}\nstdout: ${out}")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
