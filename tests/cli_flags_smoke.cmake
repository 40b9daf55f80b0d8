# Smoke test for spnl_partition's flag checking: a flag the tool does not
# read exits 2 with a message naming it (a retired --workers=4 must not
# quietly run sequential SPNL), and a retired --inject-faults key exits
# non-zero with "unknown fault key".
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
          --inject-faults=crash:1@10 --quiet
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "--inject-faults=crash:1@10 unexpectedly succeeded")
endif()
if(NOT err MATCHES "unknown fault key")
  message(FATAL_ERROR "--inject-faults=crash:1@10: stderr lacks "
                      "'unknown fault key': ${err}")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
