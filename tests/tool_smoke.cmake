# Smoke test for the CLI tools: spnl_gen writes a graph, spnl_partition
# partitions it with several backends and emits a route table.
file(MAKE_DIRECTORY ${WORK_DIR})
set(GRAPH ${WORK_DIR}/smoke.adj)
set(ROUTE ${WORK_DIR}/smoke.route)

execute_process(
  COMMAND ${SPNL_GEN} --out=${GRAPH} --model=webcrawl --vertices=5000
          --avg-degree=6 --seed=3
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spnl_gen failed (rc=${rc})")
endif()
if(NOT EXISTS ${GRAPH})
  message(FATAL_ERROR "spnl_gen did not write ${GRAPH}")
endif()

foreach(algo hash range ldg fennel spn spnl multilevel labelprop)
  execute_process(
    COMMAND ${SPNL_PARTITION} ${GRAPH} --k=8 --algo=${algo} --out=${ROUTE} --quiet
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "spnl_partition --algo=${algo} failed (rc=${rc})")
  endif()
  if(NOT EXISTS ${ROUTE})
    message(FATAL_ERROR "spnl_partition --algo=${algo} wrote no route table")
  endif()
  file(REMOVE ${ROUTE})
endforeach()

# Parallel, re-streaming and buffered modes.
execute_process(COMMAND ${SPNL_PARTITION} ${GRAPH} --k=8 --threads=3 --quiet
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "parallel spnl_partition failed (rc=${rc})")
endif()
execute_process(COMMAND ${SPNL_PARTITION} ${GRAPH} --k=8 --passes=2 --quiet
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "restream spnl_partition failed (rc=${rc})")
endif()
execute_process(COMMAND ${SPNL_PARTITION} ${GRAPH} --k=8 --buffer=512 --quiet
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "buffered spnl_partition failed (rc=${rc})")
endif()
execute_process(COMMAND ${SPNL_PARTITION} ${GRAPH} --k=8 --window=256 --quiet
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "windowed spnl_partition failed (rc=${rc})")
endif()

# Analyzer over a fresh route table.
execute_process(COMMAND ${SPNL_PARTITION} ${GRAPH} --k=8 --out=${ROUTE} --quiet
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spnl_partition for analyze failed (rc=${rc})")
endif()
execute_process(COMMAND ${SPNL_ANALYZE} ${GRAPH} ${ROUTE} --matrix --pagerank-steps=2
                RESULT_VARIABLE rc OUTPUT_VARIABLE analyze_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "spnl_analyze failed (rc=${rc})")
endif()
if(NOT analyze_out MATCHES "communication matrix")
  message(FATAL_ERROR "spnl_analyze did not print the matrix")
endif()
# Mismatched route must fail cleanly.
file(WRITE ${WORK_DIR}/short.route "0 1\n")
execute_process(COMMAND ${SPNL_ANALYZE} ${GRAPH} ${WORK_DIR}/short.route
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "spnl_analyze accepted a mismatched route table")
endif()

# Unknown algorithm must fail cleanly.
execute_process(COMMAND ${SPNL_PARTITION} ${GRAPH} --k=8 --algo=bogus --quiet
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "bogus algo unexpectedly succeeded")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
