# Drives the validate_adversary_telemetry ctest: a one-run
# `cobalt-fuzz --validate` campaign must write both accepted telemetry
# files, and tools/trace_lint.py must accept the trace. Variables
# FUZZ_BIN, LINT, PYTHON and OUT_DIR arrive from add_test.

set(TRACE ${OUT_DIR}/validate_trace.json)
set(METRICS ${OUT_DIR}/validate_metrics.json)
file(REMOVE ${TRACE} ${METRICS})

execute_process(
  COMMAND ${FUZZ_BIN} --validate --suite=buggy --seed 1 --runs 1
          --no-minimize --trace-out=${TRACE} --metrics-out=${METRICS}
  RESULT_VARIABLE RC
  OUTPUT_QUIET ERROR_QUIET)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "cobalt-fuzz --validate exited ${RC}")
endif()

foreach(F ${TRACE} ${METRICS})
  if(NOT EXISTS ${F})
    message(FATAL_ERROR "cobalt-fuzz --validate did not write ${F}")
  endif()
endforeach()

execute_process(COMMAND ${PYTHON} ${LINT} ${TRACE} RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "trace_lint.py rejected the trace (${RC})")
endif()

execute_process(
  COMMAND ${PYTHON} -c "import json,sys; json.load(open(sys.argv[1]))"
          ${METRICS}
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "metrics JSON does not parse (${RC})")
endif()
