# Causal-analysis smoke test: run the quickstart example under SCIMPI_CHECK=1
# with an event log (SCIMPI_EVLOG) plus a stats file, then check
#   (a) scimpi-analyze reads the log: a non-empty critical-path breakdown,
#       blamed ranks and the per-rank-pair communication matrix are printed,
#   (b) --json output is well-formed JSON (json_check),
#   (c) --diff of the log against itself reports a zero end-to-end delta,
#   (d) the RunReport (schema v6) carries the critical_path section, so the
#       offline tool and the in-run report stay wired to the same walk,
#   (e) the views are independent: re-running with the profiler and the
#       Chrome trace on as well leaves the event log byte-identical.
#
# Expects: QUICKSTART, ANALYZE, JSON_CHECK, OUT_DIR.
set(evlog_file "${OUT_DIR}/smoke_analyze.evlog")
set(stats_file "${OUT_DIR}/smoke_analyze_stats.json")
set(human_out "${OUT_DIR}/smoke_analyze_human.txt")
set(json_out "${OUT_DIR}/smoke_analyze.json")
file(REMOVE "${evlog_file}" "${stats_file}" "${human_out}" "${json_out}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "SCIMPI_CHECK=1"
          "SCIMPI_EVLOG=${evlog_file}"
          "SCIMPI_STATS_FILE=${stats_file}"
          "${QUICKSTART}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "quickstart under SCIMPI_CHECK=1 + SCIMPI_EVLOG exited with ${rc}")
endif()
foreach(f IN ITEMS "${evlog_file}" "${stats_file}")
  if(NOT EXISTS "${f}")
    message(FATAL_ERROR "expected output file was not written: ${f}")
  endif()
endforeach()

# (a) Human-readable analysis over the log.
execute_process(COMMAND "${ANALYZE}" "${evlog_file}"
                OUTPUT_FILE "${human_out}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scimpi-analyze exited with ${rc} on ${evlog_file}")
endif()
file(READ "${human_out}" human_text)
foreach(needle IN ITEMS "critical path" "top blamed ranks"
                        "communication matrix" "complete")
  string(FIND "${human_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "scimpi-analyze output lacks \"${needle}\":\n${human_text}")
  endif()
endforeach()
string(FIND "${human_text}" "TRUNCATED" pos)
if(NOT pos EQUAL -1)
  message(FATAL_ERROR "a clean run's log must not read as truncated")
endif()

# (b) Machine-readable output is valid JSON.
execute_process(COMMAND "${ANALYZE}" --json "${evlog_file}"
                OUTPUT_FILE "${json_out}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scimpi-analyze --json exited with ${rc}")
endif()
execute_process(COMMAND "${JSON_CHECK}" "${json_out}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scimpi-analyze --json output is not valid JSON")
endif()

# (c) A log diffed against itself is a null experiment.
execute_process(COMMAND "${ANALYZE}" --diff "${evlog_file}" "${evlog_file}"
                OUTPUT_VARIABLE diff_text RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scimpi-analyze --diff exited with ${rc}")
endif()
string(FIND "${diff_text}" "end-to-end delta: +0 ns" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "self-diff did not report a zero delta:\n${diff_text}")
endif()

# (d) The in-run report carries the same walk (RunReport schema v6).
file(READ "${stats_file}" stats_text)
foreach(needle IN ITEMS "\"schema_version\": 6" "\"critical_path\"")
  string(FIND "${stats_text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "stats report lacks ${needle}: ${stats_file}")
  endif()
endforeach()

# (e) All views at once: the spans that feed the graph also feed the
# profiler and the trace, and neither may change what the graph records.
set(all_evlog "${OUT_DIR}/smoke_analyze_all.evlog")
set(all_trace "${OUT_DIR}/smoke_analyze_all.trace.json")
file(REMOVE "${all_evlog}" "${all_trace}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
          "SCIMPI_CHECK=1"
          "SCIMPI_PROFILE=1"
          "SCIMPI_EVLOG=${all_evlog}"
          "SCIMPI_TRACE_FILE=${all_trace}"
          "${QUICKSTART}"
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "quickstart with every view on exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${evlog_file}" "${all_evlog}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "event log changed when the profiler and the trace were "
                      "also on: ${evlog_file} vs ${all_evlog}")
endif()
execute_process(COMMAND "${JSON_CHECK}" "${all_trace}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace written alongside the event log is not valid JSON")
endif()
