# Runs slfe_server with malformed numeric flags and expects each to be
# refused with a named error, the usage text and exit code 2 — never an
# abort (a wrapped -1 sized a thread pool or ring at SIZE_MAX) and never
# a silent truncation (`4x` read as 4).
#
#   cmake -DSERVER=path/to/slfe_server -P slfe_server_flags_test.cmake

if(NOT SERVER)
  message(FATAL_ERROR "pass -DSERVER=<slfe_server binary>")
endif()

set(cases
  "--workers=-1|bad --workers value '-1'"
  "--trace-ring=-1|bad --trace-ring value '-1'"
  "--queue-cap=-1|bad --queue-cap value '-1'"
  "--workers=4x|bad --workers value '4x'")

foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 flag)
  list(GET parts 1 want)
  execute_process(COMMAND ${SERVER} ${flag}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 30)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${flag}: exit ${rc}, want 2\n${err}")
  endif()
  string(FIND "${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag}: stderr lacks \"${want}\"\n${err}")
  endif()
  string(FIND "${err}" "usage: slfe_server" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag}: no usage text\n${err}")
  endif()
  message(STATUS "${flag}: refused (exit 2)")
endforeach()
