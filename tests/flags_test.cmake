# Runs a binary once per malformed numeric flag and expects each to be
# refused with a named error (`bad --NAME value 'VALUE'`), the binary's
# usage text and exit code 2 — never an abort (a wrapped -1 sized a thread
# pool or ring at SIZE_MAX) and never a silent loose read (`4x` read as 4,
# `abc` read as 0, `-1` wrapped to UINT32_MAX).
#
#   cmake -DBINARY=path/to/slfe_server -DFLAGS=--workers=-1,--workers=4x \
#         -P flags_test.cmake
#
# FLAGS is a comma-separated list of `--NAME=VALUE` arguments.

if(NOT BINARY OR NOT FLAGS)
  message(FATAL_ERROR "pass -DBINARY=<binary> -DFLAGS=<--a=x,--b=y,...>")
endif()

get_filename_component(name "${BINARY}" NAME_WE)
string(REPLACE "," ";" cases "${FLAGS}")

foreach(flag IN LISTS cases)
  string(FIND "${flag}" "=" eq)
  string(SUBSTRING "${flag}" 0 ${eq} flag_name)
  math(EXPR value_at "${eq} + 1")
  string(SUBSTRING "${flag}" ${value_at} -1 flag_value)
  set(want "bad ${flag_name} value '${flag_value}'")
  execute_process(COMMAND ${BINARY} ${flag}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 30)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${flag}: exit ${rc}, want 2\n${out}\n${err}")
  endif()
  string(FIND "${err}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag}: stderr lacks \"${want}\"\n${err}")
  endif()
  string(FIND "${err}" "usage: ${name}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${flag}: no usage text\n${err}")
  endif()
  message(STATUS "${flag}: refused (exit 2)")
endforeach()
