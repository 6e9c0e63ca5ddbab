# A golden ctest: runs one program, which must exit 0 and whose stdout (cut
# before the text CUT, when CUT is set) must equal the file GOLDEN byte for
# byte. The stdout it checked is written to ACTUAL before any comparison, so
# after a ctest run
#   cp build/golden/*.txt tests/golden/
# regenerates every golden file (name each changed file and the reason in
# CHANGES.md).
#
#   cmake -DGOLDEN=<file> -DACTUAL=<file> [-DCUT=<text>]
#         -P check_golden.cmake -- <program> [<arg>...]
cmake_minimum_required(VERSION 3.16)

set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "check_golden: no program after --")
endif()
string(JOIN " " shown ${command})

execute_process(COMMAND ${command} OUTPUT_VARIABLE stdout RESULT_VARIABLE rc)
if(DEFINED CUT)
  string(FIND "${stdout}" "${CUT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "check_golden: '${CUT}' is not in the stdout of ${shown}")
  endif()
  string(SUBSTRING "${stdout}" 0 ${at} stdout)
endif()
file(WRITE "${ACTUAL}" "${stdout}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_golden: ${shown} exited ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT stdout STREQUAL expected)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "check_golden: the stdout of ${shown} differs from "
                      "${GOLDEN} (it is in ${ACTUAL})")
endif()
