# `ldpr bench` rejects bad input instead of wrapping it or falling
# back to a default: an explicit --trials outside [1, 10000] or --scale
# outside (0, 1] exits 1, a malformed LDPR_THREADS aborts naming the
# variable, and a scenario id given twice under --out exits 1 rather
# than letting the second run truncate the first one's files.
#
# Usage: cmake -DLDPR_CLI=<path> -DWORK_DIR=<dir>
#        -P bench_flag_errors.cmake

if(NOT LDPR_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "LDPR_CLI and WORK_DIR must be set")
endif()

# Runs `ldpr bench` with the given arguments and requires exit code
# `want` (a number, or NONZERO for any failure, an abort included) and
# `expect` on stderr.
function(expect_rejected want expect)
  execute_process(COMMAND ${LDPR_CLI} bench ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  list(JOIN ARGN " " args)
  if(want STREQUAL "NONZERO")
    if(rc EQUAL 0)
      message(FATAL_ERROR "ldpr bench ${args}: accepted (exit 0)")
    endif()
  elseif(NOT rc EQUAL want)
    message(FATAL_ERROR
            "ldpr bench ${args}: exit ${rc}, want ${want}\n${err}")
  endif()
  string(FIND "${err}" "${expect}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR
            "ldpr bench ${args}: stderr does not name '${expect}'\n${err}")
  endif()
endfunction()

foreach(bad --trials=-1 --trials=0 --trials=10001)
  expect_rejected(1 "trials" --scenario table1 ${bad})
endforeach()
foreach(bad --scale=0 --scale=-0.5 --scale=1.5 --scale=abc)
  expect_rejected(1 "--scale" --scenario table1 ${bad})
endforeach()

set(ENV{LDPR_THREADS} "four")
expect_rejected(NONZERO "LDPR_THREADS must be an integer, got 'four'"
                --scenario table1 --scale=0.01 --trials=1)
unset(ENV{LDPR_THREADS})

file(REMOVE_RECURSE "${WORK_DIR}")
expect_rejected(1 "already written" --scenario table1,table1 --scale=0.01
                --trials=1 --out=${WORK_DIR}/twice)
message(STATUS "ldpr bench: every bad flag, LDPR_THREADS and repeated id "
               "rejected")
