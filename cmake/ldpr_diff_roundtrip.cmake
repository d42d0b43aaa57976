# The `ldpr diff` round-trip contract:
#
#   1. two same-seed `ldpr bench --scenario all --out` runs at
#      different LDPR_THREADS pass the exact `ldpr diff`;
#   2. perturbing one metric makes the exact diff (and a tight
#      `--tolerance`) fail with a non-zero exit and a drift report
#      naming the (scenario, table, row, column).
#
# Usage: cmake -DLDPR_CLI=<path> -DWORK_DIR=<dir>
#        -P ldpr_diff_roundtrip.cmake

if(NOT LDPR_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "LDPR_CLI and WORK_DIR must be set")
endif()

set(out_a "${WORK_DIR}/all-t1")
set(out_b "${WORK_DIR}/all-t2")
file(REMOVE_RECURSE "${out_a}" "${out_b}" "${WORK_DIR}/perturbed")

set(ENV{LDPR_THREADS} "1")
execute_process(COMMAND ${LDPR_CLI} bench --scenario=all --scale=0.005
                        --trials=1 --out=${out_a}
                OUTPUT_QUIET RESULT_VARIABLE rc_a)
if(NOT rc_a EQUAL 0)
  message(FATAL_ERROR "ldpr bench --scenario all failed at LDPR_THREADS=1")
endif()

set(ENV{LDPR_THREADS} "2")
execute_process(COMMAND ${LDPR_CLI} bench --scenario=all --scale=0.005
                        --trials=1 --out=${out_b}
                OUTPUT_QUIET RESULT_VARIABLE rc_b)
if(NOT rc_b EQUAL 0)
  message(FATAL_ERROR "ldpr bench --scenario all failed at LDPR_THREADS=2")
endif()

# 1. Same seed, different thread counts: trees must agree exactly.
execute_process(COMMAND ${LDPR_CLI} diff ${out_a} ${out_b}
                OUTPUT_VARIABLE diff_out ERROR_VARIABLE diff_err
                RESULT_VARIABLE rc_exact)
if(NOT rc_exact EQUAL 0)
  message(FATAL_ERROR
          "ldpr diff rejected two same-seed runs "
          "(rc=${rc_exact})\n${diff_out}\n${diff_err}")
endif()

# 2. Perturb one metric; the comparator must fail and name the cell.
file(COPY "${out_b}" DESTINATION "${WORK_DIR}/perturbed")
set(out_c "${WORK_DIR}/perturbed/all-t2")
file(READ "${out_c}/table1/results.jsonl" rows)
string(REGEX REPLACE "\"Before-Rec\":[0-9.eE+-]+" "\"Before-Rec\":123.456"
       perturbed "${rows}")
if(perturbed STREQUAL rows)
  message(FATAL_ERROR "perturbation did not change table1/results.jsonl")
endif()
file(WRITE "${out_c}/table1/results.jsonl" "${perturbed}")

execute_process(COMMAND ${LDPR_CLI} diff ${out_a} ${out_c}
                OUTPUT_VARIABLE diff_out ERROR_VARIABLE diff_err
                RESULT_VARIABLE rc_perturbed)
if(rc_perturbed EQUAL 0)
  message(FATAL_ERROR "ldpr diff accepted a perturbed tree")
endif()
foreach(needle "value-drift" "table1" "Before-Rec" "GRR")
  if(NOT diff_out MATCHES "${needle}")
    message(FATAL_ERROR
            "perturbed drift report does not name '${needle}':\n${diff_out}")
  endif()
endforeach()

execute_process(COMMAND ${LDPR_CLI} diff --tolerance=1e-6 ${out_a} ${out_c}
                OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc_tolerance)
if(rc_tolerance EQUAL 0)
  message(FATAL_ERROR "ldpr diff --tolerance=1e-6 accepted a perturbed tree")
endif()

message(STATUS "ldpr diff round-trip: exact across thread counts, "
               "perturbation detected")
