# Result identity against the committed reference tree: a fresh
# CI-scale `ldpr_bench --scenario all` run must pass the exact
# `ldpr diff ci/baseline`, so a change that moves any result (an RNG
# stream, a law, an estimator) fails here.  Such a change regenerates
# ci/baseline (recipe in ci/baseline/README.md) in the same commit;
# the check itself never loosens to --tolerance.
#
# Usage: cmake -DLDPR_BENCH=<path> -DLDPR_CLI=<path>
#        -DBASELINE=<ci/baseline dir> -DWORK_DIR=<dir>
#        -P baseline_exact.cmake

if(NOT LDPR_BENCH OR NOT LDPR_CLI OR NOT BASELINE OR NOT WORK_DIR)
  message(FATAL_ERROR "LDPR_BENCH, LDPR_CLI, BASELINE, and WORK_DIR must "
                      "be set")
endif()

set(tree "${WORK_DIR}/fresh")
file(REMOVE_RECURSE "${tree}")
# The knobs ci/baseline was generated with (ci/baseline/README.md).
execute_process(COMMAND ${LDPR_BENCH} --scenario=all --scale=0.01 --trials=2
                        --out=${tree}
                OUTPUT_QUIET RESULT_VARIABLE rc_bench)
if(NOT rc_bench EQUAL 0)
  message(FATAL_ERROR "ldpr_bench --scenario all failed (rc=${rc_bench})")
endif()

execute_process(COMMAND ${LDPR_CLI} diff ${BASELINE} ${tree}
                OUTPUT_VARIABLE diff_out ERROR_VARIABLE diff_err
                RESULT_VARIABLE rc_exact)
if(NOT rc_exact EQUAL 0)
  message(FATAL_ERROR
          "fresh tree differs from ${BASELINE} under ldpr diff "
          "(rc=${rc_exact})\n${diff_out}\n${diff_err}")
endif()
message(STATUS "ci/baseline: fresh tree is identical under ldpr diff")
