# Result identity against a committed reference tree: a fresh run of
# PROGRAM with ARGS (space-separated) and `--out <fresh tree>` must
# pass the exact `ldpr diff BASELINE`, so a change that moves any
# result (an RNG stream, a law, an estimator) fails here.  Such a
# change regenerates the reference tree in the same commit (for
# ci/baseline, the recipe in ci/baseline/README.md); the check itself
# never loosens to --tolerance.
#
# Usage: cmake -DPROGRAM=<path> -DARGS=<args> -DLDPR_CLI=<path>
#        -DBASELINE=<reference tree> -DWORK_DIR=<dir>
#        -P baseline_exact.cmake

if(NOT PROGRAM OR NOT ARGS OR NOT LDPR_CLI OR NOT BASELINE OR NOT WORK_DIR)
  message(FATAL_ERROR "PROGRAM, ARGS, LDPR_CLI, BASELINE, and WORK_DIR "
                      "must be set")
endif()

set(tree "${WORK_DIR}/fresh")
file(REMOVE_RECURSE "${tree}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args} --out ${tree}
                OUTPUT_QUIET RESULT_VARIABLE rc_bench)
if(NOT rc_bench EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} failed (rc=${rc_bench})")
endif()

execute_process(COMMAND ${LDPR_CLI} diff ${BASELINE} ${tree}
                OUTPUT_VARIABLE diff_out ERROR_VARIABLE diff_err
                RESULT_VARIABLE rc_exact)
if(NOT rc_exact EQUAL 0)
  message(FATAL_ERROR
          "fresh tree differs from ${BASELINE} under ldpr diff "
          "(rc=${rc_exact})\n${diff_out}\n${diff_err}")
endif()
message(STATUS "${BASELINE}: fresh tree is identical under ldpr diff")
