# Multi-process shard smoke: runs N real `ldpr shard-worker`
# processes, merges their wire partials with `ldpr shard-merge`, and
# fails unless the merged result tree is byte-identical (the exact
# `ldpr diff`) to the `--inprocess` reference computed from
# the same spec.  Also checks the failure contract: a torn partial
# fails the strict merge and is tolerated (with loss accounting) under
# --allow_missing.
#
# Usage: cmake -DLDPR_CLI=<path> -DWORK_DIR=<dir> -P shard_smoke.cmake

if(NOT LDPR_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "LDPR_CLI and WORK_DIR must be set")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# One MGA trial, chunked small enough that 4 workers each own several
# chunks of both streams.
set(spec --protocol=OUE --attack=MGA --dataset=zipf --d=32 --n=50000
         --seed=7 --users_per_chunk=4000 --reports_per_chunk=400)

set(partials "")
foreach(worker RANGE 3)
  set(partial "${WORK_DIR}/part${worker}.jsonl")
  execute_process(COMMAND ${LDPR_CLI} shard-worker ${spec}
                          --workers=4 --worker=${worker} --out=${partial}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "shard-worker ${worker} failed (rc=${rc})")
  endif()
  if(NOT EXISTS "${partial}")
    message(FATAL_ERROR "shard-worker ${worker} wrote no partial file")
  endif()
  list(APPEND partials "${partial}")
endforeach()

execute_process(COMMAND ${LDPR_CLI} shard-merge ${spec}
                        --out=${WORK_DIR}/merged ${partials}
                RESULT_VARIABLE rc OUTPUT_VARIABLE merge_out
                ERROR_VARIABLE merge_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "shard-merge failed (rc=${rc})\n${merge_out}\n${merge_err}")
endif()

execute_process(COMMAND ${LDPR_CLI} shard-merge ${spec}
                        --workers=4 --inprocess
                        --out=${WORK_DIR}/reference
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "shard-merge --inprocess failed (rc=${rc})")
endif()

execute_process(COMMAND ${LDPR_CLI} diff
                        ${WORK_DIR}/merged ${WORK_DIR}/reference
                RESULT_VARIABLE rc OUTPUT_VARIABLE diff_out
                ERROR_VARIABLE diff_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "multi-process merge is not byte-identical to the in-process "
          "reference\n${diff_out}\n${diff_err}")
endif()

# Failure contract: tear the first worker's partial mid-payload.
file(READ "${WORK_DIR}/part0.jsonl" part0_bytes)
string(LENGTH "${part0_bytes}" part0_len)
math(EXPR torn_len "${part0_len} / 2")
string(SUBSTRING "${part0_bytes}" 0 ${torn_len} torn_bytes)
file(WRITE "${WORK_DIR}/torn.jsonl" "${torn_bytes}")

list(REMOVE_AT partials 0)
execute_process(COMMAND ${LDPR_CLI} shard-merge ${spec}
                        --out=${WORK_DIR}/torn-strict
                        ${WORK_DIR}/torn.jsonl ${partials}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "strict shard-merge accepted a torn partial")
endif()

execute_process(COMMAND ${LDPR_CLI} shard-merge ${spec} --allow_missing
                        --out=${WORK_DIR}/torn-lenient
                        ${WORK_DIR}/torn.jsonl ${partials}
                RESULT_VARIABLE rc OUTPUT_VARIABLE lenient_out
                ERROR_VARIABLE lenient_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "--allow_missing merge failed on a torn partial (rc=${rc})\n"
          "${lenient_out}\n${lenient_err}")
endif()
string(FIND "${lenient_out}" "1 rejected" has_rejected)
if(has_rejected EQUAL -1)
  message(FATAL_ERROR
          "--allow_missing merge did not report the rejected line\n"
          "${lenient_out}")
endif()

message(STATUS "shard smoke: 4-process merge byte-identical to in-process")
