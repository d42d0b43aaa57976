# Runs `ldpr bench --scenario ${SCENARIO} --out` twice —
# LDPR_THREADS=1 and LDPR_THREADS=3 — at SCALE (default 0.02, a tiny
# scale) with TRIALS trials per cell (default 2) and fails unless the
# two runs agree:
#
#   - The result trees must pass the exact `ldpr diff`, which joins
#     rows by (scenario, table, row) and exempts the timing columns
#     each scenario's manifest declares — the only columns that may
#     legitimately differ.
#   - Unless HAS_TIMING_COLUMNS: the results.jsonl files must also
#     be byte-identical and the console tables equal (the banner line
#     reporting the thread count is stripped; scenarios with timing
#     columns skip both, since wall clocks differ between any two
#     runs).
#
# Usage: cmake -DLDPR_CLI=<path> -DSCENARIO=<id> -DWORK_DIR=<dir>
#        [-DHAS_TIMING_COLUMNS=1] [-DSCALE=<s>] [-DTRIALS=<t>]
#        -P scenario_determinism.cmake

if(NOT LDPR_CLI OR NOT SCENARIO OR NOT WORK_DIR)
  message(FATAL_ERROR "LDPR_CLI, SCENARIO, and WORK_DIR must be set")
endif()

if(NOT SCALE)
  set(SCALE "0.02")
endif()
if(NOT TRIALS)
  set(TRIALS "2")
endif()

set(out_serial "${WORK_DIR}/${SCENARIO}-t1")
set(out_parallel "${WORK_DIR}/${SCENARIO}-t3")
file(REMOVE_RECURSE "${out_serial}" "${out_parallel}")

set(ENV{LDPR_THREADS} "1")
execute_process(COMMAND ${LDPR_CLI} bench --scenario=${SCENARIO}
                        --scale=${SCALE} --trials=${TRIALS} --out=${out_serial}
                OUTPUT_VARIABLE console_serial RESULT_VARIABLE rc_serial)
if(NOT rc_serial EQUAL 0)
  message(FATAL_ERROR
          "ldpr bench --scenario=${SCENARIO} failed at LDPR_THREADS=1 "
          "(rc=${rc_serial})")
endif()

set(ENV{LDPR_THREADS} "3")
execute_process(COMMAND ${LDPR_CLI} bench --scenario=${SCENARIO}
                        --scale=${SCALE} --trials=${TRIALS} --out=${out_parallel}
                OUTPUT_VARIABLE console_parallel RESULT_VARIABLE rc_parallel)
if(NOT rc_parallel EQUAL 0)
  message(FATAL_ERROR
          "ldpr bench --scenario=${SCENARIO} failed at LDPR_THREADS=3 "
          "(rc=${rc_parallel})")
endif()

# The comparator view: row-joined, timing columns exempt.
execute_process(COMMAND ${LDPR_CLI} diff ${out_serial} ${out_parallel}
                OUTPUT_VARIABLE diff_out ERROR_VARIABLE diff_err
                RESULT_VARIABLE rc_diff)
if(NOT rc_diff EQUAL 0)
  message(FATAL_ERROR
          "${SCENARIO}: ldpr diff failed between LDPR_THREADS=1 "
          "and 3 (rc=${rc_diff})\n${diff_out}\n${diff_err}")
endif()

if(NOT HAS_TIMING_COLUMNS)
  # Console tables must match modulo the threads banner line (and the
  # printed --out paths, which name different directories).
  string(REGEX REPLACE "[^\n]*threads=[^\n]*\n" "" console_serial
         "${console_serial}")
  string(REGEX REPLACE "[^\n]*threads=[^\n]*\n" "" console_parallel
         "${console_parallel}")
  string(REGEX REPLACE "wrote [^\n]*\n" "" console_serial
         "${console_serial}")
  string(REGEX REPLACE "wrote [^\n]*\n" "" console_parallel
         "${console_parallel}")
  if(NOT console_serial STREQUAL console_parallel)
    message(FATAL_ERROR
            "${SCENARIO}: console output differs between LDPR_THREADS=1 "
            "and 3\n--- threads=1 ---\n${console_serial}\n"
            "--- threads=3 ---\n${console_parallel}")
  endif()

  # The result file must be byte-identical.
  set(serial_path "${out_serial}/${SCENARIO}/results.jsonl")
  set(parallel_path "${out_parallel}/${SCENARIO}/results.jsonl")
  if(NOT EXISTS "${serial_path}" OR NOT EXISTS "${parallel_path}")
    message(FATAL_ERROR "${SCENARIO}: missing results.jsonl under --out")
  endif()
  file(READ "${serial_path}" bytes_serial)
  file(READ "${parallel_path}" bytes_parallel)
  if(NOT bytes_serial STREQUAL bytes_parallel)
    message(FATAL_ERROR
            "${SCENARIO}: results.jsonl differs between LDPR_THREADS=1 "
            "and 3\n--- threads=1 ---\n${bytes_serial}\n"
            "--- threads=3 ---\n${bytes_parallel}")
  endif()
endif()

# The manifests must at least exist and name the scenario.
if(NOT EXISTS "${out_serial}/${SCENARIO}/manifest.json")
  message(FATAL_ERROR "${SCENARIO}: manifest.json missing under --out")
endif()
if(NOT EXISTS "${out_serial}/manifest.json")
  message(FATAL_ERROR "${SCENARIO}: top-level manifest.json missing")
endif()

message(STATUS
        "${SCENARIO}: deterministic at LDPR_THREADS=1 vs 3")
