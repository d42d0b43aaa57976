# End-to-end liveness probes for the cross-TU lint rules: plant one
# seeded violation per rule in a scratch tree, run the real ldpr_lint
# binary, and require exit 1 with a finding naming the file, the line,
# and the rule id.
#
# Usage: cmake -DLDPR_LINT=<path> -DRULE=<R6|R8>
#        -DWORK_DIR=<dir> -P lint_violation.cmake

if(NOT LDPR_LINT OR NOT RULE OR NOT WORK_DIR)
  message(FATAL_ERROR "LDPR_LINT, RULE, and WORK_DIR must be set")
endif()

set(tree "${WORK_DIR}/${RULE}")
file(REMOVE_RECURSE "${tree}")
file(MAKE_DIRECTORY "${tree}/src")

# Every scratch tree carries the layer contract so R6 is armed.  It
# lists only the layers the tree has files in: a line naming a missing
# src/ subdirectory is itself an R6 finding.
if(RULE STREQUAL "R6")
  # util (layer 0) reaches up into ldp (layer 1).
  file(WRITE "${tree}/ci/lint_layers.txt" "util\nldp\n")
  file(WRITE "${tree}/src/ldp/b.h"
       "#ifndef LDPR_LDP_B_H_\n#define LDPR_LDP_B_H_\n#endif\n")
  file(WRITE "${tree}/src/util/a.cc" "#include \"ldp/b.h\"\nint x;\n")
  set(expect "src/util/a.cc:1: [R6]")
elseif(RULE STREQUAL "R8")
  file(WRITE "${tree}/ci/lint_layers.txt" "util\n")
  file(WRITE "${tree}/src/util/a.cc" "void F() {\n  Rng rng(123);\n}\n")
  set(expect "src/util/a.cc:2: [R8]")
else()
  message(FATAL_ERROR "unknown RULE '${RULE}'")
endif()

execute_process(COMMAND ${LDPR_LINT} --repo=${tree} --allowlist= src
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
          "seeded ${RULE} violation must exit 1 (rc=${rc})\n${out}\n${err}")
endif()
string(FIND "${out}" "${expect}" found)
if(found EQUAL -1)
  message(FATAL_ERROR
          "seeded ${RULE} violation not reported as '${expect}'\n${out}")
endif()
message(STATUS "lint violation ${RULE}: caught as '${expect}'")
