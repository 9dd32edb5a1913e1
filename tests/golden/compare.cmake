# Behaviour lock: runs one command and compares its stdout (and, with
# METRICS=ON, the metrics dump it writes through --metrics=<file>) byte for
# byte with the checked-in goldens.
#
#   cmake -DEXE=<exe> -DNAME=<lock> -DARGS="<flags>" -DEXPECT_EXIT=<n>
#         [-DMETRICS=ON] -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir> -P compare.cmake
#
# The produced <lock>.out (and <lock>.metrics) stay in OUT_DIR, so a failing
# lock can be diffed and, when the behaviour change is deliberate, copied
# over the goldens (DESIGN.md §10).
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(kinds out)
set(out "${OUT_DIR}/${NAME}.out")
set(metrics "${OUT_DIR}/${NAME}.metrics")
file(REMOVE "${out}" "${metrics}")
if(METRICS)
  list(APPEND args "--metrics=${metrics}")
  list(APPEND kinds metrics)
endif()
execute_process(
  COMMAND "${EXE}" ${args}
  OUTPUT_FILE "${out}"
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${NAME}: ${EXE} exited with '${rc}', expected ${EXPECT_EXIT}")
endif()
set(mismatched "")
foreach(kind ${kinds})
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${GOLDEN_DIR}/${NAME}.${kind}" "${OUT_DIR}/${NAME}.${kind}"
    RESULT_VARIABLE differs)
  if(differs)
    list(APPEND mismatched "${NAME}.${kind}")
  endif()
endforeach()
if(mismatched)
  message(FATAL_ERROR
    "behaviour lock ${NAME}: ${mismatched} differ from ${GOLDEN_DIR}; "
    "produced files are in ${OUT_DIR}")
endif()
