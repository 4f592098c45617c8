# Regenerates one paper artifact's CSV with the flags its golden file
# was made with and compares the two byte for byte.  The ctest entries
# golden_fig7 and golden_table2 (bench/CMakeLists.txt) run it:
#
#   cmake -DBIN=<figure binary> -DOUT=<csv to write>
#         -DGOLDEN=<committed csv> -P golden_csv.cmake
execute_process(
  COMMAND ${BIN} --workload mcf,gcc --refs 200000 --threads 4
          --csv ${OUT}
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with status ${status}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
