# Regenerates one paper artifact's CSV with the flags its golden file
# was made with, at 4 threads and at 1, and compares each with the
# golden byte for byte.  The golden_* ctest entries
# (bench/CMakeLists.txt) run it from the source directory:
#
#   cmake -DBIN=<artifact binary> -DWORKLOADS=<spec,spec,...>
#         -DOUT=<csv to write> -DGOLDEN=<committed csv>
#         -P golden_csv.cmake
foreach(threads 4 1)
  execute_process(
    COMMAND ${BIN} --workload ${WORKLOADS} --refs 200000
            --threads ${threads} --csv ${OUT}
    RESULT_VARIABLE status
    OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} --threads ${threads} exited with "
                        "status ${status}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
      "${OUT} (--threads ${threads}) differs from ${GOLDEN}")
  endif()
endforeach()
