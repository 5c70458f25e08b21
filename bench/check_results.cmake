# Reruns the deterministic modeled-table benches into OUT and compares every
# CSV they write byte for byte with the committed copy under RESULTS, so a
# change to a table's rows or columns cannot leave results/ stale.
#
#   cmake -DBENCH_DIR=<dir of the bench binaries> -DRESULTS=<repo>/results
#         -DOUT=<scratch dir> -P check_results.cmake
set(tables table2_bytes_per_flup table_memory_footprint speedup_summary
           fig2_d2q9 fig3_d3q19)
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
set(stale "")
foreach(t IN LISTS tables)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env MLBM_RESULTS_DIR=${OUT}
                          ${BENCH_DIR}/${t}
                  OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${t} failed (${rc})")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${OUT}/${t}.csv ${RESULTS}/${t}.csv
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    string(APPEND stale " ${t}.csv")
  endif()
endforeach()
if(stale)
  message(FATAL_ERROR "results/ is stale; regenerate:${stale}")
endif()
message("results/: ${tables} match")
