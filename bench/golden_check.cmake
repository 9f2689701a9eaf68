# Golden check for one bench: run it in a fresh working directory and
# byte-compare every CSV it writes against the checked-in copy in results/.
#
#   cmake -DBENCH=<binary> -DWORKDIR=<dir> -DRESULTS=<repo>/results \
#         [-DARGS=<arg;arg...>] -P bench/golden_check.cmake
#
# ARGS, if given, is the bench's argument list (e.g. --quick).
# The bench's stdout is kept in <dir>/stdout.txt for a failed comparison.

foreach(var BENCH WORKDIR RESULTS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_check.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" ${ARGS}
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_FILE "${WORKDIR}/stdout.txt"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

file(GLOB csvs RELATIVE "${WORKDIR}" "${WORKDIR}/*.csv")
if(NOT csvs)
  message(FATAL_ERROR "${BENCH} wrote no CSV")
endif()
set(mismatched "")
foreach(csv IN LISTS csvs)
  if(NOT EXISTS "${RESULTS}/${csv}")
    message(FATAL_ERROR "${csv} has no checked-in copy in ${RESULTS}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORKDIR}/${csv}" "${RESULTS}/${csv}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    list(APPEND mismatched "${csv}")
  endif()
endforeach()
if(mismatched)
  message(FATAL_ERROR "differs from results/: ${mismatched} (new copies in ${WORKDIR})")
endif()
message(STATUS "matches results/: ${csvs}")
