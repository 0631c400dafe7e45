# A bench that cannot write its BENCH_*.json record must not report that it
# did: run BENCH in a fresh vpm-test-* scratch directory whose RECORD file
# is a symlink to /dev/full (every write fails with ENOSPC, at the latest
# when fclose flushes) and require a nonzero exit and the "failed to write"
# message.
#
#   cmake -DBENCH=<bench binary> -DRECORD=<BENCH_name.json> \
#         -DFILTER=<benchmark regex> -P bench_record_write_fails.cmake
if(NOT BENCH OR NOT RECORD OR NOT FILTER)
  message(FATAL_ERROR "usage: cmake -DBENCH=<binary> -DRECORD=<file> "
                      "-DFILTER=<regex> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

set(tmp "/tmp")
if(DEFINED ENV{TMPDIR})
  set(tmp "$ENV{TMPDIR}")
endif()
string(RANDOM LENGTH 12 suffix)
set(dir "${tmp}/vpm-test-bench-record-${suffix}")
file(MAKE_DIRECTORY "${dir}")
file(CREATE_LINK /dev/full "${dir}/${RECORD}" SYMBOLIC)

execute_process(COMMAND "${BENCH}" "--benchmark_filter=${FILTER}"
                WORKING_DIRECTORY "${dir}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(REMOVE_RECURSE "${dir}")

if(rc STREQUAL "0")
  message(FATAL_ERROR "${BENCH} exited 0 with ${RECORD} on /dev/full:\n"
                      "${out}${err}")
endif()
if(NOT err MATCHES "failed to write ${RECORD}")
  message(FATAL_ERROR "${BENCH} exited '${rc}' without reporting the failed "
                      "write of ${RECORD}:\n${out}${err}")
endif()
