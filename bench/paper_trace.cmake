# `ctest -L paper`: the figure binaries honour AHQ_TRACE, simulate
# each scenario once, and trace the same bytes at any AHQ_JOBS.
#
#   cmake -DBENCH_DIR=<dir of the figure binaries>
#         -DRUNS="fig03_resource_equivalence=196;fig12_eight_apps=2;..."
#         -DOUT=<fresh directory under the build tree>
#         -P paper_trace.cmake
#
# Each listed binary runs at AHQ_JOBS=1 and at AHQ_JOBS=4 with
# AHQ_TRACE set. The two traces and the two sets of CSVs must be
# byte-identical, and the trace must hold exactly the listed number
# of scenario_start events (one per simulated scenario). OUT is
# removed again when every check passes.

cmake_minimum_required(VERSION 3.16)

foreach(var BENCH_DIR RUNS OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "paper_trace.cmake: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
unset(ENV{AHQ_METRICS})
set(failures "")
foreach(run IN LISTS RUNS)
    string(REPLACE "=" ";" run "${run}")
    list(GET run 0 bin)
    list(GET run 1 expected)
    foreach(jobs 1 4)
        set(dir "${OUT}/jobs${jobs}/${bin}")
        file(MAKE_DIRECTORY "${dir}")
        set(ENV{AHQ_JOBS} ${jobs})
        set(ENV{AHQ_BENCH_OUT} "${dir}")
        set(ENV{AHQ_TRACE} "${dir}/trace.jsonl")
        execute_process(COMMAND "${BENCH_DIR}/${bin}"
            RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "paper: ${bin} exited ${rc} at AHQ_JOBS=${jobs}\n${err}")
        endif()
    endforeach()

    set(one "${OUT}/jobs1/${bin}")
    set(four "${OUT}/jobs4/${bin}")
    if(NOT EXISTS "${one}/trace.jsonl")
        string(APPEND failures "\n  ${bin}: wrote no trace")
        continue()
    endif()
    file(STRINGS "${one}/trace.jsonl" starts
        REGEX "\"type\":\"scenario_start\"")
    list(LENGTH starts n)
    if(NOT n EQUAL expected)
        string(APPEND failures "\n  ${bin}: ${n} scenario_start "
            "events, expected ${expected}")
    endif()
    file(GLOB outputs RELATIVE "${one}" "${one}/*")
    foreach(f IN LISTS outputs)
        file(SHA256 "${one}/${f}" a)
        set(b "")
        if(EXISTS "${four}/${f}")
            file(SHA256 "${four}/${f}" b)
        endif()
        if(NOT a STREQUAL b)
            string(APPEND failures "\n  ${bin}: ${f} differs between "
                "AHQ_JOBS=1 and AHQ_JOBS=4")
        endif()
    endforeach()
endforeach()

if(NOT failures STREQUAL "")
    message(FATAL_ERROR "paper: traced figure runs (outputs kept in "
        "${OUT}):${failures}")
endif()
file(REMOVE_RECURSE "${OUT}")
message(STATUS "paper: traces and CSVs identical at AHQ_JOBS=1 and 4")
