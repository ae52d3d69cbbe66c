# `ctest -L paper`: regenerate every paper CSV and compare it byte
# for byte with the committed copy in bench_out/.
#
#   cmake -DBENCH_DIR=<dir of the figure binaries>
#         -DBINARIES="fig01_two_strategies;..."
#         -DCOMMITTED=<source>/bench_out
#         -DOUT=<fresh directory under the build tree>
#         -P paper_gate.cmake
#
# Each binary runs with AHQ_BENCH_OUT=OUT (so nothing is written to
# the source tree). The gate fails, naming the file, when a fresh CSV
# differs from the committed one, when a committed CSV was not
# produced, or when a produced CSV is not committed. There is no
# threshold: a figure that moves is committed in the same change,
# with its cause in CHANGES.md (EXPERIMENTS.md, "Regenerating and
# checking the figures").

cmake_minimum_required(VERSION 3.16)

foreach(var BENCH_DIR BINARIES COMMITTED OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "paper_gate.cmake: ${var} not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
set(ENV{AHQ_BENCH_OUT} "${OUT}")
unset(ENV{AHQ_TRACE})
unset(ENV{AHQ_METRICS})

foreach(bin IN LISTS BINARIES)
    execute_process(COMMAND "${BENCH_DIR}/${bin}"
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "paper: ${bin} exited ${rc}\n${err}")
    endif()
endforeach()

file(GLOB committed RELATIVE "${COMMITTED}" "${COMMITTED}/*.csv")
file(GLOB fresh RELATIVE "${OUT}" "${OUT}/*.csv")
set(failures "")
foreach(csv IN LISTS committed)
    if(NOT csv IN_LIST fresh)
        string(APPEND failures
            "\n  ${csv}: committed, but no figure binary wrote it")
        continue()
    endif()
    file(SHA256 "${COMMITTED}/${csv}" old_hash)
    file(SHA256 "${OUT}/${csv}" new_hash)
    if(old_hash STREQUAL new_hash)
        continue()
    endif()
    # Name the first differing line so the cause is one look away.
    file(STRINGS "${COMMITTED}/${csv}" old_lines)
    file(STRINGS "${OUT}/${csv}" new_lines)
    list(LENGTH old_lines n_old)
    list(LENGTH new_lines n_new)
    set(line 0)
    while(line LESS n_old AND line LESS n_new)
        list(GET old_lines ${line} a)
        list(GET new_lines ${line} b)
        if(NOT a STREQUAL b)
            break()
        endif()
        math(EXPR line "${line} + 1")
    endwhile()
    math(EXPR shown "${line} + 1")
    set(a "<end of file>")
    set(b "<end of file>")
    if(line LESS n_old)
        list(GET old_lines ${line} a)
    endif()
    if(line LESS n_new)
        list(GET new_lines ${line} b)
    endif()
    string(APPEND failures "\n  ${csv}: differs at line ${shown}"
        "\n    committed: ${a}\n    now:       ${b}")
endforeach()
foreach(csv IN LISTS fresh)
    if(NOT csv IN_LIST committed)
        string(APPEND failures
            "\n  ${csv}: written by a figure binary, not committed")
    endif()
endforeach()

if(NOT failures STREQUAL "")
    message(FATAL_ERROR
        "paper: fresh CSVs in ${OUT} do not match ${COMMITTED}:"
        "${failures}\nIf the change is intended, copy the fresh file "
        "into bench_out/ and state its cause in CHANGES.md.")
endif()
list(LENGTH committed n)
message(STATUS "paper: all ${n} CSVs byte-identical to ${COMMITTED}")
