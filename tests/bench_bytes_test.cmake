# Runs one experiment binary in a fresh directory and requires its
# deterministic output to match the checked-in copies byte for byte:
# its stdout against STDOUT_GOLDEN, and the CSVs it writes under
# bench_csv/ against the same-named files in CSV_DIR. CSVS is the
# comma-separated list of names (without .csv) the binary must write,
# empty when it writes none; a missing or an unexpected CSV fails like
# a changed one. Expects BIN, WORK, STDOUT_GOLDEN, CSV_DIR and CSVS to
# be defined.

cmake_minimum_required(VERSION 3.16)

# Reports the first line where two files differ (or that they differ
# only in length) into `out`, to make a failure readable.
function(first_difference got want out)
    file(STRINGS ${got} got_lines)
    file(STRINGS ${want} want_lines)
    list(LENGTH got_lines ng)
    list(LENGTH want_lines nw)
    set(n ${ng})
    if(nw LESS n)
        set(n ${nw})
    endif()
    set(i 0)
    while(i LESS n)
        list(GET got_lines ${i} g)
        list(GET want_lines ${i} w)
        if(NOT g STREQUAL w)
            math(EXPR line "${i} + 1")
            set(${out} "line ${line}: got '${g}', want '${w}'"
                PARENT_SCOPE)
            return()
        endif()
        math(EXPR i "${i} + 1")
    endwhile()
    set(${out} "${ng} lines, want ${nw} (or a byte the line view hides)"
        PARENT_SCOPE)
endfunction()

string(REPLACE "," ";" CSVS "${CSVS}")

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
execute_process(COMMAND ${BIN}
                WORKING_DIRECTORY ${WORK}
                OUTPUT_FILE ${WORK}/stdout.txt
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited ${rc}: ${err}")
endif()

set(failures "")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK}/stdout.txt ${STDOUT_GOLDEN}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    first_difference(${WORK}/stdout.txt ${STDOUT_GOLDEN} where)
    list(APPEND failures "stdout differs from ${STDOUT_GOLDEN}, ${where}")
endif()

foreach(name IN LISTS CSVS)
    set(got ${WORK}/bench_csv/${name}.csv)
    set(want ${CSV_DIR}/${name}.csv)
    if(NOT EXISTS ${got})
        list(APPEND failures "${name}.csv was not written")
    elseif(NOT EXISTS ${want})
        list(APPEND failures "${want} is missing")
    else()
        execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                                ${got} ${want}
                        RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            first_difference(${got} ${want} where)
            list(APPEND failures "${name}.csv differs from ${want}, ${where}")
        endif()
    endif()
endforeach()

file(GLOB written RELATIVE ${WORK}/bench_csv ${WORK}/bench_csv/*)
foreach(file IN LISTS written)
    string(REGEX REPLACE "\\.csv$" "" name "${file}")
    list(FIND CSVS "${name}" at)
    if(at EQUAL -1)
        list(APPEND failures "unexpected output bench_csv/${file}")
    endif()
endforeach()

if(failures)
    string(REPLACE ";" "\n  " report "${failures}")
    message(FATAL_ERROR "bench output of ${BIN} changed:\n  ${report}")
endif()
