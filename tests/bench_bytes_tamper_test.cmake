# The bench-bytes gate must catch a one-byte change. Copies one
# binary's expected stdout and CSVs, changes one byte of one copy at a
# time, and requires bench_bytes_test.cmake run against the copies to
# fail naming that file; the untouched copies must pass, so a failure
# is the byte's doing and not the set-up's.
# Expects BIN, WORK, STDOUT_GOLDEN, CSV_DIR, CSVS (comma-separated,
# at least one) and GATE (the path of bench_bytes_test.cmake).

cmake_minimum_required(VERSION 3.16)

set(expected ${WORK}/expected)
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${expected})
string(REPLACE "," ";" csv_list "${CSVS}")
list(GET csv_list 0 first_csv)
foreach(name IN LISTS csv_list)
    file(COPY ${CSV_DIR}/${name}.csv DESTINATION ${expected})
endforeach()
configure_file(${STDOUT_GOLDEN} ${expected}/stdout.txt COPYONLY)

function(run_gate rc_out log_out)
    execute_process(COMMAND ${CMAKE_COMMAND}
                            -DBIN=${BIN} -DWORK=${WORK}/run
                            -DSTDOUT_GOLDEN=${expected}/stdout.txt
                            -DCSV_DIR=${expected} -DCSVS=${CSVS}
                            -P ${GATE}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    set(${rc_out} ${rc} PARENT_SCOPE)
    set(${log_out} "${out}${err}" PARENT_SCOPE)
endfunction()

# Replaces the byte in the middle of `file` with a different one.
function(change_one_byte file)
    file(READ ${file} text)
    string(LENGTH "${text}" n)
    math(EXPR mid "${n} / 2")
    string(SUBSTRING "${text}" 0 ${mid} head)
    string(SUBSTRING "${text}" ${mid} 1 old)
    math(EXPR tail_at "${mid} + 1")
    string(SUBSTRING "${text}" ${tail_at} -1 tail)
    set(new "7")
    if(old STREQUAL "7")
        set(new "8")
    endif()
    file(WRITE ${file} "${head}${new}${tail}")
endfunction()

run_gate(rc log)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "the gate rejected the untouched copies: ${log}")
endif()

foreach(target ${first_csv}.csv stdout.txt)
    file(READ ${expected}/${target} original)
    change_one_byte(${expected}/${target})
    run_gate(rc log)
    if(rc EQUAL 0)
        message(FATAL_ERROR "the gate passed a one-byte change to "
                            "${target}")
    endif()
    if(target STREQUAL "stdout.txt")
        set(want "stdout differs")
    else()
        set(want "${target} differs")
    endif()
    string(FIND "${log}" "${want}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "the gate failed without naming ${target}: "
                            "${log}")
    endif()
    file(WRITE ${expected}/${target} "${original}")
endforeach()
