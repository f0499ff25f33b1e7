# Pins the bytes of the fault-tolerant campaign runner. Two faulted
# `gpupm campaign` runs must print their JSON report and write their
# artifacts byte for byte as the goldens in GOLDEN_DIR, so a change to
# the fault draw order, the retry/backoff loop, the MAD filter, the
# quarantine rule or the report's format cannot pass unnoticed:
#
#  - k40c at 25% faults, fault seed 3, 2 retries, checkpointing:
#    quarantines two configurations, fails two cells and drops two of
#    the four configurations; stdout, the campaign and the checkpoint
#    are compared whole. The same command is then run again: it
#    resumes the finished checkpoint, keeps the quarantined columns
#    dropped and measures nothing, so the campaign comes out byte for
#    byte again and stdout differs only in the resumed-cell count;
#  - titanx at 20% faults, fault seed 7: 5,395 cells, nothing
#    quarantined; stdout and the campaign's envelope line (its payload
#    CRC32 and byte count) are compared. The same campaign with a
#    checkpoint is then killed at a quarter, half and three quarters of
#    that run's wall time and resumed: wherever the kill lands, the
#    resumed report must carry the uninterrupted run's totals, fault
#    count and rows (it differs only in the resumed-cell count and in
#    the last digits of the backoff sum, which is added in another
#    order), and the campaign must come out with the same envelope.
#
# WORK is emptied first, so --resume finds no old checkpoint.
# Expects CLI, WORK and GOLDEN_DIR (relative paths are taken from the
# current directory).
get_filename_component(CLI "${CLI}" ABSOLUTE)
get_filename_component(WORK "${WORK}" ABSOLUTE)
get_filename_component(GOLDEN_DIR "${GOLDEN_DIR}" ABSOLUTE)
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(expect_file_equal actual golden)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${actual} ${golden}
                    RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR "${actual} differs from ${golden}")
    endif()
endfunction()

function(expect_text_equal out golden)
    file(READ ${golden} want)
    if(NOT out STREQUAL want)
        message(FATAL_ERROR "output differs from ${golden}:\n${out}")
    endif()
endfunction()

execute_process(COMMAND ${CLI} campaign k40c q.campaign --faults=0.25
                        --fault-seed=3 --retries=2 --json --resume=q.ck
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "k40c faulted campaign failed: ${rc}: ${err}")
endif()
expect_text_equal("${out}" ${GOLDEN_DIR}/k40c_stdout.json)
expect_file_equal(${WORK}/q.campaign ${GOLDEN_DIR}/k40c.campaign)
expect_file_equal(${WORK}/q.ck ${GOLDEN_DIR}/k40c.ck)

execute_process(COMMAND ${CLI} campaign k40c q.campaign --faults=0.25
                        --fault-seed=3 --retries=2 --json --resume=q.ck
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "k40c campaign re-run failed: ${rc}: ${err}")
endif()
expect_file_equal(${WORK}/q.campaign ${GOLDEN_DIR}/k40c.campaign)
file(READ ${GOLDEN_DIR}/k40c_stdout.json want)
string(REPLACE "\"resumed\":0," "\"resumed\":334," want "${want}")
if(NOT out STREQUAL want)
    message(FATAL_ERROR "k40c re-run output differs from "
                        "k40c_stdout.json with 334 cells resumed:\n"
                        "${out}")
endif()

function(expect_envelope campaign_path)
    file(READ ${campaign_path} campaign)
    string(FIND "${campaign}" "\n" eol)
    if(eol LESS 0)
        message(FATAL_ERROR "${campaign_path} has no envelope line")
    endif()
    math(EXPR len "${eol} + 1")
    string(SUBSTRING "${campaign}" 0 ${len} envelope)
    expect_text_equal("${envelope}" ${GOLDEN_DIR}/titanx_envelope.txt)
endfunction()

string(TIMESTAMP start_us "%s%f")
execute_process(COMMAND ${CLI} campaign titanx t.campaign --faults=0.2
                        --fault-seed=7 --json
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(TIMESTAMP end_us "%s%f")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "titanx faulted campaign failed: ${rc}: ${err}")
endif()
expect_text_equal("${out}" ${GOLDEN_DIR}/titanx_stdout.json)
expect_envelope(${WORK}/t.campaign)

file(READ ${GOLDEN_DIR}/titanx_stdout.json want)
string(REGEX REPLACE "\"backoff_seconds\":[^}]*" "\"backoff_seconds\":"
       want "${want}")
if(CMAKE_VERSION VERSION_LESS 3.23)
    set(run_us 80000) # no sub-second timestamps before CMake 3.23
else()
    math(EXPR run_us "${end_us} - ${start_us}")
endif()
foreach(quarter 1 2 3)
    math(EXPR stop_us "${run_us} * ${quarter} / 4 + 1000")
    math(EXPR stop_s "${stop_us} / 1000000")
    math(EXPR stop_frac "${stop_us} % 1000000 + 1000000")
    string(SUBSTRING "${stop_frac}" 1 6 stop_frac)
    set(dir ${WORK}/stop_${quarter})
    file(MAKE_DIRECTORY ${dir})
    execute_process(COMMAND ${CLI} campaign titanx s.campaign --faults=0.2
                            --fault-seed=7 --json --resume=s.ck
                    WORKING_DIRECTORY ${dir}
                    TIMEOUT ${stop_s}.${stop_frac}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    execute_process(COMMAND ${CLI} campaign titanx s.campaign --faults=0.2
                            --fault-seed=7 --json --resume=s.ck
                    WORKING_DIRECTORY ${dir}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "titanx resume after a stop at "
                            "${stop_s}.${stop_frac} s failed: ${rc}: ${err}")
    endif()
    string(REGEX MATCH "\"resumed\":[0-9]+" resumed "${out}")
    string(REGEX REPLACE "\"resumed\":[0-9]+" "\"resumed\":0" out
           "${out}")
    string(REGEX REPLACE "\"backoff_seconds\":[^}]*"
           "\"backoff_seconds\":" out "${out}")
    if(NOT out STREQUAL want)
        message(FATAL_ERROR "titanx report resumed after a stop at "
                            "${stop_s}.${stop_frac} s (${resumed}) differs "
                            "from titanx_stdout.json:\n${out}")
    endif()
    expect_envelope(${dir}/s.campaign)
    message(STATUS "titanx stopped at ${stop_s}.${stop_frac} s and "
                   "resumed with ${resumed}")
endforeach()
