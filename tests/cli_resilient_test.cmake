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
#    CRC32 and byte count) are compared.
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

execute_process(COMMAND ${CLI} campaign titanx t.campaign --faults=0.2
                        --fault-seed=7 --json
                WORKING_DIRECTORY ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "titanx faulted campaign failed: ${rc}: ${err}")
endif()
expect_text_equal("${out}" ${GOLDEN_DIR}/titanx_stdout.json)
file(READ ${WORK}/t.campaign campaign)
string(FIND "${campaign}" "\n" eol)
if(eol LESS 0)
    message(FATAL_ERROR "t.campaign has no envelope line")
endif()
math(EXPR len "${eol} + 1")
string(SUBSTRING "${campaign}" 0 ${len} envelope)
expect_text_equal("${envelope}" ${GOLDEN_DIR}/titanx_envelope.txt)
