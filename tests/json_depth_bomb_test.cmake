# Every JSON reader surface must reject a nesting bomb as a typed
# error naming the depth limit, never recurse until the stack runs
# out. The 200 000-deep "[[[...]]]" document is generated here, not
# checked in. Expects CLI, CHECK, BENCH_CHECK and WORK to be defined.
file(MAKE_DIRECTORY ${WORK})
string(REPEAT "[" 200000 open)
string(REPEAT "]" 200000 close)
set(bomb ${WORK}/bomb.json)
file(WRITE ${bomb} "${open}${close}")

foreach(tool "${CHECK};trace" "${BENCH_CHECK};validate")
    execute_process(COMMAND ${tool} ${bomb}
                    RESULT_VARIABLE rc ERROR_VARIABLE err)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "${tool} on the bomb exited ${rc}, want 1")
    endif()
    if(NOT err MATCHES "nesting deeper than 64 levels")
        message(FATAL_ERROR "${tool} error lacks the depth limit: ${err}")
    endif()
endforeach()

# An unparseable drift golden only warns: the drift rule falls back
# to the built-in Fig. 7 envelope (5.5% on titanx).
execute_process(COMMAND ${CLI} alerts titanx --drift-golden=${bomb}
                        --ticks=1 --json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "alerts with the bomb golden exited ${rc}: ${err}")
endif()
if(NOT err MATCHES "drift golden .*nesting deeper than 64 levels")
    message(FATAL_ERROR "alerts did not warn about the golden: ${err}")
endif()
if(NOT out MATCHES "\"envelope_pct\":5.5,")
    message(FATAL_ERROR "drift rule did not fall back: ${out}")
endif()
