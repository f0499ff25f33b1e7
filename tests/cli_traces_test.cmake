# Drives `gpupm traces` — the offline, virtually-clocked per-tick
# trace replay. Every tick's measure -> predict -> audit chain must
# assemble into one stored trace, the injected drift fault must
# surface as a retained error trace, and the JSON report must be
# bit-identical across two runs at the same parameters (seeded ids,
# virtual clock, deterministic fields only). Expects CLI and WORK.
file(MAKE_DIRECTORY ${WORK})

set(replay_flags
    --json --ticks=30 --period-ms=50 --rolling-window=16
    --inject-drift=5:15:1.5)

execute_process(COMMAND ${CLI} traces titanx ${replay_flags}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out1
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "traces run 1 failed: ${rc}: ${err}")
endif()

# One trace per tick, correlated ids, and the fault retained: the
# report carries per-span parent links and at least one error trace.
foreach(marker
        "\"ticks\":30"
        "\"trace_id\":\""
        "\"parent_span_id\":\""
        "\"root\":\"monitor.tick\""
        "\"error\":true"
        "\"errors_evicted\":0")
    if(NOT out1 MATCHES "${marker}")
        message(FATAL_ERROR "traces report lacks ${marker}: ${out1}")
    endif()
endforeach()

# Determinism: same seed, same virtual clock, same bytes.
execute_process(COMMAND ${CLI} traces titanx ${replay_flags}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out2
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "traces run 2 failed: ${rc}: ${err}")
endif()
if(NOT out1 STREQUAL out2)
    message(FATAL_ERROR "traces JSON differs between identical runs")
endif()
# And the checked-in golden's bytes, so no change to the live pipeline
# monitor, alerts and traces share can move them unnoticed.
file(READ ${GOLDEN} golden)
if(NOT out1 STREQUAL golden)
    message(FATAL_ERROR "traces JSON differs from ${GOLDEN}")
endif()

# The human-readable mode names roots and nests children.
execute_process(COMMAND ${CLI} traces titanx --ticks=5 --period-ms=50
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "text traces run failed: ${rc}: ${err}")
endif()
if(NOT out MATCHES "trace [0-9a-f]+" OR NOT out MATCHES "\\(root\\)")
    message(FATAL_ERROR "text traces output malformed: ${out}")
endif()

# Bad device and bad flag values are rejected by name.
execute_process(COMMAND ${CLI} traces notadevice
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "notadevice")
    message(FATAL_ERROR "bad device not rejected: ${rc}: ${err}")
endif()
execute_process(COMMAND ${CLI} traces titanx --inject-drift=banana
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--inject-drift")
    message(FATAL_ERROR "bad inject spec not rejected: ${rc}: ${err}")
endif()
