# Drives `gpupm alerts` — the one-shot, virtually-clocked alert
# evaluation — end to end. The injected accuracy fault must walk the
# drift rule through pending -> firing -> resolved, the JSON report
# must be bit-identical across two runs at the same parameters, and
# the exit code must distinguish "ended firing" (1) from "ended
# clear" (0). Expects CLI and WORK to be defined.
file(MAKE_DIRECTORY ${WORK})

set(demo_flags
    --json --ticks=200 --period-ms=50 --rolling-window=16
    --inject-drift=40:80:1.5 --drift-window=1s --drift-for=250ms
    --drift-cooldown=1s --drift-tolerance=9)

execute_process(COMMAND ${CLI} alerts titanx ${demo_flags}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out1
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "alerts run 1 failed: ${rc}: ${err}")
endif()

# The full lifecycle is in the report: the drift rule fired while the
# fault window was active and resolved after it passed.
foreach(marker
        "\"name\":\"accuracy_drift_titanx\""
        "\"kind\":\"drift\""
        "\"envelope_pct\":5.5"
        "\"state\":\"resolved\""
        "\"state\":\"pending\""
        "\"state\":\"firing\"")
    if(NOT out1 MATCHES "${marker}")
        message(FATAL_ERROR "alerts report lacks ${marker}: ${out1}")
    endif()
endforeach()
if(out1 MATCHES "\"firing\":\\[\"")
    message(FATAL_ERROR "rule still firing after recovery: ${out1}")
endif()

# Determinism: same seed, same virtual clock, same bytes.
execute_process(COMMAND ${CLI} alerts titanx ${demo_flags}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out2
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "alerts run 2 failed: ${rc}: ${err}")
endif()
if(NOT out1 STREQUAL out2)
    message(FATAL_ERROR "alerts JSON differs between identical runs")
endif()
# And the checked-in golden's bytes, so no change to the live pipeline
# monitor, alerts and traces share can move them unnoticed.
file(READ ${GOLDEN} golden)
if(NOT out1 STREQUAL golden)
    message(FATAL_ERROR "alerts JSON differs from ${GOLDEN}: ${out1}")
endif()

# Stopping mid-fault must exit 1 with the rule still firing.
execute_process(COMMAND ${CLI} alerts titanx --ticks=70
                        --period-ms=50 --rolling-window=16
                        --inject-drift=40:80:1.5 --drift-window=1s
                        --drift-for=250ms --drift-cooldown=1s
                        --drift-tolerance=9
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "firing run should exit 1, got ${rc}: ${err}")
endif()
if(NOT err MATCHES "firing")
    message(FATAL_ERROR "firing run did not say so: ${err}")
endif()

# Bad flag values are rejected by name with exit 2.
execute_process(COMMAND ${CLI} alerts titanx --inject-drift=banana
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--inject-drift")
    message(FATAL_ERROR "bad inject spec not rejected: ${rc}: ${err}")
endif()
execute_process(COMMAND ${CLI} alerts notadevice
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(rc EQUAL 0 OR NOT err MATCHES "notadevice")
    message(FATAL_ERROR "bad device not rejected: ${rc}: ${err}")
endif()

# Custom --alert rules ride alongside (or replace) the drift rule:
# an absurdly low threshold on the tick counter fires immediately.
execute_process(COMMAND ${CLI} alerts titanx --json --ticks=30
                        --period-ms=50 --no-drift-rule
                        --alert=ticks:threshold:gpupm_monitor_ticks_total:gt:5:1s:0s:10s
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "custom rule run should exit 1 (firing), "
                        "got ${rc}: ${err}")
endif()
if(NOT out MATCHES "\"firing\":\\[\"ticks\"\\]")
    message(FATAL_ERROR "custom rule not firing: ${out}")
endif()
if(out MATCHES "accuracy_drift")
    message(FATAL_ERROR "--no-drift-rule left the drift rule in: ${out}")
endif()

# A malformed --alert spec is rejected by name.
execute_process(COMMAND ${CLI} alerts titanx --alert=nonsense
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--alert")
    message(FATAL_ERROR "bad alert spec not rejected: ${rc}: ${err}")
endif()

# So is a duration past 1e9 s, whose microseconds would not fit in an
# int64_t: the error names the whole spec, before any training starts.
set(long_spec x:threshold:gpupm_monitor_ticks_total:gt:1:1e14s)
execute_process(COMMAND ${CLI} alerts titanx --alert=${long_spec}
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--alert spec '${long_spec}'"
   OR err MATCHES "training")
    message(FATAL_ERROR "overlong alert window not rejected: ${rc}: ${err}")
endif()

# An event log that cannot be opened is an error (exit 1) naming the
# path, not a silent run without a log.
execute_process(COMMAND ${CLI} alerts titanx --ticks=5
                        --events-out=${WORK}/no_such_dir/ev.ndjson
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "cannot open event log")
    message(FATAL_ERROR "unwritable event log not rejected: ${rc}: ${err}")
endif()
