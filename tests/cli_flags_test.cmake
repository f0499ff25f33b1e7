# Drives every gpupm flag and subcommand that no other ctest drives,
# and checks an observable effect of each; then checks that malformed
# or out-of-range values and wrong positional counts are rejected by
# name with exit 2. Every case runs, and the test fails at the end
# listing each failed case. Expects CLI and WORK to be defined; the
# CLI runs inside WORK, so relative paths are made absolute first.
get_filename_component(CLI "${CLI}" ABSOLUTE)
get_filename_component(WORK "${WORK}" ABSOLUTE)
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(failures "")

# run(args...): run the CLI in WORK; sets rc, out and err.
macro(run)
    execute_process(COMMAND ${CLI} ${ARGN}
                    WORKING_DIRECTORY ${WORK} TIMEOUT 120
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
endmacro()

# fail(what): record a failed case.
macro(fail what)
    string(APPEND failures "\n  ${what}")
    message(STATUS "FAIL: ${what}")
endmacro()

# rejected(regex args...): the run must exit 2 with stderr matching
# regex (the offending flag or positional).
macro(rejected regex)
    run(${ARGN})
    if(NOT rc EQUAL 2 OR NOT err MATCHES "${regex}")
        fail("'${ARGN}' not rejected by '${regex}': rc ${rc}: ${err}")
    endif()
endmacro()

# -- Coverage: each flag and subcommand has an observable effect ------

# --faults, --fault-seed and --retries: the campaign report on k40c.
run(campaign k40c seed7.campaign --faults=0.05 --fault-seed=7 --retries=6)
if(NOT rc EQUAL 0 OR NOT err MATCHES "faults injected: [1-9]" OR
   NOT err MATCHES "attempts, [1-9][0-9]* retries")
    fail("faulted campaign: rc ${rc}: ${err}")
endif()
run(campaign k40c seed7b.campaign --faults=0.05 --fault-seed=7 --retries=6)
run(campaign k40c seed8.campaign --faults=0.05 --fault-seed=8 --retries=6)
file(SHA256 ${WORK}/seed7.campaign h7)
file(SHA256 ${WORK}/seed7b.campaign h7b)
file(SHA256 ${WORK}/seed8.campaign h8)
if(NOT h7 STREQUAL h7b OR h7 STREQUAL h8)
    fail("--fault-seed: same seed must repeat, another must differ")
endif()
run(campaign k40c retry0.campaign --faults=0.05 --retries=0)
if(NOT rc EQUAL 1 OR NOT err MATCHES "quarantin")
    fail("--retries=0 should exhaust and quarantine: rc ${rc}: ${err}")
endif()

# --resume: a rerun resumes every cell and writes the same bytes.
run(campaign k40c resume1.campaign --faults=0.05 --resume=resume.ck)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORK}/resume.ck)
    fail("--resume wrote no checkpoint: rc ${rc}: ${err}")
endif()
run(campaign k40c resume2.campaign --faults=0.05 --resume=resume.ck)
file(SHA256 ${WORK}/resume1.campaign r1)
file(SHA256 ${WORK}/resume2.campaign r2)
if(NOT rc EQUAL 0 OR NOT err MATCHES "\\(415 resumed" OR
   NOT r1 STREQUAL r2)
    fail("--resume rerun did not resume to the same bytes: ${err}")
endif()

# --verbose overrides GPUPM_LOG=warn; --quiet drops info lines.
execute_process(COMMAND ${CMAKE_COMMAND} -E env GPUPM_LOG=warn
                        ${CLI} campaign k40c verbose.campaign
                        --faults=0.05 --resume=resume.ck --verbose
                WORKING_DIRECTORY ${WORK} RESULT_VARIABLE rc
                ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 0 OR NOT err MATCHES "info: resuming campaign")
    fail("--verbose did not raise the log level: ${err}")
endif()
run(campaign k40c quiet.campaign --faults=0.05 --resume=resume.ck --quiet)
if(NOT rc EQUAL 0 OR err MATCHES "info:")
    fail("--quiet left info lines: ${err}")
endif()

# audit --csv: the residual CSV.
run(audit k40c --csv)
if(NOT rc EQUAL 0 OR NOT out MATCHES
   "^app,core_mhz,mem_mhz,measured_w,predicted_w,err_pct,constant_w")
    fail("audit --csv header: rc ${rc}: ${out}")
endif()

# --profile-out: a non-empty collapsed-stack file.
run(audit titanx --profile-out=audit.folded)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORK}/audit.folded)
    fail("--profile-out wrote nothing: rc ${rc}: ${err}")
else()
    file(SIZE ${WORK}/audit.folded folded_size)
    if(folded_size EQUAL 0)
        fail("--profile-out wrote an empty profile")
    endif()
endif()

# version, version --json and --version.
run(version)
set(version_out "${out}")
if(NOT rc EQUAL 0 OR NOT out MATCHES "^gpupm [0-9]+\\.[0-9]+")
    fail("version: rc ${rc}: ${out}")
endif()
run(version --json)
if(NOT rc EQUAL 0 OR NOT out MATCHES "^\\{\"version\":\"")
    fail("version --json: rc ${rc}: ${out}")
endif()
run(--version)
if(NOT rc EQUAL 0 OR NOT out STREQUAL version_out)
    fail("--version differs from version: rc ${rc}: ${out}")
endif()

# fleet --threads: one worker thread records spans beside the main one.
run(fleet 6 --threads=1 --trace-out=threads1.trace.json)
file(READ ${WORK}/threads1.trace.json threads_trace)
if(NOT rc EQUAL 0 OR NOT threads_trace MATCHES "\"tid\":1" OR
   threads_trace MATCHES "\"tid\":2")
    fail("--threads=1 ran spans on more than one worker: rc ${rc}")
endif()

# fleet chaos: seeded kills, poisoned devices, and stalls that only
# the --deadline watchdog ends (its 120 s default would time out).
run(fleet 6 --chaos-kill-rate=0.5)
if(NOT rc EQUAL 0 OR NOT err MATCHES "chaos: [1-9][0-9]* kills")
    fail("--chaos-kill-rate: rc ${rc}: ${err}")
endif()
run(fleet 6 --chaos-poison=0.5)
if(NOT rc EQUAL 0 OR NOT err MATCHES "corrupt-data=[1-9]")
    fail("--chaos-poison: rc ${rc}: ${err}")
endif()
run(fleet 6 --chaos-stall-rate=0.5 --deadline=100ms)
if(NOT rc EQUAL 0 OR
   NOT err MATCHES "[1-9][0-9]* stalls; watchdog fired [1-9]")
    fail("--chaos-stall-rate/--deadline: rc ${rc}: ${err}")
endif()

# --fleet-out: the written report passes `gpupm validate`.
run(fleet 6 --fleet-out=fleet.report)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORK}/fleet.report)
    fail("--fleet-out wrote nothing: rc ${rc}: ${err}")
endif()
run(validate fleet.report)
if(NOT rc EQUAL 0 OR NOT out MATCHES "OK")
    fail("fleet report does not validate: rc ${rc}: ${out}")
endif()

# --events-max-bytes and --events-max-files: the event log rotates
# and keeps two generations.
run(alerts titanx --ticks=200 --period-ms=50 --events-out=ev.ndjson
    --events-max-bytes=4000 --events-max-files=2)
if(NOT rc EQUAL 0 OR NOT EXISTS ${WORK}/ev.ndjson.1 OR
   NOT EXISTS ${WORK}/ev.ndjson.2 OR EXISTS ${WORK}/ev.ndjson.3)
    fail("event log rotation: rc ${rc}: ${err}")
endif()

# Range checks on the live pipeline's counts and period.
rejected("--ticks" alerts titanx --ticks=0)
rejected("--period-ms" alerts titanx --period-ms=0)
rejected("--events-max-files" alerts titanx --events-max-files=0)

# -- Bad values and positional counts, rejected by name with exit 2 ----

rejected("--shards" fleet 2 --shards=abc)
rejected("--retries" campaign k40c bad.campaign --retries=abc)
rejected("--port" monitor k40c --port=abc --duration=100ms)
rejected("--chaos-kill-rate" fleet 2 --chaos-kill-rate=5)
rejected("--faults" campaign k40c bad.campaign --faults=2)
rejected("--rolling-window" alerts titanx --rolling-window=5x)
rejected("'2x'" fleet 2x)
rejected("usage: gpupm devices" devices extra)
rejected("usage: gpupm metrics" metrics extra)
if(EXISTS ${WORK}/bad.campaign)
    fail("a rejected campaign wrote its output file")
endif()

# Envelope-only kinds name themselves in `gpupm validate`.
run(validate fleet.report)
if(NOT out MATCHES "fleet: OK")
    fail("validate does not name the fleet kind: ${out}")
endif()

if(failures)
    message(FATAL_ERROR "cli_flags failed:${failures}")
endif()
