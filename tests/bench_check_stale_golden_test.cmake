# `gpupm_bench_check bench --stale-factor=<x>` fails a run that is
# faster than the golden's wall-clock divided by x, so a speed-up
# cannot leave its golden behind; without the flag no run is stale.
# Every flag value is parsed strictly: a malformed one exits 2 naming
# the flag instead of silently moving a gate.
file(MAKE_DIRECTORY ${WORK})

function(write_bench path wall_ms)
    file(WRITE ${path} "{\"gpupm_bench_version\":1,\"name\":\"stale\",\
\"provenance\":{\"version\":\"v\",\"build_type\":\"Release\",\
\"device\":\"cpu\",\"timestamp\":\"t\"},\"wall_ms\":${wall_ms},\
\"phases_ms\":{},\"stats\":{\"mae_pct\":6.0}}\n")
endfunction()

write_bench(${WORK}/run.json 100)
write_bench(${WORK}/golden_x3.json 300)
write_bench(${WORK}/golden_x1_5.json 150)

# A golden three times slower than the run is stale at factor 2.
execute_process(
    COMMAND ${BENCH_CHECK} bench ${WORK}/run.json ${WORK}/golden_x3.json
            --stale-factor=2
    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "tripled golden exited ${rc}, want 1: ${out}")
endif()
if(NOT out MATCHES "golden stale")
    message(FATAL_ERROR "stale failure does not name it: ${out}")
endif()

# 1.5x is inside the bound, and without the flag nothing is stale.
foreach(args "${WORK}/golden_x1_5.json;--stale-factor=2"
             "${WORK}/golden_x3.json")
    execute_process(
        COMMAND ${BENCH_CHECK} bench ${WORK}/run.json ${args}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "bench ${args} exited ${rc}, want 0: ${out}")
    endif()
endforeach()

# Malformed values exit 2 and name the flag.
foreach(args "bench;${WORK}/run.json;${WORK}/golden_x3.json;--stale-factor=abc"
             "bench;${WORK}/run.json;${WORK}/golden_x3.json;--time-factor=abc"
             "bench;${WORK}/run.json;${WORK}/golden_x3.json;--stat-tol=-1"
             "bench;${WORK}/run.json;${WORK}/golden_x3.json;--stale-factor"
             "profile;${WORK}/run.json;${WORK}/golden_x3.json;--min-attributed=9O"
             "profile;${WORK}/run.json;${WORK}/golden_x3.json;--share-tol=inf")
    list(GET args -1 flag)
    string(REGEX REPLACE "=.*" "" flag_name "${flag}")
    execute_process(
        COMMAND ${BENCH_CHECK} ${args}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "'${flag}' exited ${rc}, want 2: ${out}${err}")
    endif()
    if(NOT err MATCHES "${flag_name}")
        message(FATAL_ERROR "'${flag}' error does not name the flag: ${err}")
    endif()
endforeach()
