# `gpupm validate --json` must emit valid JSON even when a load error
# quotes raw control bytes from the file: a legacy model whose version
# token is "v\x01" has to come out as \u0001, never as a raw 0x01
# byte. Expects CLI and WORK to be defined.
file(MAKE_DIRECTORY ${WORK})
string(ASCII 1 ctrl)
set(model ${WORK}/ctrl.model)
file(WRITE ${model} "gpupm-model v${ctrl}\ndevice 0\n")

execute_process(COMMAND ${CLI} validate --json ${model}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "validate on a bad model exited ${rc}, want 1")
endif()
if(NOT out MATCHES "version-mismatch")
    message(FATAL_ERROR "validate --json lacks the load error: ${out}")
endif()
string(FIND "${out}" "\\u0001" escaped)
string(FIND "${out}" "${ctrl}" raw)
if(escaped EQUAL -1 OR NOT raw EQUAL -1)
    message(FATAL_ERROR "control byte not escaped as \\u0001: ${out}")
endif()
