# Runs `tincy summary <cfg>` and passes only if it exits with return code 1
# (tincy's "runtime error"). A process killed by a signal reports a
# non-numeric result here, so a crash never passes as a clean rejection.
#
#   cmake -DTINCY=<path to tincy> -DCFG=<cfg file> -P expect_cfg_error.cmake
execute_process(COMMAND ${TINCY} summary ${CFG}
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1, got '${rc}': ${err}")
endif()
message(STATUS "rejected as expected: ${err}")
