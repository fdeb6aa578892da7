# Runs `tincy summary <cfg>` (or `tincy <args>`) and passes only if it
# exits with return code 1 (tincy's "runtime error"). A process killed by
# a signal reports a non-numeric result here, so a crash never passes as
# a clean rejection.
#
#   cmake -DTINCY=<path to tincy> -DCFG=<cfg file> -P expect_cfg_error.cmake
#   cmake -DTINCY=<path to tincy> "-DARGS=<arg> <arg> ..." -P expect_cfg_error.cmake
if(DEFINED ARGS)
  separate_arguments(tincy_args UNIX_COMMAND "${ARGS}")
else()
  set(tincy_args summary ${CFG})
endif()
execute_process(COMMAND ${TINCY} ${tincy_args}
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1, got '${rc}': ${err}")
endif()
message(STATUS "rejected as expected: ${err}")
