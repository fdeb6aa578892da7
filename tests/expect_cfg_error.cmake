# Runs `tincy summary <cfg>` (or `tincy <args>`) and passes only if it
# exits with return code 1 (tincy's "runtime error"), or with -DEXPECT=<rc>
# that code (2 is a usage error). A process killed by a signal reports a
# non-numeric result here, so a crash never passes as a clean rejection.
#
#   cmake -DTINCY=<path to tincy> -DCFG=<cfg file> -P expect_cfg_error.cmake
#   cmake -DTINCY=<path to tincy> "-DARGS=<arg> <arg> ..." [-DEXPECT=2]
#         -P expect_cfg_error.cmake
#
# -DVMEM_KB=<KiB> runs tincy under `ulimit -v <KiB>` (through sh), so an
# allocation past that cap fails instead of being granted.
if(NOT DEFINED EXPECT)
  set(EXPECT 1)
endif()
if(DEFINED ARGS)
  separate_arguments(tincy_args UNIX_COMMAND "${ARGS}")
else()
  set(tincy_args summary ${CFG})
endif()
set(command ${TINCY} ${tincy_args})
if(DEFINED VMEM_KB)
  set(command sh -c "ulimit -v ${VMEM_KB} && exec \"$0\" \"$@\"" ${command})
endif()
execute_process(COMMAND ${command}
                RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit code ${EXPECT}, got '${rc}': ${err}")
endif()
message(STATUS "rejected as expected: ${err}")
