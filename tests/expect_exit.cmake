# Runs `${CMD} --spec ${SPEC}` and fails unless it exits with exactly
# ${EXPECT}. A crash reports a non-numeric result ("Subprocess
# aborted", ...), so unlike WILL_FAIL this cannot pass by crashing.
#
#   cmake -DCMD=bench_fleet -DSPEC=x.scn -DEXPECT=1 -P expect_exit.cmake
execute_process(COMMAND ${CMD} --spec ${SPEC}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "expected exit ${EXPECT}, got '${rc}'\n${out}${err}")
endif()
