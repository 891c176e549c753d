# Runs one bench with --profile --stats-json and requires that it exits
# 0 within TIMEOUT seconds and that the stats JSON carries the profile
# group. The bench writes its artifacts from an atexit hook, so this
# pins the exit path, not just the bench body.
#
#   cmake -DBENCH=<binary> -DOUT=<stats.json> -DTIMEOUT=<s> -P check_exit_artifacts.cmake
file(REMOVE "${OUT}")
execute_process(
    COMMAND "${BENCH}" --profile --stats-json "${OUT}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err
    TIMEOUT ${TIMEOUT})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with '${rc}':\n${err}")
endif()
file(READ "${OUT}" stats)
string(FIND "${stats}" "{\"group\": \"profile\"" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${OUT} lacks the profile group")
endif()
