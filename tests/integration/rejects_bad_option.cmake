# A command-line tool must refuse an option it cannot honour (one it does
# not read, a malformed or out-of-range number), exit non-zero and name
# the option on stderr, instead of running with the option ignored or
# misread.
#
#   cmake -DTOOL=<path to tool> "-DARGS=<arguments>"
#         "-DEXPECT=<regex stderr must match>" -P rejects_bad_option.cmake
if(NOT TOOL OR NOT ARGS OR NOT EXPECT)
  message(FATAL_ERROR "rejects_bad_option: pass -DTOOL=<tool>, "
                      "-DARGS=<arguments> and -DEXPECT=<stderr regex>")
endif()

separate_arguments(tool_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${tool_args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, stderr: ${err}")
endif()
