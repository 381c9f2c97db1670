# A command-line tool must refuse an option it does not read, and name it,
# instead of running with the option silently ignored.
#
#   cmake -DTOOL=<path to tool> "-DARGS=<arguments, including --bogus 7>"
#         -P rejects_unknown_option.cmake
if(NOT TOOL OR NOT ARGS MATCHES "--bogus")
  message(FATAL_ERROR "rejects_unknown_option: pass -DTOOL=<tool> and "
                      "-DARGS=<arguments including --bogus 7>")
endif()

separate_arguments(tool_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${tool_args}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT err MATCHES "unknown option --bogus")
  message(FATAL_ERROR "${TOOL} ${ARGS}: exit ${rc}, stderr: ${err}")
endif()
