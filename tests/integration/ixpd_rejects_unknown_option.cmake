# ixpd must refuse an option it does not read, and name it, instead of
# running with the option silently ignored.
#
#   cmake -DIXPD=<path to ixpd> -P ixpd_rejects_unknown_option.cmake
if(NOT IXPD)
  message(FATAL_ERROR "ixpd_rejects_unknown_option: pass -DIXPD=<path to ixpd>")
endif()

execute_process(COMMAND ${IXPD} --profile se --minutes 3 --bogus 7
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT err MATCHES "unknown option --bogus")
  message(FATAL_ERROR "ixpd --bogus 7: exit ${rc}, stderr: ${err}")
endif()
