# End-to-end verdict pin: replays a fixed ixpd trace and compares the
# DETECT lines against a golden count and md5. The verdict stream must not
# depend on shard count or SIMD level, so every leg must print the same
# lines; a change meant to alter verdicts re-pins here and records the old
# and new digests in CHANGES.md.
#
#   cmake -DIXPD=<path to ixpd> -P verdict_digest.cmake
if(NOT IXPD)
  message(FATAL_ERROR "verdict_digest: pass -DIXPD=<path to ixpd>")
endif()

set(expected_count 140)
set(expected_md5 72a613c0f09f0da53dba9474344828d8)
set(trace --profile se --minutes 2880 --seed 31 --stats-every 0)

foreach(leg "--shards;1" "--shards;4;--simd;scalar")
  execute_process(COMMAND ${IXPD} ${trace} ${leg}
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ixpd ${leg} exited with ${rc}")
  endif()
  string(REGEX MATCHALL "DETECT [^\n]*" detects "${out}")
  list(LENGTH detects count)
  string(REPLACE ";" "\n" joined "${detects}")
  string(MD5 digest "${joined}\n")
  if(NOT count EQUAL expected_count OR NOT digest STREQUAL expected_md5)
    message(FATAL_ERROR "ixpd ${leg}: ${count} DETECT lines, md5 ${digest} "
                        "(expected ${expected_count}, ${expected_md5})")
  endif()
  message(STATUS "ixpd ${leg}: ${count} DETECT lines, md5 ${digest}")
endforeach()
