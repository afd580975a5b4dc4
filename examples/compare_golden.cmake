# Runs EXAMPLE with its default arguments and compares its stdout, and its
# stderr where a golden exists, with GOLDEN.stdout / GOLDEN.stderr.
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<golden/name> -P compare_golden.cmake
execute_process(COMMAND ${EXAMPLE} OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}\n${stderr}")
endif()
foreach(stream stdout stderr)
  if(EXISTS ${GOLDEN}.${stream})
    file(READ ${GOLDEN}.${stream} golden)
    if(NOT "${${stream}}" STREQUAL "${golden}")
      message(FATAL_ERROR "${stream} differs from ${GOLDEN}.${stream}:\n"
                          "${${stream}}")
    endif()
  endif()
endforeach()
