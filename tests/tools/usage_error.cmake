# A flag the tool does not know must be a usage error: exit status 2 and an
# "unknown argument" diagnostic naming the flag, even when the rest of the
# command line is a valid job.
#
#   cmake -DTOOL=<exe> -DFLAG=<--flag> -DINPUT=<file> -P usage_error.cmake
execute_process(
  COMMAND "${TOOL}" "${FLAG}" "${INPUT}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
message("stdout:\n${out}\nstderr:\n${err}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit status 2 for ${FLAG}, got '${rc}'")
endif()
string(FIND "${err}" "unknown argument '${FLAG}'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "no \"unknown argument '${FLAG}'\" diagnostic")
endif()
