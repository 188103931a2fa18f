# nfpd with one good kernel and one unreadable path: the bad path must fail
# only its own job ("ok":false record with the error), the good job must
# still run and report ok, and nfpd must exit 1 (a job failed), not 2.
#
#   cmake -DNFPD=<nfpd> -DGOOD=<kernel.s> -DMISSING=<path> -P nfpd_bad_input.cmake
execute_process(
  COMMAND "${NFPD}" --no-estimate --workers 2 "${GOOD}" "${MISSING}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
message("stdout:\n${out}\nstderr:\n${err}")
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit status 1, got '${rc}'")
endif()
string(REGEX MATCH "\"name\":\"[^\"]*halt_seven.s\",\"ok\":true,[^\n]*\"exit_code\":7" good "${out}")
if(NOT good)
  message(FATAL_ERROR "no ok record with exit code 7 for the good kernel")
endif()
string(REGEX MATCH "\"name\":\"[^\"]*no_such_kernel.s\",\"ok\":false,\"error\":\"cannot open [^\"]*no_such_kernel.s\"" bad "${out}")
if(NOT bad)
  message(FATAL_ERROR "no ok:false record with the error for the missing path")
endif()
