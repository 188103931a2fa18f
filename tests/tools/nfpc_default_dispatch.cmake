# nfpc without --dispatch runs the ISS on the library default (the jit) and
# its "dispatch <tier>:" line names the tier that actually ran: the same
# tier an explicit --dispatch=jit resolves to on this host, and never a
# warning, since nobody asked for the jit.
#
#   cmake -DNFPC=<exe> -DINPUT=<file.c> -P nfpc_default_dispatch.cmake
function(run_nfpc out_var err_var)
  execute_process(
    COMMAND "${NFPC}" ${ARGN} "${INPUT}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  message("nfpc ${ARGN}: exit ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nfpc ${ARGN} exited with '${rc}'")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

run_nfpc(default_out default_err)
run_nfpc(jit_out jit_err --dispatch=jit)

string(REGEX MATCH "\ndispatch ([a-z]+): " line "${default_out}")
set(default_tier "${CMAKE_MATCH_1}")
string(REGEX MATCH "\ndispatch ([a-z]+): " line "${jit_out}")
set(jit_tier "${CMAKE_MATCH_1}")
if(NOT default_tier MATCHES "^(jit|block)$")
  message(FATAL_ERROR "default run printed dispatch '${default_tier}', "
                      "expected jit (or block where the jit cannot run)")
endif()
if(NOT default_tier STREQUAL jit_tier)
  message(FATAL_ERROR "default run used '${default_tier}', but "
                      "--dispatch=jit runs '${jit_tier}' on this host")
endif()
if(default_err MATCHES "warning")
  message(FATAL_ERROR "default run warned: ${default_err}")
endif()
