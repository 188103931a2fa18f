# nfpd's preemption and budget paths from the command line. Running
# halt_seven.s plus a short loop kernel with --slice 1000 must give the same
# JSONL records as an unsliced run once the slices and checkpoints fields
# are stripped, with real checkpoints taken; a --max-insns 1000 run of the
# loop kernel must fail its job on the budget and exit 1.
#
#   cmake -DNFPD=<nfpd> -DHALT=<halt_seven.s> -DLOOP=<count_loop.s> -P nfpd_slice.cmake

# Runs nfpd with ARGN, requires exit status `want_rc`, and returns stdout's
# lines sorted (completion order varies with the worker count).
function(run_nfpd want_rc out_var)
  execute_process(
    COMMAND "${NFPD}" --no-estimate --workers 2 ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  message("nfpd ${ARGN}\nstdout:\n${out}\nstderr:\n${err}")
  if(NOT rc EQUAL want_rc)
    message(FATAL_ERROR "nfpd ${ARGN}: expected exit status ${want_rc}, got '${rc}'")
  endif()
  string(STRIP "${out}" out)
  string(REPLACE "\n" ";" lines "${out}")
  list(SORT lines)
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

run_nfpd(0 plain "${HALT}" "${LOOP}")
run_nfpd(0 sliced --slice 1000 "${HALT}" "${LOOP}")

list(LENGTH plain n)
if(NOT n EQUAL 2)
  message(FATAL_ERROR "expected 2 records, got ${n}")
endif()
string(REGEX MATCH "count_loop.s\",\"ok\":true,[^;]*\"checkpoints\":[1-9]" resumed "${sliced}")
if(NOT resumed)
  message(FATAL_ERROR "the sliced loop kernel took no checkpoint")
endif()
set(strip_re ",\"slices\":[0-9]+,\"checkpoints\":[0-9]+")
string(REGEX REPLACE "${strip_re}" "" plain "${plain}")
string(REGEX REPLACE "${strip_re}" "" sliced "${sliced}")
if(NOT plain STREQUAL sliced)
  message(FATAL_ERROR "sliced records differ from unsliced ones:\n${plain}\nvs\n${sliced}")
endif()

run_nfpd(1 budget --max-insns 1000 "${LOOP}")
string(REGEX MATCH "\"ok\":false,\"error\":\"[^\"]*did not halt \\(instruction budget\\)" over "${budget}")
if(NOT over)
  message(FATAL_ERROR "no ok:false budget record for --max-insns 1000")
endif()
