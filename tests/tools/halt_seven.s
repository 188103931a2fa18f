! Smallest well-formed nfpd job: halts at once with exit code 7.
_start: mov 7, %o0
        ta 0
