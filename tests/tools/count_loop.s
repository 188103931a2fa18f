! Short counted loop for nfpd's slicing and budget paths: retires 9004
! instructions per platform, then halts with exit code 0.
_start: set 3000, %l0
loop:   subcc %l0, 1, %l0
        bne loop
        nop
        mov 0, %o0
        ta 0
