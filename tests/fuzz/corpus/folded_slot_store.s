! nfpfuzz reproducer (directed)
! seed: n/a (hand-written regression program)
! mix: selfmod
! divergence: dispatch jit vs step: exit code 15 under jit, 21 under step
!   and block. The block "add; st; ba loop" folds its delay slot `slot`
!   into the emitted code, and its own store patches that slot from
!   "mov 1, %o1" to "mov 7, %o1". The store kills the block in flight; the
!   interpreter then executes the slot from the re-decoded image, so the
!   jit must not run its stale folded copy.
! step instret: 37 (halted)
  .text
  .global _start
_start:
  mov 0, %l7
  mov 0, %o0
  mov 0, %o1
  set slot, %g1
  set word, %g2
  ld [%g2], %l0
loop:
  add %o0, %o1, %o0
  cmp %l7, 3
  be done
  nop
  add %l7, 1, %l7
  st %l0, [%g1]
  ba loop
slot:
  mov 1, %o1
done:
  ta 0
word:
  mov 7, %o1
