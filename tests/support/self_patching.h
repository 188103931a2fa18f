// A program that patches one of its own text words while it runs, for the
// warm code image tests (sim/platform.h): any platform that keeps its image
// warm holds decoded words that differ from what the next load or restore
// puts in RAM.
#pragma once

#include <cstdint>
#include <string>

#include "asmkit/assembler.h"
#include "sim/executor.h"
#include "sim/memmap.h"

namespace nfp::testing {

// Loops `iters` times over `patch`. The first three passes run it pristine
// ("add %o0, 1, %o0"); from the fourth on, each pass rewrites it to
// "add %o0, (i & 7) + 2, %o0", so the word changes on every later pass and
// ends different from the pristine image. A load per pass strides over
// SDRAM rows (2 KiB apart, wrapping after 1024 passes). The running sum
// goes to the output window, once to the UART, and is the exit code.
inline asmkit::Program self_patching_program(int iters = 200) {
  return asmkit::assemble(R"(
_start: mov 0, %o0
        mov 0, %l7
        set patch, %g1
        set 0x90022000, %l1
        set 0x40C00000, %g3
loop:
patch:  add %o0, 1, %o0
        add %l7, 1, %l7
        st %o0, [%g3]
        and %l7, 0x3ff, %l5
        sll %l5, 11, %l5
        ld [%g3 + %l5], %l6
        cmp %l7, 4
        bl next
        and %l7, 7, %l2
        add %l2, 2, %l2
        or %l1, %l2, %l3
        st %l3, [%g1]
next:   cmp %l7, )" + std::to_string(iters) + R"(
        bne loop
        nop
        set 0x80000000, %g4
        add %o0, 64, %l4
        st %l4, [%g4]
        ta 0
)",
                          sim::kTextBase);
}

// Steps `platform` (an Iss or a Board) until it sits at `next` after the
// fifth pass: the last pass has just rewritten `patch`, and the next
// instruction that reads it is the fetch of `patch` itself. A snapshot
// taken here holds a patched word that no later store rewrites before it
// runs.
template <class Platform>
void run_to_fresh_patch(Platform& platform, const asmkit::Program& program) {
  constexpr std::uint8_t kL7 = 23;
  const std::uint32_t next = program.symbol("next");
  while (!(platform.cpu().pc == next && platform.cpu().r[kL7] >= 5)) {
    platform.run(1, sim::Dispatch::kStep);
  }
}

// Exit code of self_patching_program(iters).
inline unsigned self_patching_sum(int iters = 200) {
  unsigned sum = 0;
  for (int i = 0; i < iters; ++i) sum += i < 4 ? 1u : (i & 7u) + 2u;
  return sum;
}

}  // namespace nfp::testing
