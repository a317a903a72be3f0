#include "textflag.h"

// func lines(p unsafe.Pointer, n int)
TEXT ·lines(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX
	ADDQ AX, CX    // end of the range
	ANDQ $-64, AX  // start of its first line
loop:
	PREFETCHT0 (AX)
	ADDQ $64, AX
	CMPQ AX, CX
	JCS  loop      // unsigned AX < end
	RET
