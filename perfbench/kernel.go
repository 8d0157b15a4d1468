package main

import (
	"fmt"
	"strings"

	"repro/internal/rng"
)

// kernelGen generates self-initializing IR kernels from a seed. Loop
// bound, operations, constants and array placement all vary, so every
// generated kernel has its own canonical text, hence its own fingerprint
// and a real compile at the front door. The kernels need no memory
// seeder: each loop iteration stores the element it then loads.
type kernelGen struct{ s *rng.Stream }

func newKernelGen(seed int64) *kernelGen { return &kernelGen{rng.New(seed)} }

var (
	kernelMixOps  = []string{"add", "xor", "mul", "or", "sub"}
	kernelFoldOps = []string{"add", "xor", "sub"}
)

// next returns the next kernel's IR text.
func (g *kernelGen) next() string {
	s := g.s
	n := 16 + s.Intn(81) // loop iterations
	base := 0x20000 + 0x1000*s.Intn(64)
	var b strings.Builder
	fmt.Fprintf(&b, "func k%x\n", s.Intn(1<<30))
	b.WriteString("b0: -> b1\n")
	fmt.Fprintf(&b, "    movi v0, #%d\n", s.Intn(1<<20))
	b.WriteString("    movi v1, #0\n")
	fmt.Fprintf(&b, "    movi v2, #%d\n", 1+s.Intn(1<<16))
	b.WriteString("b1: -> b3 b2\n")
	fmt.Fprintf(&b, "    bge v1, #%d\n", 8*n)
	b.WriteString("b2: -> b1\n")
	fmt.Fprintf(&b, "    %s v3, v1, v2\n", kernelMixOps[s.Intn(len(kernelMixOps))])
	if s.Intn(2) == 0 {
		fmt.Fprintf(&b, "    %s v3, v3, #%d\n", kernelMixOps[s.Intn(len(kernelMixOps))], 1+s.Intn(255))
	}
	fmt.Fprintf(&b, "    st v3, [v1, #%d]\n", base)
	fmt.Fprintf(&b, "    ld v4, [v1, #%d]\n", base)
	fmt.Fprintf(&b, "    %s v0, v0, v4\n", kernelFoldOps[s.Intn(len(kernelFoldOps))])
	b.WriteString("    add v1, v1, #8\n")
	b.WriteString("    jmp\n")
	b.WriteString("b3:\n")
	fmt.Fprintf(&b, "    st v0, [v1, #%d]\n", base+0x8000)
	b.WriteString("    halt\n")
	return b.String()
}
