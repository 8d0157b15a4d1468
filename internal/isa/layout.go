package isa

// Address-space layout shared by the compiler, workload generators, and
// simulator. The regions are disjoint so functional-equivalence checks can
// mask out compiler-private memory (spill slots, checkpoint storage) and
// compare only program data.
const (
	// StackBase is where register-allocator spill slots live; the stack
	// pointer (r0) is initialized to this value by the compiler prologue.
	StackBase uint64 = 0x1000
	// StackLimit bounds the spill area.
	StackLimit uint64 = 0x10000
	// DataBase is where workload data arrays are placed.
	DataBase uint64 = 0x10000
	// DefaultCkptBase is the architected checkpoint storage region
	// (NumRegs * NumColors slots of 8 bytes).
	DefaultCkptBase uint64 = 0x100000
)
