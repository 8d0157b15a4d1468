package ir

import "math/bits"

// RegSet is a dense bitset over virtual registers, used by the dataflow
// analyses. The zero value is an empty set of capacity zero; use NewRegSet
// to size it for a function.
type RegSet struct {
	words []uint64
}

// NewRegSet returns an empty set able to hold registers [0, n).
func NewRegSet(n int) RegSet {
	return RegSet{words: make([]uint64, (n+63)/64)}
}

// Add inserts v.
func (s RegSet) Add(v VReg) { s.words[v>>6] |= 1 << (uint(v) & 63) }

// Remove deletes v.
func (s RegSet) Remove(v VReg) { s.words[v>>6] &^= 1 << (uint(v) & 63) }

// Has reports membership.
func (s RegSet) Has(v VReg) bool {
	if v < 0 || int(v>>6) >= len(s.words) {
		return false
	}
	return s.words[v>>6]&(1<<(uint(v)&63)) != 0
}

// UnionWith adds all members of o to s, reporting whether s changed.
func (s RegSet) UnionWith(o RegSet) bool {
	changed := false
	for i := range o.words {
		nw := s.words[i] | o.words[i]
		if nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// CopyFrom overwrites s with o.
func (s RegSet) CopyFrom(o RegSet) {
	copy(s.words, o.words)
	for i := len(o.words); i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// Len returns the number of members.
func (s RegSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy.
func (s RegSet) Clone() RegSet {
	return RegSet{words: append([]uint64(nil), s.words...)}
}

// ForEach calls fn for every member in ascending order.
func (s RegSet) ForEach(fn func(VReg)) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(VReg(i*64 + b))
			w &= w - 1
		}
	}
}

// Members returns the set contents in ascending order.
func (s RegSet) Members() []VReg {
	out := make([]VReg, 0, s.Len())
	s.ForEach(func(v VReg) { out = append(out, v) })
	return out
}
