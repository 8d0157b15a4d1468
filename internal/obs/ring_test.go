package obs

import (
	"reflect"
	"testing"
)

// TestRingKeepsTheLast: a ring returns the values it holds oldest
// first, across the wrap point, filtered or whole, and counts the
// values it overwrote; an empty ring returns nil.
func TestRingKeepsTheLast(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Values(nil); got != nil {
		t.Fatalf("an empty ring returns %v", got)
	}
	for i := range 7 {
		r.Append(i)
	}
	even := func(v *int) bool { return *v%2 == 0 }
	if got := r.Values(nil); !reflect.DeepEqual(got, []int{3, 4, 5, 6}) {
		t.Errorf("ring holds %v, want [3 4 5 6]", got)
	}
	if got := r.Values(even); !reflect.DeepEqual(got, []int{4, 6}) {
		t.Errorf("even values %v, want [4 6]", got)
	}
	if r.Dropped() != 3 {
		t.Errorf("dropped %d, want 3", r.Dropped())
	}
}
