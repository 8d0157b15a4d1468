package artifact

import (
	"fmt"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ir"
	"repro/internal/obs"
)

const dotSource = `func dot
b0: -> b1
    movi v0, #0
    movi v1, #0
b1: -> b2 b1
    ld v2, [v1, #0]
    ld v3, [v1, #1024]
    mul v2, v2, v3
    add v0, v0, v2
    add v1, v1, #8
    blt v1, #64
b2:
    st v0, [v1, #4096]
    halt
`

// The same program with different whitespace, ordering of incidental
// formatting, and extra blank lines — must fingerprint identically
// because Fingerprint hashes the canonical String rendering.
const dotSourceMessy = "func dot\n\n" +
	"b0:    ->   b1\n" +
	"  movi   v0, #0\n" +
	"\tmovi v1, #0\n" +
	"b1: -> b2 b1\n" +
	"    ld v2, [v1, #0]\n" +
	"    ld v3, [v1, #1024]\n" +
	"    mul v2, v2, v3\n" +
	"    add v0, v0, v2\n" +
	"    add v1, v1, #8\n" +
	"    blt v1, #64\n" +
	"\n" +
	"b2:\n" +
	"    st v0, [v1, #4096]\n" +
	"    halt\n"

func parse(t *testing.T, src string) *ir.Func {
	t.Helper()
	f, err := ir.ParseFunc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func TestFingerprintCanonicalization(t *testing.T) {
	a := Fingerprint(parse(t, dotSource))
	b := Fingerprint(parse(t, dotSourceMessy))
	if a != b {
		t.Fatalf("formatting changed the fingerprint: %s vs %s", a, b)
	}
	if !regexp.MustCompile(`^[0-9a-f]{32}$`).MatchString(a) {
		t.Fatalf("fingerprint %q is not 32 lowercase hex chars", a)
	}
	// A one-immediate change is a different program.
	changed := parse(t, dotSource)
	changed.Blocks[0].Instrs[0].Imm = 7
	if Fingerprint(changed) == a {
		t.Fatal("distinct programs share a fingerprint")
	}
}

func TestCompileAllSchemes(t *testing.T) {
	f := parse(t, dotSource)
	e, err := CompileAll(f, 4, len(dotSource))
	if err != nil {
		t.Fatalf("CompileAll: %v", err)
	}
	for _, name := range SchemeNames {
		if e.Schemes[name] == nil {
			t.Errorf("scheme %q missing from entry", name)
		}
	}
	if e.SBSize != 4 || e.Name != "dot" || e.Fingerprint != Fingerprint(parse(t, dotSource)) {
		t.Errorf("entry metadata wrong: %+v", e)
	}
	if e.Size() <= int64(len(dotSource)) {
		t.Errorf("entry size %d should exceed raw source (%d): compiled images count", e.Size(), len(dotSource))
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(0, nil)
	f := parse(t, dotSource)
	fp := Fingerprint(f)

	var builds atomic.Int64
	build := func() (*Entry, error) {
		builds.Add(1)
		return CompileAll(f.Clone(), 4, len(dotSource))
	}

	const callers = 16
	var wg sync.WaitGroup
	entries := make([]*Entry, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := c.GetOrCompute(fp, build)
			if err != nil {
				t.Errorf("GetOrCompute: %v", err)
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times for concurrent identical submissions, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if entries[i] != entries[0] {
			t.Fatal("concurrent callers got different entries")
		}
	}
	st := c.Stats()
	if st.Compiles != 1 {
		t.Errorf("Stats.Compiles = %d, want 1", st.Compiles)
	}
	if st.Entries != 1 {
		t.Errorf("Stats.Entries = %d, want 1", st.Entries)
	}

	// A later identical submission is a pure hit: zero new compiles.
	if _, hit, err := c.GetOrCompute(fp, build); err != nil || !hit {
		t.Fatalf("resubmission: hit=%v err=%v, want cache hit", hit, err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("resubmission recompiled (builds=%d)", n)
	}
}

// TestCacheCountsInRegistry: a cache given a registry counts there, and
// Stats reads the same counters.
func TestCacheCountsInRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(0, reg)
	build := func() (*Entry, error) { return &Entry{Fingerprint: "fp"}, nil }
	for i := 0; i < 3; i++ {
		if _, _, err := c.GetOrCompute("fp", build); err != nil {
			t.Fatal(err)
		}
	}
	st, got := c.Stats(), reg.Snapshot().Counters
	if st.Hits != 2 || st.Misses != 1 || st.Compiles != 1 || st.Evictions != 0 {
		t.Fatalf("Stats = %+v, want 2 hits, 1 miss, 1 compile", st)
	}
	if got["artifact.cache.hits"] != st.Hits || got["artifact.cache.misses"] != st.Misses ||
		got["artifact.cache.compiles"] != st.Compiles || got["artifact.cache.evictions"] != 0 {
		t.Fatalf("registry counts %v, Stats %+v", got, st)
	}
}

func TestCacheBuildErrorNotCached(t *testing.T) {
	c := NewCache(0, nil)
	wantErr := fmt.Errorf("boom")
	if _, _, err := c.GetOrCompute("deadbeef", func() (*Entry, error) { return nil, wantErr }); err == nil {
		t.Fatal("build error swallowed")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed build left %d entries resident", st.Entries)
	}
	// The next attempt must run the build again (errors are not cached).
	ran := false
	_, _, err := c.GetOrCompute("deadbeef", func() (*Entry, error) {
		ran = true
		return nil, wantErr
	})
	if err == nil || !ran {
		t.Fatalf("retry after failed build: ran=%v err=%v", ran, err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Entries of 100 bytes each; bound admits exactly two.
	mk := func(fp string) *Entry {
		return &Entry{Fingerprint: fp, size: 100}
	}
	c := NewCache(200, nil)
	for _, fp := range []string{"a", "b"} {
		fp := fp
		if _, _, err := c.GetOrCompute(fp, func() (*Entry, error) { return mk(fp), nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU tail, then insert "c".
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	if _, _, err := c.GetOrCompute("c", func() (*Entry, error) { return mk("c"), nil }); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get("b"); ok {
		t.Error("LRU victim b still resident")
	}
	for _, fp := range []string{"a", "c"} {
		if _, ok := c.Get(fp); !ok {
			t.Errorf("entry %s evicted, want resident", fp)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("Stats.Evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes != 200 {
		t.Errorf("Stats.Bytes = %d, want 200", st.Bytes)
	}
}

func TestCacheOversizedEntryAdmitted(t *testing.T) {
	// An entry larger than the whole bound is still admitted alone — the
	// compile is already paid for — and evicted by the next insert.
	c := NewCache(50, nil)
	if _, _, err := c.GetOrCompute("big", func() (*Entry, error) {
		return &Entry{Fingerprint: "big", size: 500}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("big"); !ok {
		t.Fatal("oversized entry rejected outright; should be admitted alone")
	}
	if _, _, err := c.GetOrCompute("small", func() (*Entry, error) {
		return &Entry{Fingerprint: "small", size: 10}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("big"); ok {
		t.Error("oversized entry survived the next insert")
	}
}
