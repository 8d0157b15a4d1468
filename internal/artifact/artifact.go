// Package artifact is the content-addressed compiled-program cache
// behind the multi-tenant ingestion front door (grown from
// examples/artifactcache): programs are fingerprinted over their
// canonicalized IR text, compiled once under every scheme, and the
// compiled images are kept in a size-bounded LRU so concurrent
// submissions of the same program compile exactly once (single-flight)
// and repeat submissions compile zero times.
package artifact

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"sync"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Fingerprint returns the content hash of a function: SHA-256 over the
// canonical ir.Func.String rendering, truncated to 128 bits (32 hex
// characters). Canonicalizing through String first means whitespace,
// comments, and block-label spelling differences in the submitted text
// do not change the fingerprint — two sources that parse to the same IR
// are the same program.
func Fingerprint(f *ir.Func) string {
	sum := sha256.Sum256([]byte(f.String()))
	return hex.EncodeToString(sum[:16])
}

// fingerprintRE is the shape of a Fingerprint: 32 lowercase hex
// characters.
var fingerprintRE = regexp.MustCompile(`^[0-9a-f]{32}$`)

// ValidFingerprint reports whether fp has the shape of a Fingerprint.
func ValidFingerprint(fp string) bool { return fingerprintRE.MatchString(fp) }

// Entry is one cached compilation: the program compiled under every
// scheme, keyed by fingerprint, with enough metadata to validate a
// campaign spec against it without reparsing the source.
type Entry struct {
	Fingerprint string
	// Name is the parsed function name (informational).
	Name string
	// Schemes maps scheme name ("baseline", "turnstile", "turnpike") to
	// the compiled executable image.
	Schemes map[string]*isa.Program
	// SBSize is the store-buffer size the resilient schemes were
	// compiled for; campaigns against this entry must simulate the same.
	SBSize int
	// Blocks/Instrs/VRegs describe the parsed IR.
	Blocks, Instrs, VRegs int
	// SourceBytes is len(source) of the submitted text.
	SourceBytes int
	// size is the cache-accounting cost in bytes (wire size of every
	// compiled image plus the source), fixed at build time.
	size int64
}

// Size returns the entry's cache-accounting cost in bytes.
func (e *Entry) Size() int64 { return e.size }

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64 // Get/GetOrCompute served from the cache
	Misses    uint64 // GetOrCompute had to build (or join a build)
	Compiles  uint64 // build functions actually run (single-flight dedup keeps this ≤ Misses)
	Evictions uint64 // entries dropped by the LRU size bound
	Entries   int    // resident entries
	Bytes     int64  // resident bytes
}

// Cache is the size-bounded LRU of compiled entries with single-flight
// build dedup: concurrent GetOrCompute calls for one fingerprint run the
// build function once and share its result. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element // fingerprint → LRU element holding *Entry
	lru      list.List                // front = most recently used
	inflight map[string]*flight

	// The counters live in a registry, as artifact.cache.*.
	hits, misses, compiles, evictions *obs.Counter
}

// flight is one in-progress build other callers wait on.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// NewCache builds a cache bounded at maxBytes of compiled artifacts
// (≤0 means a 64 MiB default). It counts in reg, as
// artifact.cache.{hits,misses,compiles,evictions}, or in a registry of
// its own when reg is nil.
func NewCache(maxBytes int64, reg *obs.Registry) *Cache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Cache{
		maxBytes:  maxBytes,
		entries:   map[string]*list.Element{},
		inflight:  map[string]*flight{},
		hits:      reg.Counter("artifact.cache.hits"),
		misses:    reg.Counter("artifact.cache.misses"),
		compiles:  reg.Counter("artifact.cache.compiles"),
		evictions: reg.Counter("artifact.cache.evictions"),
	}
}

// Get returns the cached entry for fp, marking it most recently used.
func (c *Cache) Get(fp string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*Entry), true
}

// GetOrCompute returns the entry for fp, building it with build on a
// miss. Concurrent calls for the same fp share one build (single-flight):
// exactly one runs build, the rest block until it finishes and return
// the same entry or error. hit reports whether the call was served
// without running (or waiting on) a build. A build error is returned to
// every waiter and nothing is cached.
func (c *Cache) GetOrCompute(fp string, build func() (*Entry, error)) (e *Entry, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[fp]; ok {
		c.lru.MoveToFront(el)
		c.hits.Inc()
		c.mu.Unlock()
		return el.Value.(*Entry), true, nil
	}
	c.misses.Inc()
	if fl, ok := c.inflight[fp]; ok {
		// Another submission of the same program is compiling right now;
		// join it instead of compiling again.
		c.mu.Unlock()
		<-fl.done
		return fl.entry, false, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[fp] = fl
	c.compiles.Inc()
	c.mu.Unlock()

	fl.entry, fl.err = build()
	if fl.err == nil && fl.entry == nil {
		fl.err = fmt.Errorf("artifact: build for %s returned no entry", fp)
	}

	c.mu.Lock()
	delete(c.inflight, fp)
	if fl.err == nil {
		c.insertLocked(fp, fl.entry)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.entry, false, fl.err
}

// insertLocked adds an entry and evicts from the LRU tail until the
// size bound holds. An entry larger than the whole bound is still
// admitted alone — the submission already paid for the compile, and the
// next insert will evict it.
func (c *Cache) insertLocked(fp string, e *Entry) {
	if el, ok := c.entries[fp]; ok {
		// Lost a race with an identical insert; keep the resident one.
		c.lru.MoveToFront(el)
		return
	}
	c.entries[fp] = c.lru.PushFront(e)
	c.bytes += e.Size()
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		tail := c.lru.Back()
		victim := tail.Value.(*Entry)
		c.lru.Remove(tail)
		delete(c.entries, victim.Fingerprint)
		c.bytes -= victim.Size()
		c.evictions.Inc()
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits.Value(), Misses: c.misses.Value(), Compiles: c.compiles.Value(),
		Evictions: c.evictions.Value(), Entries: len(c.entries), Bytes: c.bytes,
	}
}
