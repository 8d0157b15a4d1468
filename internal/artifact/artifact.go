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

	hits, misses, compiles, evictions uint64
	// metrics, when set, mirrors the counters into the registry under
	// artifact.cache.*.
	metrics *obs.Registry
}

// flight is one in-progress build other callers wait on.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// NewCache builds a cache bounded at maxBytes of compiled artifacts
// (≤0 means a 64 MiB default). reg, when non-nil, receives the cache
// counters as artifact.cache.{hits,misses,compiles,evictions}.
func NewCache(maxBytes int64, reg *obs.Registry) *Cache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Cache{
		maxBytes: maxBytes,
		entries:  map[string]*list.Element{},
		inflight: map[string]*flight{},
		metrics:  reg,
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
	c.hits++
	c.count("artifact.cache.hits")
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
		c.hits++
		c.count("artifact.cache.hits")
		c.mu.Unlock()
		return el.Value.(*Entry), true, nil
	}
	c.misses++
	c.count("artifact.cache.misses")
	if fl, ok := c.inflight[fp]; ok {
		// Another submission of the same program is compiling right now;
		// join it instead of compiling again.
		c.mu.Unlock()
		<-fl.done
		return fl.entry, false, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[fp] = fl
	c.compiles++
	c.count("artifact.cache.compiles")
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
		c.evictions++
		c.count("artifact.cache.evictions")
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Compiles: c.compiles,
		Evictions: c.evictions, Entries: len(c.entries), Bytes: c.bytes,
	}
}

func (c *Cache) count(name string) {
	if c.metrics != nil {
		c.metrics.Counter(name).Inc()
	}
}
