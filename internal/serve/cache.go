package serve

import (
	"bytes"
	"compress/gzip"
	"container/list"
	"sync"
	"sync/atomic"
)

// resultCache is the result store: a normalized spec's canonical JSON
// (Spec.AppendJSON) -> encoded outcome bytes, with LRU eviction at a fixed
// entry budget. The canonical JSON is injective on normalized specs (it
// parses and normalizes back to the same spec), so two specs share an
// entry only if every field is the same, and a POST body that is already
// canonical can probe the map as it stands. The entry carries the content
// address (Spec.Key), computed once when the result was simulated, for
// the X-Spec-Key header.
// An entry's encoded bytes are never modified once inserted, so a hit can
// hand the stored slice to the response writer without copying. One mutex
// guards one recency list and map: a lookup holds it for a map probe and a
// list move, well under a microsecond, against the milliseconds a request
// spends in HTTP and simulation.
type resultCache struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions uint64
}

// cacheEntry is one cached result. Everything a hit response needs is
// ready after insertion — the identity bytes and the single-element header
// slice for X-Spec-Key — so serving a hit performs no per-request work
// beyond map lookup and writes. The gzip variant is built on the entry's
// first hit that negotiates gzip, not at insertion: most results are never
// requested compressed, and compressing at insertion would add ~10µs/KB to
// every miss's latency. Nothing else about an entry changes after
// publication: re-inserting a key replaces the element's entry wholesale,
// so a reader holding the old pointer keeps a consistent (data, gzip) pair.
type cacheEntry struct {
	key    string   // canonical spec JSON, the entry's map key
	data   []byte   // canonical encoded outcome (identity encoding)
	keyHdr []string // {content address}, preallocated for direct header-map assignment
	// gz is the gzip variant once built: nil until the first gzip hit,
	// then a pointer to the compressed bytes, or to nil when the body is
	// too small or does not shrink.
	gz atomic.Pointer[[]byte]
}

// gzip returns the entry's gzip variant, building it on first use, or nil
// when compression does not pay. Concurrent first callers may each
// compress, but the first to publish wins and every caller returns the
// published bytes, so all responses for one entry are identical.
func (e *cacheEntry) gzip() []byte {
	if p := e.gz.Load(); p != nil {
		return *p
	}
	gz := gzipVariant(e.data)
	if e.gz.CompareAndSwap(nil, &gz) {
		return gz
	}
	return *e.gz.Load()
}

// minGzipSize is the smallest body worth compressing: below it the gzip
// header/trailer overhead and the client's inflate outweigh the bytes
// saved on a loopback or datacenter link.
const minGzipSize = 512

// gzipWriterPool recycles gzip compressors across variant builds (each
// carries ~256KB of LZ77 window and Huffman state).
var gzipWriterPool = sync.Pool{New: func() any {
	w, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
	return w
}}

// gzipVariant returns the gzip encoding of data, or nil when compression
// is not worthwhile (tiny body, or output not actually smaller). BestSpeed
// is deliberate: outcome JSON is highly repetitive (long runs of numeric
// report fields), so even the cheapest setting halves it, and the variant
// is computed at most once per cached result, then served arbitrarily many
// times.
func gzipVariant(data []byte) []byte {
	if len(data) < minGzipSize {
		return nil
	}
	var buf bytes.Buffer
	buf.Grow(len(data) / 2)
	zw := gzipWriterPool.Get().(*gzip.Writer)
	zw.Reset(&buf)
	if _, err := zw.Write(data); err != nil {
		gzipWriterPool.Put(zw)
		return nil
	}
	if err := zw.Close(); err != nil {
		gzipWriterPool.Put(zw)
		return nil
	}
	gzipWriterPool.Put(zw)
	if buf.Len() >= len(data) {
		return nil
	}
	return bytes.Clone(buf.Bytes())
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, ll: list.New(), items: make(map[string]*list.Element, max)}
}

// get returns the cached entry for key, refreshing its recency. Callers
// may hold the entry past the lock.
func (c *resultCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// getBytes is get for a key still rendered as bytes. The map index
// compiles to a no-copy lookup (the string(key) conversion in index
// position does not allocate), so the request hot path can probe the
// cache straight from a POST body's read buffer or its stack key buffer.
func (c *resultCache) getBytes(key []byte) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put inserts key -> data under the content address addr and returns the
// new entry, evicting the least recently used entry when the cache is at
// capacity. Re-inserting an existing key refreshes its recency and
// replaces its entry wholesale — concurrent readers holding the superseded
// entry still see a consistent (data, gzip) pair. Only the identity bytes
// are stored; see cacheEntry.gzip.
func (c *resultCache) put(key, addr string, data []byte) *cacheEntry {
	e := &cacheEntry{key: key, data: data, keyHdr: []string{addr}}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value = e
		return e
	}
	if c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(e)
	return e
}

// stats returns the entry count and the lifetime eviction count.
func (c *resultCache) stats() (entries int, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.evictions
}
