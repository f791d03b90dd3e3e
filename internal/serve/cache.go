package serve

import (
	"bytes"
	"compress/gzip"
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
)

// resultCache is the content-addressed result store: canonical spec hash
// -> encoded outcome bytes, with LRU eviction at a fixed entry budget.
// An entry's encoded bytes are never modified once inserted, so a hit can
// hand the stored slice to the response writer without copying.
//
// The cache is sharded: the entry budget splits across N independent LRU
// shards (N = GOMAXPROCS rounded up to a power of two, reduced until every
// shard holds at least minShardEntries), each with its own mutex, recency
// list, and eviction counter. A key's shard is the first byte of its
// SHA-256 content address, so placement is uniform and deterministic, and
// concurrent lookups on different shards never contend — the single global
// cache mutex was the first serialization point to fall over the moment
// GOMAXPROCS exceeded 1. Eviction is LRU within a shard (budget/N entries),
// which approximates global LRU for any working set large enough to spread
// across shards; caches too small to shard keep one shard and exact LRU.
type resultCache struct {
	shards []cacheShard
	mask   uint32 // len(shards) - 1; shard count is a power of two
}

// cacheShard is one independently locked LRU unit of the result cache.
type cacheShard struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	evictions uint64
	_         [24]byte // keep neighboring shards' hot fields off one cache line
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
	key    string
	data   []byte   // canonical encoded outcome (identity encoding)
	keyHdr []string // {key}, preallocated for direct header-map assignment
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

// minShardEntries is the smallest per-shard budget worth sharding for:
// below it, splitting a tiny cache would turn the entry bound and LRU
// order into per-shard accidents of key placement, so the cache stays
// single-shard and exactly LRU instead.
const minShardEntries = 64

// maxShards bounds the shard count to what one address byte can index.
const maxShards = 256

// shardCount selects the number of shards for a cache of max entries:
// GOMAXPROCS rounded up to a power of two, halved until each shard's
// budget reaches minShardEntries (a 2-entry test cache gets 1 shard; the
// default 1024 entries on a 16-way host get 16 shards of 64).
func shardCount(max int) int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < maxShards {
		n <<= 1
	}
	for n > 1 && max/n < minShardEntries {
		n >>= 1
	}
	return n
}

// shardIndex maps a canonical spec key to its shard: the first byte of the
// SHA-256 (the key's leading two hex digits), masked to the shard count.
// SHA-256 output is uniform, so low bits of the first byte spread keys
// evenly for any power-of-two shard count up to maxShards.
func shardIndex(key string, mask uint32) uint32 {
	if mask == 0 || len(key) < 2 {
		return 0
	}
	return uint32(hexNibble(key[0])<<4|hexNibble(key[1])) & mask
}

// shardIndexBytes is shardIndex for a key still held as bytes (the request
// path renders keys into a stack buffer and avoids materializing a string
// until a cache miss makes one necessary).
func shardIndexBytes(key []byte, mask uint32) uint32 {
	if mask == 0 || len(key) < 2 {
		return 0
	}
	return uint32(hexNibble(key[0])<<4|hexNibble(key[1])) & mask
}

// hexNibble decodes one lowercase hex digit (the alphabet hex.EncodeToString
// emits); any other byte maps to 0 rather than erroring, since a malformed
// key only costs shard balance, not correctness.
func hexNibble(c byte) byte {
	switch {
	case c >= '0' && c <= '9':
		return c - '0'
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10
	}
	return 0
}

func newResultCache(max int) *resultCache {
	return newResultCacheShards(max, shardCount(max))
}

// newResultCacheShards builds a cache of max total entries split across an
// explicit power-of-two shard count (tests pin the count; newResultCache
// derives it from GOMAXPROCS).
func newResultCacheShards(max, shards int) *resultCache {
	c := &resultCache{shards: make([]cacheShard, shards), mask: uint32(shards - 1)}
	base, extra := max/shards, max%shards
	for i := range c.shards {
		s := &c.shards[i]
		s.max = base
		if i < extra {
			s.max++
		}
		if s.max < 1 {
			s.max = 1
		}
		s.ll = list.New()
		s.items = make(map[string]*list.Element, s.max)
	}
	return c
}

// get returns the cached entry for key, refreshing its recency within its
// shard. Callers may hold the entry past the lock.
func (c *resultCache) get(key string) (*cacheEntry, bool) {
	s := &c.shards[shardIndex(key, c.mask)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// getBytes is get for a key still rendered as bytes. The map index
// compiles to a no-copy lookup (the string(key) conversion in index
// position does not allocate), so the request hot path can probe the
// cache straight from its stack key buffer.
func (c *resultCache) getBytes(key []byte) (*cacheEntry, bool) {
	s := &c.shards[shardIndexBytes(key, c.mask)]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[string(key)]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put inserts key -> data, evicting the least recently used entry of the
// key's shard when that shard is at capacity. Re-inserting an existing key
// refreshes its recency and replaces its entry wholesale — concurrent
// readers holding the superseded entry still see a consistent (data, gzip)
// pair. Only the identity bytes are stored; see cacheEntry.gzip.
func (c *resultCache) put(key string, data []byte) {
	e := &cacheEntry{key: key, data: data, keyHdr: []string{key}}
	s := &c.shards[shardIndex(key, c.mask)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		el.Value = e
		return
	}
	if s.ll.Len() >= s.max {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		s.evictions++
	}
	s.items[key] = s.ll.PushFront(e)
}

// stats returns the entry and lifetime eviction counts summed across
// shards, plus the shard count.
func (c *resultCache) stats() (entries int, evictions uint64, shards int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += s.ll.Len()
		evictions += s.evictions
		s.mu.Unlock()
	}
	return entries, evictions, len(c.shards)
}
