// Package cache implements a content-addressed memoization layer for
// design-space sweeps: values keyed by a canonical hash of the fully
// resolved configuration that produced them. Because a sweep point is a
// pure function of its configuration, a hit is — by construction —
// equivalent to re-simulating the point, and invalidation reduces to "the
// key changed".
//
// Eviction is least-recently-used over one recency list. Replays of real
// sweep-service traffic (EXPERIMENTS.md E16) showed capacity, not policy,
// decides the hit rate, so LRU is the only policy.
//
// An optional persistent tier appends every stored entry to an fsync'd
// JSONL file through iofault's record log (the one the sweep journal
// uses, including torn-tail truncation on load), so a cache survives
// process restarts and a new invocation warm-starts from disk.
//
// The persistent tier is an accelerator, not a ledger: when the host
// storage under it starts failing mid-run (ENOSPC, fsync errors), the
// cache degrades to in-memory-only — the failing file is dropped, every
// Put keeps succeeding against RAM, and the degradation is visible in
// Stats (Degraded, AppendFailures) rather than in sweep errors. Sweep
// results are identical either way; only the next warm-start is poorer.
package cache

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"sst/internal/iofault"
)

// Codec serializes cache values for the persistent tier. Encode/Decode
// must round-trip exactly (encoding/json on float64 fields does).
type Codec struct {
	Encode func(v any) ([]byte, error)
	Decode func(data []byte) (any, error)
}

// Options configures a Cache.
type Options struct {
	// Capacity bounds resident entries; it must be at least 1.
	Capacity int
	// Path, when non-empty, names the persistent JSONL tier: existing
	// entries are loaded at New (tolerating a torn final line) and every
	// Put is appended and fsync'd. Requires Codec.
	Path string
	// Codec serializes values for the persistent tier; also used to size
	// entries whose Put passes size <= 0.
	Codec Codec
	// FS, when non-nil, is the host-storage seam the persistent tier reads
	// and writes through; nil means the real filesystem (iofault.Disk).
	// The crash-point harness substitutes an iofault.MemFS here.
	FS iofault.FS
}

// Stats is a point-in-time snapshot of cache behavior. It marshals to the
// JSON a sweep's -metrics-out and the service report carry.
type Stats struct {
	// Policy is always "lru"; it stays in the report schema for readers.
	Policy   string `json:"policy"`
	Capacity int    `json:"capacity"`
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	Hits     int64  `json:"hits"`
	Misses   int64  `json:"misses"`
	// Evictions counts entries dropped for capacity by this process's
	// Puts; a warm start replaying an oversized file adds nothing here.
	Evictions int64 `json:"evictions"`
	// WarmStarts is the number of entries the file tier left resident
	// when the cache opened.
	WarmStarts int64   `json:"warm_starts"`
	HitRate    float64 `json:"hit_rate"`

	// AppendFailures counts persistent-tier appends that failed (short
	// write, ENOSPC, fsync error); Degraded reports that the file tier has
	// been dropped because of one and the cache now runs in-memory-only.
	AppendFailures int64 `json:"append_failures,omitempty"`
	Degraded       bool  `json:"degraded,omitempty"`
}

// entry is one resident value plus its size accounting; it is the value
// of its element in the recency list.
type entry struct {
	key  string
	v    any
	size int64
}

// Cache is a bounded, content-addressed key→value store with LRU
// eviction. All methods are safe for concurrent use by sweep workers.
type Cache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front is the least recently used entry
	items    map[string]*list.Element
	codec    Codec

	log *iofault.Log // nil when there is no file tier, or after degradation

	bytes          int64
	hits           int64
	misses         int64
	evictions      int64
	warmStarts     int64
	appendFailures int64
	degraded       bool
}

// fileEntry is one persistent-tier JSONL record.
type fileEntry struct {
	Key  string          `json:"key"`
	Size int64           `json:"size"`
	Val  json.RawMessage `json:"val"`
}

// New builds a cache; with Options.Path set it warm-starts from the file's
// surviving records and opens it for fsync'd appends.
func New(opts Options) (*Cache, error) {
	if opts.Path != "" && (opts.Codec.Encode == nil || opts.Codec.Decode == nil) {
		return nil, fmt.Errorf("cache: persistent tier %q needs a codec", opts.Path)
	}
	if opts.Capacity < 1 {
		return nil, fmt.Errorf("cache: capacity %d, want at least 1", opts.Capacity)
	}
	c := &Cache{
		capacity: opts.Capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element, opts.Capacity),
		codec:    opts.Codec,
	}
	if opts.Path != "" {
		if err := c.openFile(opts.FS, opts.Path); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// openFile warm-starts from the persistent tier's surviving records and
// opens it for append. A record that fails to decode ends the replay like
// a torn line does: it and everything after it are truncated away. Records
// replay in file order, so a file holding more keys than the capacity
// leaves its most recently appended entries resident; those, not the
// records read, are the warm starts, and the replay's evictions are not
// counted.
func (c *Cache) openFile(fsys iofault.FS, path string) error {
	if fsys == nil {
		fsys = iofault.Disk
	}
	log, err := iofault.OpenLog(fsys, path, func(line []byte) bool {
		var fe fileEntry
		if json.Unmarshal(line, &fe) != nil || fe.Key == "" {
			return false
		}
		v, err := c.codec.Decode(fe.Val)
		if err != nil {
			return false
		}
		c.insertLocked(fe.Key, v, fe.Size)
		return true
	})
	if err != nil {
		return fmt.Errorf("cache: file tier: %w", err)
	}
	c.log = log
	c.warmStarts = int64(c.order.Len())
	c.evictions = 0
	return nil
}

// Get returns the value stored under key; a hit makes key the most
// recently used entry.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToBack(e)
	return e.Value.(*entry).v, true
}

// Put stores a deep-copy-owned value under key. size is the caller's
// resident-footprint estimate; <= 0 falls back to the codec's encoded
// length (or 1). The only error source is the codec: a persistent-tier
// append failure does not fail the Put — the value stays resident, the
// cache degrades to in-memory-only and the failure is counted in Stats.
func (c *Cache) Put(key string, v any, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var encoded []byte
	if c.codec.Encode != nil && (size <= 0 || c.log != nil) {
		var err error
		if encoded, err = c.codec.Encode(v); err != nil {
			return fmt.Errorf("cache: encoding %q: %w", key, err)
		}
	}
	if size <= 0 {
		size = int64(len(encoded))
		if size <= 0 {
			size = 1
		}
	}
	// Content-addressed: a re-store under the same key carries the same
	// value, so only size accounting and recency change, and the file
	// tier already holds it.
	_, resident := c.items[key]
	c.insertLocked(key, v, size)
	if resident {
		return nil
	}
	// A failed append degrades the tier instead of failing the Put: the
	// cache is a memoizer, so a sweep must never fail because its
	// accelerator's disk filled up, and the torn-tail load already makes a
	// partially-appended record harmless on the next start.
	if c.log != nil {
		rec, err := json.Marshal(fileEntry{Key: key, Size: size, Val: encoded})
		if err != nil || c.log.Append(rec) != nil {
			c.degradeLocked()
		}
	}
	return nil
}

// insertLocked stores the value as the most recently used entry and
// evicts from the cold end past capacity. Caller holds mu.
func (c *Cache) insertLocked(key string, v any, size int64) {
	if e, ok := c.items[key]; ok {
		ent := e.Value.(*entry)
		c.bytes += size - ent.size
		ent.v, ent.size = v, size
		c.order.MoveToBack(e)
		return
	}
	c.items[key] = c.order.PushBack(&entry{key: key, v: v, size: size})
	c.bytes += size
	for c.order.Len() > c.capacity {
		ent := c.order.Remove(c.order.Front()).(*entry)
		delete(c.items, ent.key)
		c.bytes -= ent.size
		c.evictions++
	}
}

// degradeLocked drops the persistent tier after an append failure: close
// the failing file (best effort — the storage is already suspect) and run
// in-memory-only from here on. Counted, and surfaced through Stats.
func (c *Cache) degradeLocked() {
	c.appendFailures++
	c.degraded = true
	if c.log != nil {
		c.log.Close()
		c.log = nil
	}
}

// Len returns the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Policy:     LRU.String(),
		Capacity:   c.capacity,
		Entries:    c.order.Len(),
		Bytes:      c.bytes,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		WarmStarts: c.warmStarts,

		AppendFailures: c.appendFailures,
		Degraded:       c.degraded,
	}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	return s
}

// Close closes the persistent tier, if any. Safe to call repeatedly.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}
