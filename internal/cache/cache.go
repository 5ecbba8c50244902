// Package cache implements a content-addressed memoization layer for
// design-space sweeps: values keyed by a canonical hash of the fully
// resolved configuration that produced them. Because a sweep point is a
// pure function of its configuration, a hit is — by construction —
// equivalent to re-simulating the point, and invalidation reduces to "the
// key changed".
//
// The cache separates the value store from eviction metadata: pluggable
// policies (FIFO, LRU, LFU, TinyLFU with doorkeeper admission) order keys
// and nominate victims without ever touching values. That split buys
// shadow sensors: extra policies run metadata-only against the live
// access stream and report the hit rate they *would* achieve, so an
// operator can compare policies on real traffic before switching.
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
	// Capacity bounds resident entries; <= 0 means 1024.
	Capacity int
	// Policy selects the active eviction policy (default LRU).
	Policy PolicyType
	// Shadows lists policies to run as metadata-only hit/miss sensors.
	Shadows []PolicyType
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

// Stats is a point-in-time snapshot of cache behavior, including the
// shadow sensors' counters. It marshals to the JSON reported through
// internal/obs RunReports.
type Stats struct {
	Policy     string        `json:"policy"`
	Capacity   int           `json:"capacity"`
	Entries    int           `json:"entries"`
	Bytes      int64         `json:"bytes"`
	Hits       int64         `json:"hits"`
	Misses     int64         `json:"misses"`
	Evictions  int64         `json:"evictions"`
	Rejected   int64         `json:"rejected"`
	WarmStarts int64         `json:"warm_starts"`
	HitRate    float64       `json:"hit_rate"`
	Shadows    []ShadowStats `json:"shadows,omitempty"`

	// AppendFailures counts persistent-tier appends that failed (short
	// write, ENOSPC, fsync error); Degraded reports that the file tier has
	// been dropped because of one and the cache now runs in-memory-only.
	AppendFailures int64 `json:"append_failures,omitempty"`
	Degraded       bool  `json:"degraded,omitempty"`
}

// ShadowStats is one shadow sensor's would-be hit/miss tally.
type ShadowStats struct {
	Policy  string  `json:"policy"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// shadow runs one policy metadata-only against the live access stream.
type shadow struct {
	typ      PolicyType
	capacity int
	pol      evictor
	hits     int64
	misses   int64
}

// access mirrors Cache.Get on metadata: a resident key is a would-be hit.
func (s *shadow) access(key string) {
	if r, ok := s.pol.(recorder); ok {
		r.record(key)
	}
	if s.pol.has(key) {
		s.hits++
		s.pol.touch(key)
		return
	}
	s.misses++
}

// insert mirrors Cache.Put on metadata, honoring the policy's admission
// filter and capacity.
func (s *shadow) insert(key string) {
	if s.pol.has(key) {
		s.pol.touch(key)
		return
	}
	if a, ok := s.pol.(admitter); ok && s.pol.len() >= s.capacity && !a.admit(key) {
		return
	}
	s.pol.add(key)
	for s.pol.len() > s.capacity {
		v, ok := s.pol.victim()
		if !ok {
			break
		}
		s.pol.remove(v)
	}
}

// entry is one resident value plus its size accounting.
type entry struct {
	v    any
	size int64
}

// Cache is a bounded, content-addressed key→value store with pluggable
// eviction. All methods are safe for concurrent use by sweep workers.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ptype    PolicyType
	policy   evictor
	values   map[string]entry
	shadows  []*shadow
	codec    Codec

	log *iofault.Log // nil when there is no file tier, or after degradation

	bytes          int64
	hits           int64
	misses         int64
	evictions      int64
	rejected       int64
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
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = 1024
	}
	c := &Cache{
		capacity: capacity,
		ptype:    opts.Policy,
		policy:   newEvictor(opts.Policy, capacity),
		values:   make(map[string]entry, capacity),
		codec:    opts.Codec,
	}
	for _, st := range opts.Shadows {
		c.shadows = append(c.shadows, &shadow{typ: st, capacity: capacity, pol: newEvictor(st, capacity)})
	}
	if opts.Path != "" {
		if opts.Codec.Encode == nil || opts.Codec.Decode == nil {
			return nil, fmt.Errorf("cache: persistent tier %q needs a codec", opts.Path)
		}
		if err := c.openFile(opts.FS, opts.Path); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// openFile warm-starts from the persistent tier's surviving records and
// opens it for append. A record that fails to decode ends the replay like
// a torn line does: it and everything after it are truncated away.
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
		c.warmStarts++
		return true
	})
	if err != nil {
		return fmt.Errorf("cache: file tier: %w", err)
	}
	c.log = log
	return nil
}

// Get returns the value stored under key. Every lookup — hit or miss —
// feeds the active policy's frequency estimator and the shadow sensors.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shadows {
		s.access(key)
	}
	if r, ok := c.policy.(recorder); ok {
		r.record(key)
	}
	ent, ok := c.values[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.policy.touch(key)
	return ent.v, true
}

// Put stores a deep-copy-owned value under key. size is the caller's
// resident-footprint estimate; <= 0 falls back to the codec's encoded
// length (or 1). The only error source is the codec: a persistent-tier
// append failure does not fail the Put — the value stays resident, the
// cache degrades to in-memory-only and the failure is counted in Stats.
func (c *Cache) Put(key string, v any, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shadows {
		s.insert(key)
	}
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
	if old, ok := c.values[key]; ok {
		// Content-addressed: a re-store under the same key carries the
		// same value; refresh size accounting and recency only.
		c.bytes += size - old.size
		c.values[key] = entry{v: v, size: size}
		c.policy.touch(key)
		return nil
	}
	if a, ok := c.policy.(admitter); ok && len(c.values) >= c.capacity && !a.admit(key) {
		c.rejected++
		return nil
	}
	c.insertLocked(key, v, size)
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

// insertLocked stores the value and evicts past capacity. Caller holds mu.
func (c *Cache) insertLocked(key string, v any, size int64) {
	if old, ok := c.values[key]; ok {
		c.bytes += size - old.size
		c.values[key] = entry{v: v, size: size}
		c.policy.touch(key)
		return
	}
	c.values[key] = entry{v: v, size: size}
	c.bytes += size
	c.policy.add(key)
	for len(c.values) > c.capacity {
		victim, ok := c.policy.victim()
		if !ok {
			break
		}
		c.removeLocked(victim)
		c.evictions++
	}
}

// removeLocked drops a key from the store and the policy.
func (c *Cache) removeLocked(key string) {
	if ent, ok := c.values[key]; ok {
		c.bytes -= ent.size
		delete(c.values, key)
	}
	c.policy.remove(key)
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
	return len(c.values)
}

// Stats snapshots the counters, including each shadow sensor's.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Policy:     c.ptype.String(),
		Capacity:   c.capacity,
		Entries:    len(c.values),
		Bytes:      c.bytes,
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Rejected:   c.rejected,
		WarmStarts: c.warmStarts,

		AppendFailures: c.appendFailures,
		Degraded:       c.degraded,
	}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	for _, sh := range c.shadows {
		ss := ShadowStats{Policy: sh.typ.String(), Hits: sh.hits, Misses: sh.misses}
		if total := sh.hits + sh.misses; total > 0 {
			ss.HitRate = float64(sh.hits) / float64(total)
		}
		s.Shadows = append(s.Shadows, ss)
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
