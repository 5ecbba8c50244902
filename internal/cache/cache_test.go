package cache

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// jsonCodec round-trips string values; enough for metadata-level tests.
var jsonCodec = Codec{
	Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
	Decode: func(data []byte) (any, error) {
		var s string
		err := json.Unmarshal(data, &s)
		return s, err
	},
}

func mustCache(t *testing.T, opts Options) *Cache {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func put(t *testing.T, c *Cache, key string) {
	t.Helper()
	if err := c.Put(key, "v:"+key, 8); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want PolicyType
	}{
		{"fifo", FIFO}, {"lru", LRU}, {"", LRU}, {"LFU", LFU}, {"tinylfu", TinyLFU}, {"tiny-lfu", TinyLFU},
	} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParsePolicy("arc"); err == nil {
		t.Error("ParsePolicy(arc): want error")
	}
	ps, err := ParsePolicies("lru, lfu,tinylfu")
	if err != nil || len(ps) != 3 || ps[0] != LRU || ps[1] != LFU || ps[2] != TinyLFU {
		t.Errorf("ParsePolicies = %v, %v", ps, err)
	}
}

func TestFIFOEvictsInsertionOrder(t *testing.T) {
	c := mustCache(t, Options{Capacity: 3, Policy: FIFO})
	put(t, c, "a")
	put(t, c, "b")
	put(t, c, "c")
	// Touching "a" must not save it under FIFO.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	put(t, c, "d")
	if _, ok := c.Get("a"); ok {
		t.Error("FIFO kept touched oldest entry a")
	}
	for _, k := range []string{"b", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("FIFO evicted %s", k)
		}
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := mustCache(t, Options{Capacity: 3, Policy: LRU})
	put(t, c, "a")
	put(t, c, "b")
	put(t, c, "c")
	c.Get("a") // a becomes hottest; b is now coldest
	put(t, c, "d")
	if _, ok := c.Get("b"); ok {
		t.Error("LRU kept least recently used entry b")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("LRU evicted %s", k)
		}
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c := mustCache(t, Options{Capacity: 3, Policy: LFU})
	put(t, c, "a")
	put(t, c, "b")
	put(t, c, "c")
	c.Get("a")
	c.Get("a")
	c.Get("c")
	// Frequencies: a=3, c=2, b=1 → b is the victim.
	put(t, c, "d")
	if _, ok := c.Get("b"); ok {
		t.Error("LFU kept least frequent entry b")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("LFU evicted %s", k)
		}
	}
}

func TestTinyLFUAdmissionRejectsColdCandidate(t *testing.T) {
	c := mustCache(t, Options{Capacity: 2, Policy: TinyLFU})
	put(t, c, "hot1")
	put(t, c, "hot2")
	for i := 0; i < 5; i++ {
		c.Get("hot1")
		c.Get("hot2")
	}
	// A never-seen key cannot displace a hot resident.
	put(t, c, "cold")
	if _, ok := c.Get("cold"); ok {
		t.Error("TinyLFU admitted a cold candidate over hot residents")
	}
	st := c.Stats()
	if st.Rejected == 0 {
		t.Error("no admission rejections counted")
	}
	// But a key that keeps coming back builds frequency and gets in: its
	// doorkeeper bit is set by the first Get above, so further accesses
	// reach the sketch counters.
	for i := 0; i < 8; i++ {
		c.Get("comeback")
	}
	put(t, c, "comeback")
	if _, ok := c.Get("comeback"); !ok {
		t.Error("TinyLFU rejected a frequently requested candidate")
	}
}

func TestPutSameKeyRefreshes(t *testing.T) {
	c := mustCache(t, Options{Capacity: 4, Policy: LRU})
	if err := c.Put("k", "v1", 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("k", "v1", 30); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 30 {
		t.Errorf("entries=%d bytes=%d, want 1/30", st.Entries, st.Bytes)
	}
}

func TestShadowSensors(t *testing.T) {
	c := mustCache(t, Options{Capacity: 2, Policy: FIFO, Shadows: []PolicyType{LRU, LFU}})
	put(t, c, "a")
	put(t, c, "b")
	c.Get("a")
	c.Get("a")
	put(t, c, "c") // FIFO evicts a; LRU shadow would evict b
	c.Get("a")     // real miss, LRU shadow hit
	st := c.Stats()
	if len(st.Shadows) != 2 {
		t.Fatalf("want 2 shadow stats, got %d", len(st.Shadows))
	}
	if st.Shadows[0].Policy != "lru" || st.Shadows[1].Policy != "lfu" {
		t.Errorf("shadow order: %+v", st.Shadows)
	}
	if st.Shadows[0].Hits <= st.Hits {
		t.Errorf("LRU shadow hits=%d should exceed real FIFO hits=%d on this stream",
			st.Shadows[0].Hits, st.Hits)
	}
	for _, ss := range st.Shadows {
		if ss.Hits+ss.Misses != st.Hits+st.Misses {
			t.Errorf("shadow %s saw %d accesses, cache saw %d",
				ss.Policy, ss.Hits+ss.Misses, st.Hits+st.Misses)
		}
	}
}

func TestFileWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c1, err := New(Options{Capacity: 8, Policy: LRU, Path: path, Codec: jsonCodec})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := c1.Put(k, "v:"+k, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Options{Capacity: 8, Policy: LRU, Path: path, Codec: jsonCodec})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st := c2.Stats()
	if st.WarmStarts != 3 || st.Entries != 3 {
		t.Fatalf("warm start loaded %d/%d entries, want 3/3", st.WarmStarts, st.Entries)
	}
	v, ok := c2.Get("b")
	if !ok || v != "v:b" {
		t.Errorf("Get(b) after warm start = %v, %v", v, ok)
	}
}

func TestFileTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c1, err := New(Options{Capacity: 8, Policy: LRU, Path: path, Codec: jsonCodec})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("a", "v:a", 0); err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("b", "v:b", 0); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// Simulate a crash mid-append: a torn, unterminated final record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"key":"torn","si`)
	f.Close()

	c2, err := New(Options{Capacity: 8, Policy: LRU, Path: path, Codec: jsonCodec})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.WarmStarts != 2 {
		t.Fatalf("warm starts after torn tail = %d, want 2", st.WarmStarts)
	}
	// The torn bytes must be gone so the next append starts clean.
	if err := c2.Put("c", "v:c", 0); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3, err := New(Options{Capacity: 8, Policy: LRU, Path: path, Codec: jsonCodec})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if st := c3.Stats(); st.WarmStarts != 3 {
		t.Errorf("after truncate+append reload got %d entries, want 3", st.WarmStarts)
	}
	if _, ok := c3.Get("torn"); ok {
		t.Error("torn record survived")
	}
}

func TestFileNeedsCodec(t *testing.T) {
	_, err := New(Options{Path: filepath.Join(t.TempDir(), "c.jsonl")})
	if err == nil {
		t.Fatal("want error for Path without Codec")
	}
}

// TestZipfShadowOrdering drives a Zipf-skewed repeated-grid key stream (the
// EXPERIMENTS.md E16 workload) through a small cache and checks that (a)
// the skew produces a substantial hit rate despite the key space exceeding
// capacity, and (b) every shadow sensor sees the identical access count so
// their hit rates are directly comparable.
func TestZipfShadowOrdering(t *testing.T) {
	c := mustCache(t, Options{Capacity: 64, Policy: LRU, Shadows: []PolicyType{FIFO, LFU, TinyLFU}})
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.2, 1, 511) // 512-point grid, capacity 64
	const accesses = 8192
	for i := 0; i < accesses; i++ {
		key := fmt.Sprintf("point-%d", zipf.Uint64())
		if _, ok := c.Get(key); !ok {
			if err := c.Put(key, key, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses != accesses {
		t.Fatalf("accesses=%d, want %d", st.Hits+st.Misses, accesses)
	}
	if st.HitRate < 0.5 {
		t.Errorf("Zipf(1.2) hit rate = %.2f, want > 0.5", st.HitRate)
	}
	if len(st.Shadows) != 3 {
		t.Fatalf("want 3 shadows, got %d", len(st.Shadows))
	}
	for _, ss := range st.Shadows {
		if ss.Hits+ss.Misses != accesses {
			t.Errorf("shadow %s saw %d accesses, want %d", ss.Policy, ss.Hits+ss.Misses, accesses)
		}
		if ss.HitRate <= 0 {
			t.Errorf("shadow %s hit rate = %v, want > 0", ss.Policy, ss.HitRate)
		}
	}
	if st.Evictions == 0 {
		t.Error("no evictions on a 512-key stream through a 64-entry cache")
	}
}

// TestConcurrentAccess exercises the mutex under the race detector.
func TestConcurrentAccess(t *testing.T) {
	c := mustCache(t, Options{Capacity: 32, Policy: TinyLFU, Shadows: []PolicyType{LRU}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%48)
				if _, ok := c.Get(key); !ok {
					_ = c.Put(key, key, 4)
				}
				if i%50 == 0 {
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Errorf("len=%d exceeds capacity", c.Len())
	}
}

func TestEvictionAccounting(t *testing.T) {
	c := mustCache(t, Options{Capacity: 2, Policy: LRU})
	put(t, c, "a")
	put(t, c, "b")
	put(t, c, "c")
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 16 {
		t.Errorf("evictions=%d entries=%d bytes=%d, want 1/2/16", st.Evictions, st.Entries, st.Bytes)
	}
}
