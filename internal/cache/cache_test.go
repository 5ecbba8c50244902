package cache

import (
	"encoding/json"
	"fmt"
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

// TestParsePolicy pins the narrowed policy surface: LRU is the one
// policy, spelled "lru" or left empty, and every other name is an error.
func TestParsePolicy(t *testing.T) {
	for _, in := range []string{"lru", "", "LRU", " lru "} {
		if got, err := ParsePolicy(in); err != nil || got != LRU {
			t.Errorf("ParsePolicy(%q) = %v, %v; want lru", in, got, err)
		}
	}
	for _, in := range []string{"fifo", "lfu", "tinylfu", "arc"} {
		if _, err := ParsePolicy(in); err == nil {
			t.Errorf("ParsePolicy(%q): want error", in)
		}
	}
	if LRU.String() != "lru" {
		t.Errorf("LRU.String() = %q", LRU.String())
	}
	c := mustCache(t, Options{Capacity: 4})
	if st := c.Stats(); st.Policy != "lru" {
		t.Errorf("Stats.Policy = %q, want lru", st.Policy)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := mustCache(t, Options{Capacity: 3})
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

func TestPutSameKeyRefreshes(t *testing.T) {
	c := mustCache(t, Options{Capacity: 4})
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

func TestFileWarmStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c1, err := New(Options{Capacity: 8, Path: path, Codec: jsonCodec})
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

	c2, err := New(Options{Capacity: 8, Path: path, Codec: jsonCodec})
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

	// A file with more records than keys, and more keys than the new
	// capacity: the warm starts are the entries left resident, and the
	// replay's own evictions are not this process's.
	small := filepath.Join(t.TempDir(), "small.jsonl")
	c3, err := New(Options{Capacity: 2, Path: small, Codec: jsonCodec})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c", "a", "d"} { // "a" is evicted, then stored again
		if _, ok := c3.Get(k); !ok {
			put(t, c3, k)
		}
	}
	c3.Close()
	c4 := mustCache(t, Options{Capacity: 2, Path: small, Codec: jsonCodec})
	st = c4.Stats()
	if st.WarmStarts != 2 || st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("5 records for 4 keys at capacity 2: warm_starts=%d entries=%d evictions=%d, want 2/2/0",
			st.WarmStarts, st.Entries, st.Evictions)
	}
	for _, k := range []string{"a", "d"} {
		if _, ok := c4.Get(k); !ok {
			t.Errorf("last-appended entry %s not resident after warm start", k)
		}
	}
}

func TestFileTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c1, err := New(Options{Capacity: 8, Path: path, Codec: jsonCodec})
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

	c2, err := New(Options{Capacity: 8, Path: path, Codec: jsonCodec})
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
	c3, err := New(Options{Capacity: 8, Path: path, Codec: jsonCodec})
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

// TestConcurrentAccess exercises the mutex under the race detector.
func TestConcurrentAccess(t *testing.T) {
	c := mustCache(t, Options{Capacity: 32})
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
	c := mustCache(t, Options{Capacity: 2})
	put(t, c, "a")
	put(t, c, "b")
	put(t, c, "c")
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 16 {
		t.Errorf("evictions=%d entries=%d bytes=%d, want 1/2/16", st.Evictions, st.Entries, st.Bytes)
	}
}
