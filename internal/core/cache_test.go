package core

// Result-cache properties: a cache-hit grid renders byte-identical to a
// cold uncached run for every study type and at any worker count; cached
// node results are field-for-field equal to
// simulated ones; and the codec round-trips both value kinds exactly.

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"sst/internal/cache"
	"sst/internal/sim"
)

func csvOf(t *testing.T, r Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

func newTestCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := NewSweepCache(256, cache.LRU, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCachedPointBitIdentical runs every study type cold (no cache), then
// twice against a cache — miss pass, then hit pass — and requires the hit
// pass's rendered CSV to be byte-identical to the cold run's. The DSE
// study runs at one and at three workers. Subtests carry the cache's
// policy, lru, in their names.
func TestCachedPointBitIdentical(t *testing.T) {
	apps, techs, widths := []string{"stream"}, []string{"ddr3-1333"}, []int{1, 2}
	coldGrid, err := MemTechWidthSweep(apps, techs, widths, Small, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	coldCSV := csvOf(t, coldGrid)

	for _, workers := range []int{1, 3} {
		t.Run("dse/lru", func(t *testing.T) {
			c := newTestCache(t)
			// Arena-reusing workers must not perturb the cached bytes:
			// the miss pass simulates on warm arenas, the hit pass reads
			// back, and both must match the arena-free cold run.
			opts := SweepOptions{Workers: workers, Cache: c, Arena: NewArenaPool()}
			if _, err := MemTechWidthSweep(apps, techs, widths, Small, opts); err != nil {
				t.Fatal(err)
			}
			if got := c.Stats(); got.Misses != int64(len(widths)) || got.Hits != 0 {
				t.Fatalf("cold pass stats %+v, want %d misses 0 hits", got, len(widths))
			}
			warm, err := MemTechWidthSweep(apps, techs, widths, Small, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Stats(); got.Hits != int64(len(widths)) {
				t.Fatalf("hit pass stats %+v, want %d hits", got, len(widths))
			}
			if gotCSV := csvOf(t, warm); !bytes.Equal(gotCSV, coldCSV) {
				t.Errorf("workers %d: cached grid CSV differs from cold run\n got %s\nwant %s",
					workers, gotCSV, coldCSV)
			}
			// Field-for-field equality on the grid itself, modulo the
			// one host-time field.
			for i := range warm.Points {
				w, r := *warm.Points[i].Result, *coldGrid.Points[i].Result
				w.HostSeconds, r.HostSeconds = 0, 0
				if !reflect.DeepEqual(w, r) {
					t.Errorf("point %d diverged\n got %+v\nwant %+v", i, w, r)
				}
			}
		})
	}

	// The remaining study types; every study runs a miss pass and a hit
	// pass against one cache.
	type study struct {
		name string
		run  func(opts SweepOptions) (Result, error)
	}
	studies := []study{
		{"memspeed", func(o SweepOptions) (Result, error) {
			return MemSpeedStudy([]string{"ddr3-1066", "ddr3-1333"}, Small, o)
		}},
		{"corescaling", func(o SweepOptions) (Result, error) {
			return CoreScalingStudy([]string{"stream"}, []int{1, 2}, Small, o)
		}},
		{"cachestudy", func(o SweepOptions) (Result, error) {
			return CacheStudy(Small, o)
		}},
		{"pim", func(o SweepOptions) (Result, error) {
			return PIMStudy([]string{"gups"}, Small, o)
		}},
		{"weakscaling", func(o SweepOptions) (Result, error) {
			return WeakScalingStudy([]int{4, 8}, 1, o)
		}},
		{"netdegradation", func(o SweepOptions) (Result, error) {
			cfg := NetStudyConfig{Nodes: 8, Fractions: []float64{1, 0.5}, Steps: 2}
			return NetDegradationStudy(cfg, o)
		}},
	}
	for _, s := range studies {
		t.Run(s.name+"/lru", func(t *testing.T) {
			cold, err := s.run(SweepOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			c := newTestCache(t)
			if _, err := s.run(SweepOptions{Workers: 2, Cache: c}); err != nil {
				t.Fatal(err)
			}
			if got := c.Stats(); got.Hits != 0 || got.Misses == 0 {
				t.Fatalf("cold pass stats %+v, want misses only", got)
			}
			warm, err := s.run(SweepOptions{Workers: 2, Cache: c})
			if err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.Hits != st.Misses {
				t.Fatalf("hit pass stats %+v, want hits == misses (every point a hit)", st)
			}
			if got, want := csvOf(t, warm), csvOf(t, cold); !bytes.Equal(got, want) {
				t.Errorf("cached study CSV differs from cold run\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestNewSweepCacheArgs pins the narrowed constructor: the policy and
// shadow parameters accept only cache.LRU and no shadows, and the
// capacity must be at least 1 (cache.New no longer substitutes a default).
func TestNewSweepCacheArgs(t *testing.T) {
	c := newTestCache(t)
	if st := c.Stats(); st.Policy != "lru" || st.Capacity != 256 {
		t.Fatalf("stats %+v, want lru at capacity 256", st)
	}
	for _, tc := range []struct {
		name     string
		capacity int
		policy   cache.PolicyType
		shadows  []cache.PolicyType
	}{
		{"other policy", 16, cache.PolicyType(1), nil},
		{"shadow", 16, cache.LRU, []cache.PolicyType{cache.LRU}},
		{"zero capacity", 0, cache.LRU, nil},
		{"negative capacity", -3, cache.LRU, nil},
	} {
		if _, err := NewSweepCache(tc.capacity, tc.policy, tc.shadows, ""); err == nil {
			t.Errorf("%s: NewSweepCache accepted it", tc.name)
		}
	}
}

// TestRunMachineCached pins the hit/miss contract directly: second call
// hits, results match field-for-field (modulo host time), and the returned
// copies do not alias the cache's stored value.
func TestRunMachineCached(t *testing.T) {
	c := newTestCache(t)
	cfg := SweepMachine("stream", "ddr3-1333", 1, Small)
	r1, hit, err := RunMachineCached(context.Background(), c, cfg)
	if err != nil || hit {
		t.Fatalf("first run: hit=%v err=%v", hit, err)
	}
	r2, hit, err := RunMachineCached(context.Background(), c, cfg)
	if err != nil || !hit {
		t.Fatalf("second run: hit=%v err=%v", hit, err)
	}
	a, b := *r1, *r2
	a.HostSeconds, b.HostSeconds = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("cached result diverged\n got %+v\nwant %+v", b, a)
	}
	// Mutating a returned result must not poison the cache.
	r2.IPC = -1
	r3, hit, err := RunMachineCached(context.Background(), c, cfg)
	if err != nil || !hit {
		t.Fatalf("third run: hit=%v err=%v", hit, err)
	}
	if r3.IPC == -1 {
		t.Error("cached value aliases a previously returned result")
	}
	// Nil cache degrades to a plain run.
	r4, hit, err := RunMachineCached(context.Background(), nil, cfg)
	if err != nil || hit || r4 == nil {
		t.Fatalf("nil-cache run: res=%v hit=%v err=%v", r4, hit, err)
	}
}

// TestResultCodecRoundTrip: both cached value kinds survive
// encode→decode exactly (the persistent tier depends on it).
func TestResultCodecRoundTrip(t *testing.T) {
	codec := ResultCodec()
	res, err := RunMachine(SweepMachine("stream", "ddr3-1333", 1, Small))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := codec.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back.(*NodeResult)) {
		t.Errorf("NodeResult did not round-trip\n got %+v\nwant %+v", back, res)
	}

	blob, err = codec.Encode(sim.Time(123456789))
	if err != nil {
		t.Fatal(err)
	}
	back, err = codec.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.(sim.Time) != sim.Time(123456789) {
		t.Errorf("sim.Time round-trip = %v", back)
	}

	if _, err := codec.Encode(struct{}{}); err == nil {
		t.Error("codec accepted an unsupported type")
	}
}

// TestSweepCacheWarmStartAcrossInstances: the persistent tier makes a new
// cache instance (a new process, in CLI terms) hit on points simulated by
// a previous one.
func TestSweepCacheWarmStartAcrossInstances(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	c1, err := NewSweepCache(64, cache.LRU, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepMachine("stream", "ddr3-1333", 2, Small)
	ref, hit, err := RunMachineCached(context.Background(), c1, cfg)
	if err != nil || hit {
		t.Fatalf("seed run: hit=%v err=%v", hit, err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := NewSweepCache(64, cache.LRU, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.WarmStarts != 1 {
		t.Fatalf("warm starts = %d, want 1", st.WarmStarts)
	}
	got, hit, err := RunMachineCached(context.Background(), c2, cfg)
	if err != nil || !hit {
		t.Fatalf("warm-started run: hit=%v err=%v", hit, err)
	}
	a, b := *ref, *got
	a.HostSeconds, b.HostSeconds = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("file-tier result diverged\n got %+v\nwant %+v", b, a)
	}
}
