package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sst/internal/cache"
	"sst/internal/cli"
	"sst/internal/core"
	"sst/internal/obs"
	"syscall"
)

// openCache opens the result cache the -cache* flags in args describe,
// through the same flag group main registers.
func openCache(args ...string) (*cache.Cache, error) {
	fs := flag.NewFlagSet("sst-dse", flag.ContinueOnError)
	g := cli.NewCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return g.Open()
}

func TestDSESmallSweep(t *testing.T) {
	if err := run("stream", "ddr3-1333,gddr5-4000", "1,2", "small", "all", core.FormatTable, core.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := run("stream", "ddr3-1333", "1", "small", "fig10", core.FormatCSV, core.SweepOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	// Explicit parallel sweep: more workers than points is fine.
	if err := run("stream", "ddr3-1333", "1,2", "small", "fig12", core.FormatCSV, core.SweepOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	// The flat grid view is a Result too.
	if err := run("stream", "ddr3-1333", "1", "small", "grid", core.FormatJSON, core.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestDSESweepObs(t *testing.T) {
	col := &obs.SweepCollector{}
	opts := core.SweepOptions{Workers: 2, Metrics: col}
	if err := run("stream", "ddr3-1333", "1,2", "small", "fig10", core.FormatTable, opts); err != nil {
		t.Fatal(err)
	}
	if got := len(col.Points()); got != 2 {
		t.Fatalf("collector saw %d points, want 2", got)
	}
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	trace := filepath.Join(dir, "t.json")
	if err := writeSweepObs(col, nil, metrics, trace); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{metrics, trace} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("%s: invalid JSON: %v", path, err)
		}
	}
}

func TestDSEResilienceMode(t *testing.T) {
	if err := runResilience("1,4", 60, 120, 2, 3, 7, core.FormatTable, core.SweepOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := runResilience("zero", 60, 120, 2, 3, 7, core.FormatTable, core.SweepOptions{}); err == nil {
		t.Error("bad mtbf accepted")
	}
	if err := runResilience("1", 60, 120, -2, 3, 7, core.FormatCSV, core.SweepOptions{}); err == nil {
		t.Error("negative work accepted")
	}
}

func TestDSEBadArgs(t *testing.T) {
	err := run("stream", "ddr3-1333", "zero", "small", "all", core.FormatTable, core.SweepOptions{})
	if err == nil {
		t.Error("bad width accepted")
	} else if cli.Code(err) != cli.ExitConfig {
		t.Errorf("bad width maps to exit %d, want %d", cli.Code(err), cli.ExitConfig)
	}
	err = run("stream", "ddr3-1333", "1", "jumbo", "all", core.FormatTable, core.SweepOptions{})
	if err == nil {
		t.Error("bad scale accepted")
	} else if cli.Code(err) != cli.ExitConfig {
		t.Errorf("bad scale maps to exit %d, want %d", cli.Code(err), cli.ExitConfig)
	}
	err = run("stream", "ddr3-1333", "1", "small", "fig99", core.FormatTable, core.SweepOptions{})
	if err == nil {
		t.Error("bad table accepted")
	} else if cli.Code(err) != cli.ExitConfig {
		t.Errorf("bad table maps to exit %d, want %d", cli.Code(err), cli.ExitConfig)
	}
	if err := run("stream", "sdram", "1", "small", "all", core.FormatTable, core.SweepOptions{}); err == nil {
		t.Error("bad tech accepted")
	}
}

// TestDSEExitCodes pins the sweep outcomes callers script against: a
// timed-out point means "completed with failures" (3), a Ctrl-C cancel
// means "interrupted" (130).
func TestDSEExitCodes(t *testing.T) {
	// An unsatisfiable per-point deadline fails every point.
	err := run("stream", "ddr3-1333", "1", "small", "grid", core.FormatCSV,
		core.SweepOptions{Workers: 1, PointTimeout: time.Nanosecond})
	if err == nil {
		t.Fatal("timed-out sweep reported success")
	}
	if cli.Code(err) != cli.ExitPointFailed {
		t.Errorf("timed-out sweep maps to exit %d, want %d (err: %v)", cli.Code(err), cli.ExitPointFailed, err)
	}
	// A pre-cancelled context is an interrupted sweep, not a failed one.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = run("stream", "ddr3-1333", "1", "small", "grid", core.FormatCSV,
		core.SweepOptions{Workers: 1, Context: ctx})
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if cli.Code(err) != cli.ExitInterrupted {
		t.Errorf("cancelled sweep maps to exit %d, want %d (err: %v)", cli.Code(err), cli.ExitInterrupted, err)
	}
}

// TestDSEJournalResume: a sweep interrupted after journaling some points
// resumes to the same grid an uninterrupted sweep produces.
func TestDSEJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	opts := core.SweepOptions{Workers: 2, Journal: journal}
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV, opts); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV, opts); err != nil {
		t.Fatalf("resume: %v", err)
	}
}

// TestDSECacheFlags pins the flag-to-cache wiring: parsing, the
// -cache-file-implies--cache rule, and bad policy rejection.
func TestDSECacheFlags(t *testing.T) {
	if c, err := openCache(); err != nil || c != nil {
		t.Fatalf("disabled cache = %v, %v; want nil, nil", c, err)
	}
	c, err := openCache("-cache", "-cache-size", "16", "-cache-policy", "tinylfu", "-cache-shadow", "lru,lfu")
	if err != nil || c == nil {
		t.Fatalf("openCache: %v", err)
	}
	st := c.Stats()
	if st.Policy != "tinylfu" || st.Capacity != 16 || len(st.Shadows) != 2 {
		t.Fatalf("cache built wrong: %+v", st)
	}
	c.Close()
	// -cache-file implies -cache.
	fc, err := openCache("-cache-size", "8", "-cache-file", filepath.Join(t.TempDir(), "c.jsonl"))
	if err != nil || fc == nil {
		t.Fatalf("cache-file without -cache: %v, %v", fc, err)
	}
	fc.Close()
	if _, err := openCache("-cache", "-cache-policy", "arc"); cli.Code(err) != cli.ExitConfig {
		t.Errorf("bad policy: %v, want a configuration error", err)
	}
	if _, err := openCache("-cache", "-cache-shadow", "lfu,arc"); cli.Code(err) != cli.ExitConfig {
		t.Errorf("bad shadow policy: %v, want a configuration error", err)
	}
}

// TestDSECachedSweep runs the same grid twice through one cache and
// requires the second pass to be all hits; the cache stats also land in
// the -metrics-out JSON.
func TestDSECachedSweep(t *testing.T) {
	sc, err := openCache("-cache", "-cache-size", "64", "-cache-shadow", "lfu,tinylfu")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	opts := core.SweepOptions{Workers: 2, Cache: sc}
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV, opts); err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("cold pass stats %+v", st)
	}
	col := &obs.SweepCollector{}
	opts.Metrics = col
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV, opts); err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("warm pass stats %+v, want 2 hits 2 misses", st)
	}

	metrics := filepath.Join(t.TempDir(), "m.json")
	if err := writeSweepObs(col, sc, metrics, ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var points any
	if err := dec.Decode(&points); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	var rep struct {
		Cache *struct {
			Policy  string `json:"policy"`
			Hits    int64  `json:"hits"`
			Shadows []struct {
				Policy string `json:"policy"`
			} `json:"shadows"`
		} `json:"cache"`
	}
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("metrics JSON cache report: %v", err)
	}
	if rep.Cache == nil || rep.Cache.Policy != "lru" || rep.Cache.Hits != 2 || len(rep.Cache.Shadows) != 2 {
		t.Fatalf("cache report in metrics JSON = %+v", rep.Cache)
	}
}

// TestDSECacheFileWarmStart simulates two separate CLI invocations sharing
// a -cache-file: the second builds a fresh cache from the file and serves
// every point without re-simulating.
func TestDSECacheFileWarmStart(t *testing.T) {
	file := filepath.Join(t.TempDir(), "results.jsonl")
	sc1, err := openCache("-cache-size", "64", "-cache-file", file)
	if err != nil {
		t.Fatal(err)
	}
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV,
		core.SweepOptions{Workers: 2, Cache: sc1}); err != nil {
		t.Fatal(err)
	}
	if st := sc1.Stats(); st.Misses != 2 {
		t.Fatalf("first invocation stats %+v", st)
	}
	if err := sc1.Close(); err != nil {
		t.Fatal(err)
	}

	sc2, err := openCache("-cache-size", "64", "-cache-file", file)
	if err != nil {
		t.Fatal(err)
	}
	defer sc2.Close()
	if st := sc2.Stats(); st.WarmStarts != 2 {
		t.Fatalf("second invocation warm-started %d points, want 2", st.WarmStarts)
	}
	if err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV,
		core.SweepOptions{Workers: 2, Cache: sc2}); err != nil {
		t.Fatal(err)
	}
	st := sc2.Stats()
	if st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("second invocation stats %+v, want 2 hits 0 misses (no re-simulation)", st)
	}
}

// TestDSESIGTERMDrains: a supervisor's SIGTERM behaves exactly like
// Ctrl-C — the signal context cancels, the sweep drains, and the error
// maps to the interrupted exit code.
func TestDSESIGTERMDrains(t *testing.T) {
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the signal context")
	}
	err := run("stream", "ddr3-1333", "1,2", "small", "grid", core.FormatCSV,
		core.SweepOptions{Workers: 1, Context: ctx})
	if err == nil {
		t.Fatal("sweep under SIGTERM reported success")
	}
	if cli.Code(err) != cli.ExitInterrupted {
		t.Fatalf("SIGTERM maps to exit %d, want %d (err: %v)", cli.Code(err), cli.ExitInterrupted, err)
	}
}
