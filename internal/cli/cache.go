package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sst/internal/cache"
	"sst/internal/core"
	"sst/internal/obs"
)

// CacheFlags is the -cache* flag group of the sweep commands (sst-dse,
// sst-net, sst-serve). It registers the five flags, opens the result
// cache they describe, and owns closing it and printing its stderr
// summary, so every command wires the cache the same way.
type CacheFlags struct {
	enabled *bool
	size    *int
	policy  *string
	shadow  *string
	file    *string
	c       *cache.Cache
}

// NewCacheFlags registers -cache, -cache-size, -cache-policy,
// -cache-shadow and -cache-file on fs.
func NewCacheFlags(fs *flag.FlagSet) *CacheFlags {
	return &CacheFlags{
		enabled: fs.Bool("cache", false, "memoize sweep points by config hash (repeated or overlapping grids re-simulate only what is new)"),
		size:    fs.Int("cache-size", 4096, "result cache capacity in sweep points"),
		policy:  fs.String("cache-policy", "lru", "eviction policy: fifo, lru, lfu or tinylfu"),
		shadow:  fs.String("cache-shadow", "", "comma-separated policies to run as metadata-only hit-rate sensors"),
		file:    fs.String("cache-file", "", "persist cached results to this JSONL file and warm-start from it (implies -cache)"),
	}
}

// Open builds the result cache the flags describe; nil when caching is
// off. A -cache-file implies -cache. Bad policy names and an unusable
// cache file are configuration errors.
func (g *CacheFlags) Open() (*cache.Cache, error) {
	if !*g.enabled && *g.file == "" {
		return nil, nil
	}
	pol, err := cache.ParsePolicy(*g.policy)
	if err != nil {
		return nil, Configf("%v", err)
	}
	shadows, err := cache.ParsePolicies(*g.shadow)
	if err != nil {
		return nil, Configf("%v", err)
	}
	if g.c, err = core.NewSweepCache(*g.size, pol, shadows, *g.file); err != nil {
		return nil, Configf("%v", err)
	}
	return g.c, nil
}

// PrintSummary writes the one-line greppable hit/miss roll-up, plus one
// line per shadow sensor, to stderr. Nothing when caching is off.
func (g *CacheFlags) PrintSummary(prog string) {
	if g.c == nil {
		return
	}
	st := g.c.Stats()
	fmt.Fprintf(os.Stderr,
		"%s: cache policy=%s entries=%d hits=%d misses=%d hit_rate=%.3f evictions=%d rejected=%d bytes=%d warm_starts=%d\n",
		prog, st.Policy, st.Entries, st.Hits, st.Misses, st.HitRate, st.Evictions, st.Rejected, st.Bytes, st.WarmStarts)
	for _, sh := range st.Shadows {
		fmt.Fprintf(os.Stderr, "%s: cache shadow policy=%s hits=%d misses=%d hit_rate=%.3f\n",
			prog, sh.Policy, sh.Hits, sh.Misses, sh.HitRate)
	}
}

// Close closes the cache opened by Open, if any, and returns err with a
// close failure folded in (err wins when both are set). Commands call it
// on their way to Exit — Exit never returns, so a deferred Close would not
// run.
func (g *CacheFlags) Close(err error) error {
	if g.c == nil {
		return err
	}
	if cerr := g.c.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// WriteCacheReport appends c's RunReport — hit/miss/eviction counters and
// every shadow sensor — to a -metrics-out stream, after the per-point
// metrics. Nothing is written when c is nil.
func WriteCacheReport(w io.Writer, c *cache.Cache) error {
	if c == nil {
		return nil
	}
	col := obs.NewCollector()
	col.AttachCache(c)
	return col.Report().WriteJSON(w)
}

// WriteFile creates path and streams write into it: the writer behind
// every command's -metrics-out and -trace-out.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
