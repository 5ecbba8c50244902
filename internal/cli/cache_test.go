package cli

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sst/internal/core"
)

// TestCacheFlagsCloseStopsAppends: the group's close step really closes
// the cache it opened — a Put after it leaves the warm-start file alone,
// because a closed cache no longer appends.
func TestCacheFlagsCloseStopsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	fs := flag.NewFlagSet("sst-dse", flag.ContinueOnError)
	g := NewCacheFlags(fs)
	if err := fs.Parse([]string{"-cache-file", path}); err != nil {
		t.Fatal(err)
	}
	c, err := g.Open()
	if err != nil || c == nil {
		t.Fatalf("Open with -cache-file = %v, %v", c, err)
	}
	size := func() int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if err := c.Put("a", &core.NodeResult{Name: "a"}, 0); err != nil {
		t.Fatal(err)
	}
	open := size()
	if open == 0 {
		t.Fatal("an open cache did not append to its file")
	}
	if err := g.Close(nil); err != nil {
		t.Fatalf("close step: %v", err)
	}
	if err := c.Put("b", &core.NodeResult{Name: "b"}, 0); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != open {
		t.Fatalf("cache file grew from %d to %d bytes after the close step", open, got)
	}
}
