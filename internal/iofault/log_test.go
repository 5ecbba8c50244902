package iofault_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sst/internal/cache"
	"sst/internal/core"
)

// TestRecordLogGolden pins the on-disk format of both record-log users
// against committed fixtures: a sweep journal (one success, one failure
// with retries, then a torn final line) and a result-cache warm-start file
// (torn final line), both written by the implementation that predates the
// shared log. Loading a fixture must recover exactly its complete records
// and cut the torn tail; re-appending the recovered records to a fresh
// file must reproduce the complete lines byte for byte. Together that
// proves existing files still load and journal lines — which
// GET /v1/jobs/{id}/events streams verbatim — are unchanged.
func TestRecordLogGolden(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		// reload opens the log at path through its user, checks that the
		// records under keys (and nothing else) were recovered, and appends
		// each recovered record, in order, to a fresh log at out.
		reload func(t *testing.T, path, out string, keys []string)
	}{
		{"journal.jsonl", reloadJournal},
		{"cache.jsonl", reloadCache},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			complete := raw[:bytes.LastIndexByte(raw, '\n')+1]
			if len(complete) == len(raw) {
				t.Fatal("fixture has no torn final line")
			}
			var keys []string
			for _, line := range bytes.SplitAfter(complete, []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				var rec struct{ Key string }
				if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
					t.Fatalf("fixture record %q: %v", line, err)
				}
				keys = append(keys, rec.Key)
			}

			dir := t.TempDir()
			path, out := filepath.Join(dir, "in.jsonl"), filepath.Join(dir, "out.jsonl")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			tc.reload(t, path, out, keys)

			if got, _ := os.ReadFile(path); !bytes.Equal(got, complete) {
				t.Errorf("reopened log holds %d bytes, want the %d bytes of complete records", len(got), len(complete))
			}
			if got, _ := os.ReadFile(out); !bytes.Equal(got, complete) {
				t.Errorf("re-appended records differ from the fixture:\n got %s\nwant %s", got, complete)
			}
		})
	}
}

func reloadJournal(t *testing.T, path, out string, keys []string) {
	j, err := core.OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != len(keys) {
		t.Fatalf("journal recovered %d records, want %d", j.Len(), len(keys))
	}
	re, err := core.OpenJournal(out, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, k := range keys {
		ent, ok := j.Completed(k)
		if !ok {
			t.Fatalf("journal lost record %q", k)
		}
		var perr error
		if ent.Err != "" {
			perr = errors.New(ent.Err)
		}
		if err := re.Record(k, ent.Result, ent.Retries, perr); err != nil {
			t.Fatal(err)
		}
	}
}

func reloadCache(t *testing.T, path, out string, keys []string) {
	c, err := core.NewSweepCache(16, cache.LRU, nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Stats(); st.WarmStarts != int64(len(keys)) || st.Entries != len(keys) {
		t.Fatalf("cache warm-started %d records (%d resident), want %d", st.WarmStarts, st.Entries, len(keys))
	}
	re, err := core.NewSweepCache(16, cache.LRU, nil, out)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, k := range keys {
		v, ok := c.Get(k)
		if !ok {
			t.Fatalf("cache lost record %q", k)
		}
		if err := re.Put(k, v, 0); err != nil {
			t.Fatal(err)
		}
	}
}
