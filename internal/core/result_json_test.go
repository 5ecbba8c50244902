package core

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"sst/internal/cache"
)

// TestNodeResultInfiniteRoundTrip: infinite float fields, top-level and
// nested, survive the cache codec exactly, and a result with only finite
// fields encodes byte-identically to the plain struct, so files written
// before the infinite encoding still load.
func TestNodeResultInfiniteRoundTrip(t *testing.T) {
	res, err := RunMachine(SweepMachine("stream", "ddr3-1333", 1, Small))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(plainNodeResult(*res))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, plain) {
		t.Errorf("finite result encoding changed\n got %s\nwant %s", enc, plain)
	}

	inf := *res
	inf.Budget.ChipCostUSD = math.Inf(1)
	inf.MTBFHours = math.Inf(-1)
	codec := ResultCodec()
	blob, err := codec.Encode(&inf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&inf, back.(*NodeResult)) {
		t.Errorf("infinite fields did not round-trip\n got %+v\nwant %+v", back, &inf)
	}

	for _, bad := range []string{
		`{"Infinite":{"Budget.ChipCostUSD":"NaN"}}`,
		`{"Infinite":{"Name":"+Inf"}}`,
		`{"Infinite":{"Budget.Nope":"+Inf"}}`,
		`{"Infinite":{"Seconds.X":"+Inf"}}`,
	} {
		var r NodeResult
		if err := json.Unmarshal([]byte(bad), &r); err == nil {
			t.Errorf("decoded %s without error", bad)
		}
	}
}

// TestWideDieSweepCachedAndJournaled: a die too wide for its wafer costs
// +Inf. Its design point must still go through the cache file and the
// journal, and the grid must be identical with and without them.
func TestWideDieSweepCachedAndJournaled(t *testing.T) {
	apps, techs, widths := []string{"gups"}, []string{"ddr3-1333"}, []int{128}
	ref, err := MemTechWidthSweep(apps, techs, widths, Small, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := ref.Points[0].Result.Budget.ChipCostUSD; !math.IsInf(c, 1) {
		t.Fatalf("width-128 chip cost = %v, want +Inf (the case under test)", c)
	}
	norm := func(g *DSEGrid) []DSEPoint {
		out := make([]DSEPoint, len(g.Points))
		for i, p := range g.Points {
			r := *p.Result
			r.HostSeconds = 0
			p.Result = &r
			out[i] = p
		}
		return out
	}
	refCSV := csvOf(t, ref)
	check := func(label string, g *DSEGrid) {
		t.Helper()
		if got := csvOf(t, g); !bytes.Equal(got, refCSV) {
			t.Errorf("%s: grid CSV differs\n got %s\nwant %s", label, got, refCSV)
		}
		if got, want := norm(g), norm(ref); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: grid diverged\n got %+v\nwant %+v", label, got, want)
		}
	}

	dir := t.TempDir()
	cachePath := filepath.Join(dir, "results.jsonl")
	for _, pass := range []string{"cold cache", "warm cache"} {
		c, err := NewSweepCache(16, cache.LRU, nil, cachePath)
		if err != nil {
			t.Fatal(err)
		}
		g, err := MemTechWidthSweep(apps, techs, widths, Small, SweepOptions{Workers: 1, Cache: c})
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		st := c.Stats()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if pass == "warm cache" && st.Hits != 1 {
			t.Errorf("warm cache: hits = %d, want 1", st.Hits)
		}
		check(pass, g)
	}

	journal := filepath.Join(dir, "dse.jsonl")
	if _, err := MemTechWidthSweep(apps, techs, widths, Small, SweepOptions{Workers: 1, Journal: journal}); err != nil {
		t.Fatalf("journaled: %v", err)
	}
	j, err := OpenJournal(journal, true)
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := j.Completed("gups/ddr3-1333/w128")
	j.Close()
	if !ok || ent.Err != "" {
		t.Fatalf("journal holds no successful record for the point: %+v", ent)
	}
	g, err := MemTechWidthSweep(apps, techs, widths, Small, SweepOptions{Workers: 1, Journal: journal, Resume: true})
	if err != nil {
		t.Fatalf("resumed: %v", err)
	}
	check("resumed from journal", g)
}
