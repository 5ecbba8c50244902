package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"sst/internal/core"
	"sst/internal/par"
	"sst/internal/sim"
)

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Event(sim.Time(i), fmt.Sprintf("e%d", i), time.Duration(i))
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// The ring keeps the tail of the run, oldest first.
	for i, s := range spans {
		if want := sim.Time(6 + i); s.At != want {
			t.Fatalf("span %d at %v, want %v (spans: %+v)", i, s.At, want, spans)
		}
	}
}

func TestTracerDefaultCap(t *testing.T) {
	tr := NewTracer(0)
	if got := cap(tr.spans); got != DefaultTraceCap {
		t.Fatalf("default capacity = %d, want %d", got, DefaultTraceCap)
	}
}

func TestTracerChromeJSONParses(t *testing.T) {
	tr := NewTracer(16)
	tr.Event(0, "", time.Microsecond)
	tr.Event(sim.Nanosecond, "cpu.0", 2*time.Microsecond)
	tr.Event(2*sim.Nanosecond, "cpu.0", time.Microsecond)
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	var xs, ms int
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			xs++
			names[ev.Name] = true
			if ev.Dur < 0 {
				t.Errorf("negative dur: %+v", ev)
			}
		case "M":
			ms++
		}
	}
	if xs != 3 {
		t.Fatalf("%d complete events, want 3", xs)
	}
	// Two labels ("engine" for the blank one, "cpu.0"): two metadata rows.
	if ms != 2 {
		t.Fatalf("%d metadata events, want 2", ms)
	}
	if !names["engine"] || !names["cpu.0"] {
		t.Fatalf("names = %v", names)
	}
}

func TestTracerCSVAndSummary(t *testing.T) {
	tr := NewTracer(16)
	tr.Event(sim.Nanosecond, "mem", time.Microsecond)
	tr.Event(2*sim.Nanosecond, "mem", time.Microsecond)
	tr.Event(3*sim.Nanosecond, "", time.Microsecond)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 || lines[0] != "time_ps,label,host_ns" {
		t.Fatalf("csv = %q", buf.String())
	}
	if lines[1] != "1000,mem,1000" {
		t.Fatalf("row = %q", lines[1])
	}
	sum := tr.Summary()
	if sum.NumRows() != 2 {
		t.Fatalf("summary rows = %d, want 2 (mem + engine)", sum.NumRows())
	}
	if s := sum.String(); !strings.Contains(s, "mem") || !strings.Contains(s, "engine") {
		t.Fatalf("summary missing labels:\n%s", s)
	}
}

// sizedPayload implements sim.Sized.
type sizedPayload struct{ n int }

func (p sizedPayload) PayloadBytes() int { return p.n }

func TestInstrumentLinkCounts(t *testing.T) {
	e := sim.NewEngine()
	a, b := sim.Connect(e, "l0", sim.Nanosecond)
	b.SetHandler(func(any) {})
	st := InstrumentLink(a.Link())
	a.Send(sizedPayload{100})
	a.Send("unsized")
	e.RunAll()
	if st.Name != "l0" || st.Msgs != 2 || st.Bytes != 100 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestInstrumentLinkComposesWithFaults: counters wrap an existing (fault)
// interceptor — drops by the inner interceptor are tallied, not counted as
// traffic, and the message flow keeps working.
func TestInstrumentLinkComposesWithFaults(t *testing.T) {
	e := sim.NewEngine()
	a, b := sim.Connect(e, "l1", sim.Nanosecond)
	var delivered int
	b.SetHandler(func(any) { delivered++ })
	// A fault injector that drops every second message.
	n := 0
	a.Link().SetIntercept(func(from *sim.Port, delay sim.Time, payload any) (sim.Time, any, bool) {
		n++
		return delay, payload, n%2 == 1
	})
	st := InstrumentLink(a.Link())
	for i := 0; i < 6; i++ {
		a.Send(sizedPayload{10})
	}
	e.RunAll()
	if delivered != 3 {
		t.Fatalf("delivered %d, want 3", delivered)
	}
	if st.Msgs != 3 || st.Dropped != 3 || st.Bytes != 30 {
		t.Fatalf("stats = %+v, want 3 msgs / 3 dropped / 30 bytes", st)
	}
}

func TestCollectorReport(t *testing.T) {
	e := sim.NewEngine()
	// Pre-existing events must not be charged to this run.
	e.Schedule(0, func(any) {}, nil)
	e.RunAll()
	a, b := sim.Connect(e, "lk", sim.Nanosecond)
	b.SetHandler(func(any) {})
	col := NewCollector()
	col.Attach(e, a.Link())
	a.Send(sizedPayload{8})
	e.Schedule(sim.Microsecond, func(any) {}, nil)
	e.RunAll()
	rep := col.Report()
	if rep.Engine.Events != 2 {
		t.Fatalf("events = %d, want 2 (delivery + scheduled)", rep.Engine.Events)
	}
	if rep.Engine.PeakQueue < 1 {
		t.Fatalf("peak queue = %d", rep.Engine.PeakQueue)
	}
	if rep.Engine.SimSeconds <= 0 || rep.Engine.HostSeconds <= 0 || rep.Engine.EventsPerSec <= 0 {
		t.Fatalf("rates not populated: %+v", rep.Engine)
	}
	if len(rep.Links) != 1 || rep.Links[0].Msgs != 1 || rep.Links[0].Bytes != 8 {
		t.Fatalf("links = %+v", rep.Links)
	}
	// The report renders and serializes in all three formats.
	if rep.Table().NumRows() == 0 {
		t.Fatal("empty table")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round RunReport
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if round.Engine.Events != rep.Engine.Events || len(round.Links) != 1 {
		t.Fatalf("round-trip lost data: %+v", round)
	}
	buf.Reset()
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "link.lk.msgs") {
		t.Fatalf("csv missing link rows:\n%s", buf.String())
	}
}

func TestCollectorWithRunner(t *testing.T) {
	r, err := par.NewRunner(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		eng := r.Rank(i).Engine()
		eng.Schedule(sim.Nanosecond, func(any) {}, nil)
	}
	col := NewCollector()
	col.Attach(r.Rank(0).Engine())
	col.AttachRunner(r)
	if _, err := r.RunAll(); err != nil {
		t.Fatal(err)
	}
	rep := col.Report()
	if rep.Par == nil {
		t.Fatal("runner metrics missing")
	}
	if len(rep.Par.Ranks) != 2 || rep.Par.Windows == 0 {
		t.Fatalf("par metrics = %+v", rep.Par)
	}
	if rep.Par.Mode != "pairwise" {
		t.Fatalf("par mode = %q, want the pairwise default", rep.Par.Mode)
	}
	tab := rep.Table()
	var buf2 strings.Builder
	if err := tab.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"par.mode", "par.fast_forwards", "par.rollbacks",
		"par.replayed_events", "par.fallbacks", "par.promotions",
		"par.rank0.skipped_windows", "par.rank0.rollbacks", "par.rank1.lookahead_ps"} {
		if !strings.Contains(buf2.String(), row) {
			t.Fatalf("report table missing %q:\n%s", row, buf2.String())
		}
	}
	var total uint64
	for _, rk := range rep.Par.Ranks {
		total += rk.Events
	}
	if total != 2 {
		t.Fatalf("rank events total %d, want 2", total)
	}
}

func TestSweepCollectorOrderAndTrace(t *testing.T) {
	col := &SweepCollector{}
	base := time.Now()
	// Out-of-order completion, as a real pool produces.
	col.PointDone(core.PointReport{Index: 2, Worker: 1, Start: base.Add(time.Millisecond), Wall: time.Millisecond})
	col.PointDone(core.PointReport{Index: 0, Worker: 0, Start: base, Wall: 2 * time.Millisecond})
	col.PointDone(core.PointReport{Index: 1, Worker: 1, Start: base, Wall: time.Millisecond,
		Err: fmt.Errorf("boom\ndetail")})
	pts := col.Points()
	for i, p := range pts {
		if p.Index != i {
			t.Fatalf("points not sorted: %+v", pts)
		}
	}
	tab := col.Table()
	if tab.NumRows() != 3 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// Multi-line errors are truncated to their first line in the table.
	if s := tab.String(); !strings.Contains(s, "boom") || strings.Contains(s, "detail") {
		t.Fatalf("error cell wrong:\n%s", s)
	}
	var buf bytes.Buffer
	if err := col.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("sweep trace not valid JSON: %v", err)
	}
	var failed bool
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		tids[ev.Tid] = true
		if strings.Contains(ev.Name, "(failed)") {
			failed = true
		}
	}
	if len(tids) != 2 {
		t.Fatalf("worker rows = %d, want 2", len(tids))
	}
	if !failed {
		t.Fatal("failed point not flagged in trace")
	}
	buf.Reset()
	if err := col.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("sweep metrics JSON invalid: %v", err)
	}
}

// TestTracerDropped: ring overwrites are counted, never silently
// swallowed — the tracer, its summary title and an attached collector's
// report all say how many spans the cap let go.
func TestTracerDropped(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Event(sim.Time(i), "x", time.Duration(i))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	if got := tr.Total() - tr.Dropped(); got != uint64(len(tr.Spans())) {
		t.Fatalf("Total-Dropped = %d, retained = %d", got, len(tr.Spans()))
	}
	if s := tr.Summary().String(); !strings.Contains(s, "6 oldest dropped") {
		t.Fatalf("summary does not flag the drop:\n%s", s)
	}

	col := NewCollector()
	col.Attach(nil)
	col.AttachTracer(tr)
	rep := col.Report()
	if rep.Trace == nil || rep.Trace.Spans != 10 || rep.Trace.Retained != 4 || rep.Trace.Dropped != 6 {
		t.Fatalf("report trace metrics = %+v", rep.Trace)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"trace.spans", "trace.retained", "trace.dropped"} {
		if !strings.Contains(buf.String(), row) {
			t.Fatalf("report table missing %q:\n%s", row, buf.String())
		}
	}
}

// TestTracerNoDropsWithinCap: a trace that fits its ring reports zero
// drops (the fix must not spook complete traces).
func TestTracerNoDropsWithinCap(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 16; i++ {
		tr.Event(sim.Time(i), "x", 0)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", tr.Dropped())
	}
	if s := tr.Summary().String(); strings.Contains(s, "dropped") {
		t.Fatalf("summary flags drops on a complete trace:\n%s", s)
	}
}

// TestSweepCollectorCap: the per-point report ring is hard-capped — the
// most recent reports survive, evictions are counted, and the table
// title says the view is a tail.
func TestSweepCollectorCap(t *testing.T) {
	col := &SweepCollector{Cap: 3}
	for i := 0; i < 8; i++ {
		col.PointDone(core.PointReport{Index: i, Wall: time.Millisecond})
	}
	if col.Dropped() != 5 {
		t.Fatalf("Dropped = %d, want 5", col.Dropped())
	}
	pts := col.Points()
	if len(pts) != 3 {
		t.Fatalf("retained %d reports, want 3", len(pts))
	}
	for i, p := range pts {
		if want := 5 + i; p.Index != want {
			t.Fatalf("report %d has index %d, want %d (most recent retained)", i, p.Index, want)
		}
	}
	if s := col.Table().String(); !strings.Contains(s, "5 oldest dropped") {
		t.Fatalf("table does not flag the drop:\n%s", s)
	}
}

// TestSweepCollectorDefaultCap: the zero value is still usable and gets
// the documented default capacity.
func TestSweepCollectorDefaultCap(t *testing.T) {
	col := &SweepCollector{}
	col.PointDone(core.PointReport{Index: 0})
	if col.Dropped() != 0 || len(col.Points()) != 1 {
		t.Fatalf("zero-value collector misbehaves: dropped=%d points=%d",
			col.Dropped(), len(col.Points()))
	}
}
