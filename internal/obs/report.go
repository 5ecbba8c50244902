package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sst/internal/par"
	"sst/internal/sim"
	"sst/internal/stats"
)

// EngineMetrics is the engine-level slice of a RunReport.
type EngineMetrics struct {
	// Events is the total number of events dispatched.
	Events uint64 `json:"events"`
	// PeakQueue is the pending-queue high-water mark.
	PeakQueue int `json:"peak_queue"`
	// SimSeconds is the simulated clock at snapshot time.
	SimSeconds float64 `json:"sim_seconds"`
	// HostSeconds is host wall time between Attach and Report.
	HostSeconds float64 `json:"host_seconds"`
	// EventsPerSec is the host-rate Events/HostSeconds (0 when unknown).
	EventsPerSec float64 `json:"events_per_sec"`
}

// TraceMetrics is the tracer's slice of a RunReport: how many spans the
// run produced, how many the ring retained, and how many the cap
// overwrote. Dropped > 0 flags a trace that shows only the run's tail.
type TraceMetrics struct {
	Spans    uint64 `json:"spans"`
	Retained uint64 `json:"retained"`
	Dropped  uint64 `json:"dropped"`
}

// RunReport is one run's metrics roll-up. It satisfies core.Result
// structurally, so CLIs render it with the same table/json/csv machinery
// as study results.
type RunReport struct {
	Engine EngineMetrics      `json:"engine"`
	Trace  *TraceMetrics      `json:"trace,omitempty"`
	Links  []LinkStats        `json:"links,omitempty"`
	Par    *par.RunnerMetrics `json:"par,omitempty"`
}

// Table renders the report as one metric/value table.
func (r *RunReport) Table() *stats.Table {
	t := stats.NewTable("Run metrics", "metric", "value")
	t.AddRow("events", r.Engine.Events)
	t.AddRow("peak_queue", r.Engine.PeakQueue)
	t.AddRow("sim_seconds", r.Engine.SimSeconds)
	t.AddRow("host_seconds", r.Engine.HostSeconds)
	t.AddRow("events_per_sec", r.Engine.EventsPerSec)
	if tr := r.Trace; tr != nil {
		t.AddRow("trace.spans", tr.Spans)
		t.AddRow("trace.retained", tr.Retained)
		t.AddRow("trace.dropped", tr.Dropped)
	}
	for _, l := range r.Links {
		t.AddRow("link."+l.Name+".msgs", l.Msgs)
		t.AddRow("link."+l.Name+".bytes", l.Bytes)
		t.AddRow("link."+l.Name+".dropped", l.Dropped)
	}
	if p := r.Par; p != nil {
		t.AddRow("par.mode", p.Mode)
		t.AddRow("par.windows", p.Windows)
		t.AddRow("par.fast_forwards", p.FastForwards)
		t.AddRow("par.lookahead_ps", uint64(p.Lookahead))
		t.AddRow("par.imbalance", p.Imbalance)
		t.AddRow("par.rollbacks", p.Rollbacks)
		t.AddRow("par.replayed_events", p.Replayed)
		t.AddRow("par.fallbacks", p.Fallbacks)
		t.AddRow("par.promotions", p.Promotions)
		for _, rk := range p.Ranks {
			prefix := fmt.Sprintf("par.rank%d.", rk.Rank)
			t.AddRow(prefix+"events", rk.Events)
			t.AddRow(prefix+"windows", rk.Windows)
			t.AddRow(prefix+"idle_windows", rk.IdleWindows)
			t.AddRow(prefix+"skipped_windows", rk.SkippedWindows)
			t.AddRow(prefix+"lookahead_ps", uint64(rk.Lookahead))
			t.AddRow(prefix+"rollbacks", rk.Rollbacks)
		}
	}
	return t
}

// WriteJSON emits the report as one indented JSON object (typed fields,
// not the table rendering).
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV emits the metric/value table as CSV.
func (r *RunReport) WriteCSV(w io.Writer) error {
	return r.Table().WriteCSV(w)
}

// Collector snapshots a run's metrics: attach it before running, ask for
// the Report after. It owns the host-time clock and the link counters it
// installed.
type Collector struct {
	engine *sim.Engine
	tracer *Tracer
	links  []*LinkStats
	runner *par.Runner
	start  time.Time
	base   uint64 // events already handled at Attach
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach points the collector at an engine, instruments the given links
// with traffic counters (composing with any fault interceptors already
// installed) and starts the host-time clock. Call once, before the run.
func (c *Collector) Attach(engine *sim.Engine, links ...*sim.Link) {
	c.engine = engine
	if engine != nil {
		c.base = engine.Handled()
	}
	for _, l := range links {
		c.links = append(c.links, InstrumentLink(l))
	}
	c.start = time.Now()
}

// AttachTracer additionally records the run's span tracer so the report
// carries its ring counters — total spans, retained spans, and how many
// the cap dropped (a trace that only shows the tail says so).
func (c *Collector) AttachTracer(t *Tracer) { c.tracer = t }

// AttachRunner additionally records a parallel runner whose Metrics are
// folded into the report. The runner's rank engines are not instrumented;
// attach per-rank links explicitly if needed.
func (c *Collector) AttachRunner(r *par.Runner) { c.runner = r }

// Report snapshots the metrics. Call it after the run completes (it reads
// engine and runner state that must not be mid-flight).
func (c *Collector) Report() *RunReport {
	rep := &RunReport{}
	if c.engine != nil {
		rep.Engine.Events = c.engine.Handled() - c.base
		rep.Engine.PeakQueue = c.engine.PeakPending()
		rep.Engine.SimSeconds = c.engine.Now().Seconds()
	}
	if !c.start.IsZero() {
		rep.Engine.HostSeconds = time.Since(c.start).Seconds()
	}
	if rep.Engine.HostSeconds > 0 {
		rep.Engine.EventsPerSec = float64(rep.Engine.Events) / rep.Engine.HostSeconds
	}
	if t := c.tracer; t != nil {
		rep.Trace = &TraceMetrics{
			Spans:    t.Total(),
			Retained: t.Total() - t.Dropped(),
			Dropped:  t.Dropped(),
		}
	}
	for _, l := range c.links {
		rep.Links = append(rep.Links, *l)
	}
	if c.runner != nil {
		m := c.runner.Metrics()
		rep.Par = &m
	}
	return rep
}
