package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"sst/internal/sim"
)

// engineTracer is the benchmark's sim.Tracer: it sums host time per
// component label over every dispatched event, with no ring cap, so the
// per-layer self times cover the whole run rather than its tail.
//
// The engine reports a span when it ends, with its duration. Spans nest
// in one way only: a clock tick ("clock@<freq>" label) is one dispatched
// event whose registered handlers (cpu.N) each report their own span
// before the tick's span arrives. A tick's children are therefore the
// spans that arrived just before it, at the same simulated time, and that
// ended after the tick began; every earlier span ended before the tick
// started, because dispatch is sequential. A tick's self time is its span
// minus those children, and the engine's own dispatch time is the
// simulate-phase wall minus every top-level span.
//
// One engineTracer belongs to one engine goroutine, like the engine.
type engineTracer struct {
	now    func() time.Duration // monotonic host clock
	labels map[string]*labelTime
	// top is the host time inside top-level spans: every span minus the
	// handler spans nested in clock ticks.
	top time.Duration
	// open holds the spans since the last clock tick at the current
	// simulated time: the candidates to be the next tick's children.
	open []endedSpan
}

// labelTime is one label's totals: spans seen, their summed duration and
// the part of it covered by nested children.
type labelTime struct {
	Count    uint64        `json:"count"`
	Total    time.Duration `json:"total_ns"`
	Children time.Duration `json:"children_ns"`
}

// Self is the label's time outside its children.
func (l *labelTime) Self() time.Duration { return l.Total - l.Children }

type endedSpan struct {
	at  sim.Time
	end time.Duration
	dur time.Duration
}

func newEngineTracer() *engineTracer {
	base := time.Now()
	return &engineTracer{now: func() time.Duration { return time.Since(base) }, labels: map[string]*labelTime{}}
}

func isClock(label string) bool { return strings.HasPrefix(label, "clock@") }

// Event implements sim.Tracer.
func (t *engineTracer) Event(at sim.Time, label string, dur time.Duration) {
	end := t.now()
	lt := t.labels[label]
	if lt == nil {
		lt = &labelTime{}
		t.labels[label] = lt
	}
	lt.Count++
	lt.Total += dur
	t.top += dur
	if !isClock(label) {
		if len(t.open) > 0 && t.open[0].at != at {
			t.open = t.open[:0]
		}
		t.open = append(t.open, endedSpan{at, end, dur})
		return
	}
	start := end - dur
	for i := len(t.open) - 1; i >= 0 && t.open[i].at == at && t.open[i].end > start; i-- {
		lt.Children += t.open[i].dur
		t.top -= t.open[i].dur
	}
	t.open = t.open[:0]
}

// merge adds o's totals into t (per-rank or per-worker tracers).
func (t *engineTracer) merge(o *engineTracer) {
	for k, v := range o.labels {
		lt := t.labels[k]
		if lt == nil {
			lt = &labelTime{}
			t.labels[k] = lt
		}
		lt.Count += v.Count
		lt.Total += v.Total
		lt.Children += v.Children
	}
	t.top += o.top
}

// selfWhere sums the self time of every label match accepts.
func (t *engineTracer) selfWhere(match func(label string) bool) time.Duration {
	var d time.Duration
	for k, v := range t.labels {
		if match(k) {
			d += v.Self()
		}
	}
	return d
}

// printLabels prints the tracer's per-label times, largest self time first.
func printLabels(et *engineTracer) {
	ls := make([]string, 0, len(et.labels))
	for k := range et.labels {
		ls = append(ls, k)
	}
	sort.Slice(ls, func(i, j int) bool { return et.labels[ls[i]].Self() > et.labels[ls[j]].Self() })
	for _, l := range ls {
		lt := et.labels[l]
		fmt.Printf("info: label %-16q self %10.2f ms total %10.2f ms spans %d\n", l, ms(lt.Self()), ms(lt.Total), lt.Count)
	}
}

// Span is one benchmark-level span: a call from the benchmark into a
// layer, with the span that caused it (Parent 0 for a root).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog keeps benchmark-level spans in memory for the traced run; they
// are written out once, when the run ends. Safe for concurrent use.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []Span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// add records a finished span.
func (l *spanLog) add(parent int, name string, start, end time.Time) {
	l.finish(l.reserve(), parent, name, start, end)
}

// reserve returns an ID for a span whose children finish before it does;
// finish fills it in.
func (l *spanLog) reserve() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, Span{})
	return len(l.spans)
}

func (l *spanLog) finish(id, parent int, name string, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1] = Span{ID: id, Parent: parent, Name: name, Start: start.Sub(l.base), End: end.Sub(l.base)}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []Span) map[int]time.Duration {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// traceFile is what a traced run writes out: the benchmark-level spans
// with their self times, and the engine tracer's per-label totals.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Spans    []spanOut             `json:"spans"`
	Labels   map[string]*labelTime `json:"engine_labels"`
}

type spanOut struct {
	Span
	SelfNS time.Duration `json:"self_ns"`
}

func writeTrace(path, workload string, seed uint64, l *spanLog, et *engineTracer) error {
	self := selfTimes(l.spans)
	tf := traceFile{Workload: workload, Seed: seed, Labels: map[string]*labelTime{}}
	for _, s := range l.spans {
		tf.Spans = append(tf.Spans, spanOut{s, self[s.ID]})
	}
	if et != nil {
		tf.Labels = et.labels
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
