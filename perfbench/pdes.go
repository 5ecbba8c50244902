package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"sst/internal/config"
	"sst/internal/dnoc"
	"sst/internal/par"
	"sst/internal/sim"
	"sst/internal/workload"
)

// The pdes-torus model: CTH on a 32-node 4×4×2 torus, the same file as
// configs/system-torus.json, run the way `sst -system … -par 2` runs it.
//
//go:embed testdata/system-torus.json
var torusJSON string

// pdesRefJSON holds the model's outputs as the 1-rank run produces them.
// They agree with the rounded values the sequential path prints (`sst
// -system configs/system-torus.json`: 24.809 ms, 1610.61 MB, 1250.31 us).
// Every run, at 1 rank and at 2, must reproduce elapsed time, messages,
// bytes and events exactly.
//
// The mean message latency has one more permitted value at 2 ranks,
// partitioned_mean_latency_ps. When a packet hopping in from the other
// rank and a packet injected on this rank claim one link at the same
// simulated instant, the partition decides which goes first; dnoc's own
// tests exclude such ties ("tie ordering may legitimately differ between
// sequential and distributed runs"). On this model 36 of 768 messages
// lose such a tie at 2 ranks and arrive one 4 KiB packet time (1.28 µs)
// later, e.g. 1→3 behind 2→0 on link 2→3 at 10.43627 ms. A 2-rank run
// must give exactly this value, or exactly the 1-rank value should tie
// order become partition-independent.
//
//go:embed testdata/pdes-torus.json
var pdesRefJSON []byte

const pdesRanks = 2

// pdesOut is everything a pdes-torus run must reproduce.
type pdesOut struct {
	ElapsedPs     sim.Time `json:"elapsed_ps"`
	Messages      uint64   `json:"messages"`
	Bytes         uint64   `json:"bytes"`
	MeanLatencyPs float64  `json:"mean_latency_ps"`
	Events        uint64   `json:"events"`
}

// pdesRef is the committed reference: the 1-rank outputs plus the mean
// latency the 2-rank partition's tie order gives.
type pdesRef struct {
	pdesOut
	PartitionedMeanLatencyPs float64 `json:"partitioned_mean_latency_ps"`
}

// check reports how out differs from the reference for an nranks run, or
// "" when it matches.
func (r pdesRef) check(out pdesOut, nranks int) string {
	if nranks > 1 && out.MeanLatencyPs == r.PartitionedMeanLatencyPs {
		out.MeanLatencyPs = r.MeanLatencyPs
	}
	if out == r.pdesOut {
		return ""
	}
	if nranks > 1 {
		return fmt.Sprintf("%+v, reference %+v with mean latency %v or %v",
			out, r.pdesOut, r.MeanLatencyPs, r.PartitionedMeanLatencyPs)
	}
	return fmt.Sprintf("%+v, reference %+v", out, r.pdesOut)
}

// pdesModel is one built instance of the model; it runs once.
type pdesModel struct {
	runner *par.Runner
	d      *dnoc.Network
	apps   []*workload.App
}

// buildPDES builds the model over nranks with the CLI's defaults:
// pairwise sync and dnoc's round-robin partition.
func buildPDES(nranks int) (*pdesModel, error) {
	sys, err := config.LoadSystem(strings.NewReader(torusJSON))
	if err != nil {
		return nil, err
	}
	topo, err := sys.Topo.Build()
	if err != nil {
		return nil, err
	}
	netCfg, err := sys.Net.ToNetConfig()
	if err != nil {
		return nil, err
	}
	if sys.App != "cth" {
		return nil, fmt.Errorf("pdes model: app %q, want cth", sys.App)
	}
	profile := workload.CTHProfile
	if sys.Steps > 0 {
		profile.Steps = sys.Steps
	}
	nodes := sys.Ranks
	if nodes == 0 {
		nodes = topo.NumNodes()
	}
	mode, err := par.ParseSyncMode("pairwise")
	if err != nil {
		return nil, err
	}
	runner, err := par.NewRunner(nranks)
	if err != nil {
		return nil, err
	}
	runner.SetSyncMode(mode)
	d, err := dnoc.New(runner, topo, netCfg, nil)
	if err != nil {
		return nil, err
	}
	ports := make([][]workload.MessagePort, nranks)
	local := make([][]*workload.Script, nranks)
	for i, s := range profile.Scripts(nodes) {
		home := d.RankOfNode(i)
		ports[home] = append(ports[home], d.NIC(i))
		local[home] = append(local[home], s)
	}
	m := &pdesModel{runner: runner, d: d}
	for p := 0; p < nranks; p++ {
		if len(local[p]) == 0 {
			continue
		}
		app, err := workload.NewAppOnPorts(runner.Rank(p).Engine(), fmt.Sprintf("%s.rank%d", profile.Name, p), ports[p], local[p])
		if err != nil {
			return nil, err
		}
		m.apps = append(m.apps, app)
	}
	return m, nil
}

// run starts the apps and runs the model to completion; the wall covers
// Runner.RunAll only.
func (m *pdesModel) run() (pdesOut, time.Duration, error) {
	for _, a := range m.apps {
		a.Start(nil)
	}
	t0 := time.Now()
	_, err := m.runner.RunAll()
	wall := time.Since(t0)
	if err != nil {
		return pdesOut{}, wall, err
	}
	var out pdesOut
	for _, a := range m.apps {
		if !a.Done() {
			return pdesOut{}, wall, fmt.Errorf("application deadlocked (%s)", a.Name())
		}
		out.ElapsedPs = max(out.ElapsedPs, a.Elapsed())
	}
	out.Messages = m.d.Messages()
	out.Bytes = m.d.BytesDelivered()
	out.MeanLatencyPs = m.d.MeanLatencyPs()
	for _, r := range m.runner.Metrics().Ranks {
		out.Events += r.Events
	}
	return out, wall, nil
}

// buildAndRun builds a model, runs it and checks its outputs. It returns
// the build time, the run's wall and the finished model.
func buildAndRun(rep *report, ref pdesRef, nranks int, tracers []*engineTracer) (time.Duration, time.Duration, *pdesModel, error) {
	t0 := time.Now()
	m, err := buildPDES(nranks)
	if err != nil {
		return 0, 0, nil, err
	}
	build := time.Since(t0)
	for i, t := range tracers {
		m.runner.Rank(i).Engine().SetTracer(t)
	}
	rep.attempted++
	out, wall, err := m.run()
	switch {
	case err != nil:
		rep.mismatch("pdes %d-rank run: %v", nranks, err)
	default:
		if diff := ref.check(out, nranks); diff != "" {
			rep.mismatch("pdes %d-rank outputs %s", nranks, diff)
		}
	}
	return build, wall, m, nil
}

func loadPDESRef() (pdesRef, error) {
	var ref pdesRef
	err := json.Unmarshal(pdesRefJSON, &ref)
	if err == nil && ref.PartitionedMeanLatencyPs == 0 {
		err = fmt.Errorf("partitioned_mean_latency_ps missing")
	}
	return ref, err
}

func runPDES(o options, rep *report) error {
	ref, err := loadPDESRef()
	if err != nil {
		return fmt.Errorf("pdes reference: %w", err)
	}
	if o.trace {
		return tracePDES(o, rep, ref)
	}
	// The sequential reference: the same model at 1 rank must produce the
	// same outputs before any 2-rank run is timed.
	if _, _, _, err := buildAndRun(rep, ref, 1, nil); err != nil {
		return err
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	var setups, walls []float64
	var total time.Duration
	for total < budget {
		build, wall, _, err := buildAndRun(rep, ref, pdesRanks, nil)
		if err != nil {
			return err
		}
		setups = append(setups, build.Seconds())
		walls = append(walls, ms(wall))
		total += wall
	}
	rep.set("jobs_per_s", float64(len(walls))/total.Seconds(), len(walls), "2-rank runs per second of Runner.RunAll wall")
	rep.setTiming("job_p50_ms", "job_tail_ms", walls)
	rep.set("sim_us_per_s", float64(len(walls))*ref.ElapsedPs.Seconds()*1e6/total.Seconds(), len(walls), "simulated µs per second of 2-rank RunAll wall")
	rep.set("setup_s", median(setups), len(setups), "runner + dnoc + app build before each run")
	return nil
}

// tracePDES times the sequential reference and 2-rank runs untraced for a
// quarter of the budget, then runs both once more with the benchmark's
// tracer on every rank engine.
func tracePDES(o options, rep *report, ref pdesRef) error {
	budget := time.Duration(o.seconds * float64(time.Second) / 4)
	_, seqWall, seq, err := buildAndRun(rep, ref, 1, nil)
	if err != nil {
		return err
	}
	seqEng := seq.runner.Rank(0).Engine()
	var walls, perWindow []float64
	var total time.Duration
	var pm par.RunnerMetrics
	var lat float64
	for total < budget || len(walls) < 2 {
		_, wall, m, err := buildAndRun(rep, ref, pdesRanks, nil)
		if err != nil {
			return err
		}
		pm = m.runner.Metrics()
		lat = m.d.MeanLatencyPs()
		walls = append(walls, wall.Seconds())
		perWindow = append(perWindow, float64(wall.Nanoseconds())/float64(max(pm.Windows, 1)))
		total += wall
	}
	var idle uint64
	for _, r := range pm.Ranks {
		idle += r.IdleWindows
	}
	rep.set("par.windows", float64(pm.Windows), 1, "")
	rep.set("par.idle_windows", float64(idle), 1, "summed over ranks")
	rep.set("par.fast_forwards", float64(pm.FastForwards), 1, "")
	rep.set("par.ns_per_window", median(perWindow), len(perWindow), "2-rank wall ÷ windows, untraced")
	rep.set("par.imbalance", pm.Imbalance, 1, "max ÷ mean rank events")
	rep.set("par.speedup_vs_seq", seqWall.Seconds()/median(walls), len(walls), "1-rank wall ÷ median 2-rank wall")
	rep.set("par.rollbacks", float64(pm.Rollbacks), 1, "conservative sync: must be 0")
	if pm.Rollbacks != 0 {
		rep.mismatch("pdes: %d rollbacks under pairwise sync", pm.Rollbacks)
	}
	rep.set("sim.events", float64(ref.Events), 1, "")
	rep.set("sim.ns_per_event", float64(seqWall.Nanoseconds())/float64(ref.Events), 1, "1-rank wall ÷ events, untraced")
	rep.set("sim.peak_queue", float64(seqEng.PeakPending()), 1, "1-rank engine")
	rep.set("dnoc.messages", float64(ref.Messages), 1, "")
	rep.set("dnoc.bytes", float64(ref.Bytes), 1, "")
	rep.set("dnoc.mean_latency_us", lat/1e6, 1, "simulated, 2 ranks")

	spans := newSpanLog()
	// traced runs the model once with tracers installed and records its
	// build and RunAll as children of one span.
	traced := func(nranks int, tracers []*engineTracer) (time.Duration, error) {
		root := spans.reserve()
		t0 := time.Now()
		build, wall, _, err := buildAndRun(rep, ref, nranks, tracers)
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		spans.add(root, "pdes build", t0, t0.Add(build))
		spans.add(root, "Runner.RunAll", t1.Add(-wall), t1)
		spans.finish(root, 0, fmt.Sprintf("pdes %d-rank", nranks), t0, t1)
		return wall, nil
	}
	seqT := newEngineTracer()
	seqTraced, err := traced(1, []*engineTracer{seqT})
	if err != nil {
		return err
	}
	rep.set("sim.dispatch_self_ms", ms(seqTraced-seqT.top), 1, "1-rank RunAll wall − handler spans")
	rep.set("sim.clock_self_ms", ms(seqT.selfWhere(isClock)), 1, "the model has no clocks")

	tracers := []*engineTracer{newEngineTracer(), newEngineTracer()}
	wall, err := traced(pdesRanks, tracers)
	if err != nil {
		return err
	}
	busiest := max(tracers[0].top, tracers[1].top)
	rep.set("par.sync_share", 1-busiest.Seconds()/wall.Seconds(), 1, "share of the traced 2-rank wall outside the busier rank's handler spans")
	all := newEngineTracer()
	all.merge(tracers[0])
	all.merge(tracers[1])
	rep.set("dnoc.self_ms", ms(all.selfWhere(func(l string) bool { return strings.HasPrefix(l, "dnoc") })), 2, "dnoc* spans over both ranks")
	rep.set("trace.overhead", wall.Seconds()/median(walls), len(walls), "traced ÷ median untraced 2-rank wall")
	printLabels(all)
	return writeTrace(tracePath(o), o.workload, o.seed, spans, all)
}
