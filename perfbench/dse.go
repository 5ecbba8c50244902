package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"sst/internal/core"
)

// dseRefCSV is the full grid the dse-sweep jobs draw from (5 apps × 6
// technologies × widths 1 and 4 at full scale), rendered by the CLI:
//
//	sst-dse -scale full -j 2 -apps gups,stream,fea,minimd,hpccg \
//	    -techs ddr2-800,ddr3-800,ddr3-1066,ddr3-1333,ddr3-1600,gddr5-4000 \
//	    -widths 1,4 -table grid -format csv
//
//go:embed testdata/dse-grid.csv
var dseRefCSV string

// dseWorkers matches `sst-dse -j 2` on the 2-CPU host the load is sized for.
const dseWorkers = 2

// dseRef indexes the reference grid by point key ("app/tech/w").
type dseRef struct {
	head string // title and column lines
	rows map[string]string
}

func loadDSERef() (*dseRef, error) {
	lines := strings.Split(strings.TrimSuffix(dseRefCSV, "\n"), "\n")
	if len(lines) < 3 {
		return nil, fmt.Errorf("dse reference: too short")
	}
	ref := &dseRef{head: lines[0] + "\n" + lines[1] + "\n", rows: map[string]string{}}
	for _, l := range lines[2:] {
		f := strings.SplitN(l, ",", 4)
		if len(f) < 4 {
			return nil, fmt.Errorf("dse reference: bad row %q", l)
		}
		ref.rows[f[0]+"/"+f[1]+"/w"+f[2]] = l
	}
	return ref, nil
}

type dsePt struct {
	app, tech string
	width     int
}

// points lists a dse spec's points in grid (cross-product) order.
func points(spec core.JobSpec) []dsePt {
	var out []dsePt
	for _, a := range spec.Apps {
		for _, t := range spec.Techs {
			for _, w := range spec.Widths {
				out = append(out, dsePt{a, t, w})
			}
		}
	}
	return out
}

// check compares a sweep's grid CSV with the one the reference predicts
// for the spec, counting every point attempted and every point whose row
// is missing, failed or different.
func (ref *dseRef) check(rep *report, spec core.JobSpec, g *core.DSEGrid) {
	pts := points(spec)
	rep.attempted += len(pts)
	var want strings.Builder
	want.WriteString(ref.head)
	for _, p := range pts {
		want.WriteString(ref.rows[fmt.Sprintf("%s/%s/w%d", p.app, p.tech, p.width)] + "\n")
	}
	var got bytes.Buffer
	if g == nil {
		rep.mismatch("dse sweep %v/%v returned no grid", spec.Apps, spec.Techs)
		rep.failed += len(pts) - 1
		return
	}
	if err := g.WriteCSV(&got); err != nil {
		rep.mismatch("dse grid CSV: %v", err)
		return
	}
	if got.String() == want.String() {
		return
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(want.String(), "\n")
	for i, p := range pts {
		j := i + 2
		if j >= len(gl) || gl[j] != wl[j] {
			g := ""
			if j < len(gl) {
				g = gl[j]
			}
			rep.mismatch("dse %s/%s/w%d: got %q, reference %q", p.app, p.tech, p.width, g, wl[j])
		}
	}
	if gl[0] != wl[0] || gl[1] != wl[1] {
		rep.mismatch("dse grid CSV header: got %q, reference %q", gl[:2], wl[:2])
	}
}

// sweepSample is one dse-sweep job's measurements.
type sweepSample struct {
	wall    time.Duration
	simUS   float64 // simulated microseconds over all points
	retired uint64
}

// runDSEJob resolves and runs one sweep the way `sst-dse -scale full -j 2`
// does, with a fresh ArenaPool and no cache or journal. It returns the
// set-up time (study resolution), the sample and the grid.
func runDSEJob(spec core.JobSpec, metrics core.SweepMetrics) (time.Duration, sweepSample, *core.DSEGrid, *core.ArenaPool, error) {
	t0 := time.Now()
	study, err := core.NewStudy(spec)
	if err != nil {
		return 0, sweepSample{}, nil, nil, err
	}
	pool := core.NewArenaPool()
	opts := core.SweepOptions{Workers: dseWorkers, Arena: pool, Metrics: metrics}
	t1 := time.Now()
	res, err := study.Run(opts)
	s := sweepSample{wall: time.Since(t1)}
	g, _ := res.(*core.DSEGrid)
	if g != nil {
		for _, p := range g.Points {
			if p.Result != nil {
				s.simUS += p.Result.Seconds * 1e6
				s.retired += p.Result.Retired
			}
		}
	}
	return t1.Sub(t0), s, g, pool, err
}

func runDSE(o options, rep *report) error {
	ref, err := loadDSERef()
	if err != nil {
		return err
	}
	if o.trace {
		return traceDSE(o, rep, ref)
	}
	gen := newDSEGen(o.seed)
	budget := time.Duration(o.seconds * float64(time.Second))
	var setups, walls []float64
	var total time.Duration
	var retired uint64
	var simUS float64
	for total < budget {
		spec := gen.next()
		setup, s, g, _, err := runDSEJob(spec, nil)
		if err != nil {
			rep.mismatch("dse sweep: %v", err)
		}
		ref.check(rep, spec, g)
		setups = append(setups, setup.Seconds())
		walls = append(walls, ms(s.wall))
		simUS += s.simUS
		total += s.wall
		retired += s.retired
	}
	rep.set("jobs_per_s", float64(len(walls))/total.Seconds(), len(walls), "sweeps per second of sweep wall time")
	rep.setTiming("job_p50_ms", "job_tail_ms", walls)
	rep.set("sim_us_per_s", simUS/total.Seconds(), len(walls), "simulated µs over all points ÷ sweep wall")
	rep.set("setup_s", median(setups), len(setups), "study resolution before each sweep")
	fmt.Printf("info: sim_mips %.4g M instr/s over %d sweeps (%d instructions retired)\n",
		float64(retired)/total.Seconds()/1e6, len(walls), retired)
	return nil
}

// pointReports collects the sweep scheduler's per-point reports.
type pointReports struct {
	mu  sync.Mutex
	all []core.PointReport
}

func (p *pointReports) PointDone(r core.PointReport) {
	p.mu.Lock()
	p.all = append(p.all, r)
	p.mu.Unlock()
}

// traceDSE runs sweeps untraced through JobSpec.Run for a quarter of the
// budget, then the same sweeps again point by point through
// core.BuildNodeArena and NodeModel.Run with the benchmark's tracer on
// each point's engine, and reports the per-layer metrics.
func traceDSE(o options, rep *report, ref *dseRef) error {
	budget := time.Duration(o.seconds * float64(time.Second) / 4)
	gen := newDSEGen(o.seed)
	var specs []core.JobSpec
	var untraced time.Duration
	var prs pointReports
	var events, retired, memBytes uint64
	var hostS, l1, l2, rowHit, cycles float64
	var peak, npts int
	var arenas []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for untraced < budget || len(specs) < 2 {
		spec := gen.next()
		_, s, g, pool, err := runDSEJob(spec, &prs)
		if err != nil {
			rep.mismatch("dse sweep: %v", err)
		}
		ref.check(rep, spec, g)
		specs = append(specs, spec)
		untraced += s.wall
		made, _ := pool.Stats()
		arenas = append(arenas, float64(made))
		if g == nil {
			continue
		}
		for _, p := range g.Points {
			r := p.Result
			if r == nil {
				continue
			}
			npts++
			events += r.Events
			retired += r.Retired
			memBytes += r.MemBytes
			hostS += r.HostSeconds
			l1 += r.L1HitRate
			l2 += r.L2HitRate
			rowHit += r.MemRowHitRate
			if r.IPC > 0 {
				cycles += float64(r.Retired) / r.IPC
			}
			peak = max(peak, r.PeakQueue)
		}
	}
	runtime.ReadMemStats(&ms1)
	var pointMS, busy []float64
	for _, r := range prs.all {
		pointMS = append(pointMS, ms(r.Wall))
		busy = append(busy, r.Wall.Seconds())
	}
	n := float64(max(npts, 1))
	rep.set("sim.events", float64(events), npts, "engine events over all points")
	rep.set("sim.ns_per_event", hostS*1e9/float64(max(events, 1)), npts, "simulate-phase wall ÷ events, untraced")
	rep.set("sim.peak_queue", float64(peak), npts, "largest pending-event queue of any point")
	rep.set("cpu.retired", float64(retired), npts, "")
	rep.set("cpu.ipc", float64(retired)/max(cycles, 1), npts, "retired ÷ cycles over all points")
	rep.set("mem.l1_hit_rate", l1/n, npts, "mean over points")
	rep.set("mem.l2_hit_rate", l2/n, npts, "mean over points")
	rep.set("dram.bytes", float64(memBytes), npts, "")
	rep.set("dram.row_hit_rate", rowHit/n, npts, "mean over points")
	rep.setTiming("core.point_ms_p50", "core.point_ms_tail", pointMS)
	rep.set("core.worker_busy", sum(busy)/(dseWorkers*untraced.Seconds()), len(busy), "Σ point wall ÷ (workers × sweep wall)")
	rep.set("core.alloc_mb_per_point", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/n, npts, "")
	rep.set("core.arenas_made", median(arenas), len(arenas), "per sweep (fresh ArenaPool each)")

	spans := newSpanLog()
	et, builds, traced := tracedSweeps(rep, ref, specs, spans)
	rep.setTiming("core.build_ms_p50", "", builds)
	rep.set("sim.dispatch_self_ms", ms(traced.simulate-et.top), len(builds), "simulate-phase wall − top-level handler spans")
	rep.set("sim.clock_self_ms", ms(et.selfWhere(isClock)), len(builds), "clock@* spans − the handler spans they enclose")
	rep.set("cpu.self_ms", ms(et.selfWhere(func(l string) bool { return strings.HasPrefix(l, "cpu.") })), len(builds), "")
	rep.set("mem.self_ms", ms(et.selfWhere(func(l string) bool { return strings.HasPrefix(l, "l1.") || l == "l2" })), len(builds), "l1.* and l2 spans")
	rep.set("dram.self_ms", ms(et.selfWhere(func(l string) bool { return l == "dram" || l == "dram.chan" })), len(builds), "dram and dram.chan spans")
	rep.set("trace.overhead", traced.wall.Seconds()/untraced.Seconds(), len(specs), "traced ÷ untraced wall of the same sweeps")
	printLabels(et)
	return writeTrace(tracePath(o), o.workload, o.seed, spans, et)
}

// tracedTotals sums the traced pass: its wall and the simulate phase
// (the engine run inside NodeModel.Run) over all points.
type tracedTotals struct {
	wall, simulate time.Duration
}

// tracedSweeps re-runs each sweep's points on dseWorkers goroutines, each
// with its own engine tracer and a PointArena from one pool per sweep, and
// checks the traced results against the reference too. It returns the
// merged tracer and the per-point build times.
func tracedSweeps(rep *report, ref *dseRef, specs []core.JobSpec, spans *spanLog) (*engineTracer, []float64, tracedTotals) {
	merged := newEngineTracer()
	var builds []float64
	var tot tracedTotals
	for _, spec := range specs {
		pts := points(spec)
		grid := &core.DSEGrid{Points: make([]core.DSEPoint, len(pts))}
		pool := core.NewArenaPool()
		sweepID := spans.reserve()
		t0 := time.Now()
		var mu sync.Mutex
		var wg sync.WaitGroup
		next := make(chan int, len(pts)) // holds every index; workers drain it
		for i := range pts {
			next <- i
		}
		close(next)
		for w := 0; w < dseWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				arena := pool.Get()
				defer pool.Put(arena)
				et := newEngineTracer()
				for i := range next {
					p := pts[i]
					pointID := spans.reserve()
					ts := time.Now()
					n, err := core.BuildNodeArena(core.SweepMachine(p.app, p.tech, p.width, core.Full), arena)
					tb := time.Now()
					spans.add(pointID, "core.BuildNodeArena", ts, tb)
					gp := &grid.Points[i]
					*gp = core.DSEPoint{App: p.app, Tech: p.tech, Width: p.width, Err: err}
					if err == nil {
						n.Sim.Engine().SetTracer(et)
						gp.Result, gp.Err = n.Run()
					}
					te := time.Now()
					spans.add(pointID, "NodeModel.Run", tb, te)
					spans.finish(pointID, sweepID, fmt.Sprintf("point %s/%s/w%d", p.app, p.tech, p.width), ts, te)
					mu.Lock()
					builds = append(builds, ms(tb.Sub(ts)))
					if gp.Result != nil {
						tot.simulate += time.Duration(gp.Result.HostSeconds * float64(time.Second))
					}
					mu.Unlock()
				}
				mu.Lock()
				merged.merge(et)
				mu.Unlock()
			}()
		}
		wg.Wait()
		t1 := time.Now()
		spans.finish(sweepID, 0, "sweep "+spec.Techs[0], t0, t1)
		tot.wall += t1.Sub(t0)
		ref.check(rep, spec, grid)
	}
	return merged, builds, tot
}
