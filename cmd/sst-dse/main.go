// Command sst-dse runs the design-space exploration sweeps of the SST
// studies — memory technology × issue width with power and cost axes — and
// prints the Fig. 10/11/12 tables. With -resilience it instead sweeps
// checkpoint intervals against machine MTBF and reports the optimal
// interval next to the Young/Daly closed forms.
//
// Usage:
//
//	sst-dse [-apps hpccg,lulesh] [-techs ddr2-800,ddr3-1333,gddr5-4000]
//	        [-widths 1,2,4,8] [-scale full|small] [-table all|fig10|fig11|fig12]
//	        [-format table|json|csv] [-j N] [-metrics-out m.json] [-trace-out t.json]
//	        [-journal sweep.jsonl] [-resume] [-point-timeout 5m]
//	        [-cache] [-cache-size 4096] [-cache-file results.jsonl]
//	sst-dse -resilience [-mtbf 1,4,24] [-ckpt-cost 60] [-restart-cost 120]
//	        [-work 24] [-trials 5] [-fault-seed 1] [-format json] [-j N]
//
// The sweep's design points are independent simulations; -j sets how many
// run concurrently (default: GOMAXPROCS). Tables are identical at any -j,
// and the resilience study is deterministic in -fault-seed. -metrics-out
// writes per-point host timings as JSON; -trace-out writes the sweep as a
// host-timeline Chrome trace (one row per worker, loadable in Perfetto).
// Ctrl-C drains the points already running, prints the partial tables, and
// exits 130; points that failed or were skipped are listed on stderr.
//
// -journal appends every completed design point to an fsync'd JSONL file;
// -resume restores the journal's completed points instead of re-running
// them, so a killed sweep continues where it stopped and converges to the
// same tables. -point-timeout bounds each point's wall-clock time; a point
// that exceeds it is marked failed instead of wedging a worker.
//
// -cache memoizes design points content-addressed by their fully-resolved
// configuration, so repeated or overlapping grids re-simulate only what is
// new; a hit is field-for-field identical to a fresh simulation.
// -cache-size sets the capacity in points (the least recently used point
// is evicted first), and -cache-file persists results to an fsync'd JSONL
// file so a later invocation warm-starts from them (-cache-file implies
// -cache). A one-line hit/miss summary prints to stderr; -metrics-out
// includes the full cache counters.
//
// Exit codes: 0 success, 1 failure, 2 configuration error, 3 sweep
// completed with failed points, 130 interrupted (Ctrl-C).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sst/internal/cache"
	"sst/internal/cli"
	"sst/internal/core"
	"sst/internal/obs"
)

func main() {
	var (
		appsFlag   = flag.String("apps", "hpccg,lulesh", "comma-separated miniapps")
		techsFlag  = flag.String("techs", "ddr2-800,ddr3-1333,gddr5-4000", "memory technologies")
		widthsFlag = flag.String("widths", "1,2,4,8", "issue widths")
		scaleFlag  = flag.String("scale", "full", "problem scale: full or small")
		tableFlag  = flag.String("table", "all", "which table: all, fig10, fig11, fig12")
		formatFlag = flag.String("format", "table", "output format: table, json or csv")
		jFlag      = flag.Int("j", 0, "concurrent sweep workers (0 = GOMAXPROCS)")
		metricsOut = flag.String("metrics-out", "", "write per-point sweep metrics JSON to this file")
		traceOut   = flag.String("trace-out", "", "write a host-timeline Chrome trace of the sweep to this file")
		journal    = flag.String("journal", "", "journal completed design points to this JSONL file (fsync'd per point)")
		resume     = flag.Bool("resume", false, "with -journal: restore completed points instead of re-running them")
		pointTO    = flag.Duration("point-timeout", 0, "per-point wall-clock deadline (0 = none); timed-out points are marked failed")

		resFlag     = flag.Bool("resilience", false, "run the checkpoint/MTBF resilience study instead of the DSE sweep")
		mtbfFlag    = flag.String("mtbf", "1,4,24", "machine MTBF values to study, hours")
		ckptFlag    = flag.Float64("ckpt-cost", 60, "checkpoint write cost, seconds")
		restartFlag = flag.Float64("restart-cost", 120, "restart cost after a failure, seconds")
		workFlag    = flag.Float64("work", 24, "job useful work, hours")
		trialsFlag  = flag.Int("trials", 5, "seeded runs averaged per study cell")
		seedFlag    = flag.Uint64("fault-seed", 1, "root fault seed (same seed, same tables)")
	)
	cacheFlags := cli.NewCacheFlags(flag.CommandLine)
	flag.Parse()

	format, err := core.ParseFormat(*formatFlag)
	if err != nil {
		cli.Exit("sst-dse", cli.Configf("%v", err))
	}
	if *resume && *journal == "" {
		cli.Exit("sst-dse", cli.Configf("-resume needs -journal"))
	}

	// Ctrl-C or a supervisor's SIGTERM cancels the sweep context: running
	// design points finish and keep their results (journaled, when -journal
	// is set), everything not yet started is skipped, and the partial
	// tables are still printed before the 130 exit.
	ctx, stop := cli.SignalContext(context.Background())
	defer stop()
	opts := core.SweepOptions{
		Workers: *jFlag, Context: ctx,
		Journal: *journal, Resume: *resume, PointTimeout: *pointTO,
	}
	sc, err := cacheFlags.Open()
	if err != nil {
		cli.Exit("sst-dse", err)
	}
	opts.Cache = sc
	var col *obs.SweepCollector
	if *metricsOut != "" || *traceOut != "" {
		col = &obs.SweepCollector{}
		opts.Metrics = col
	}

	if *resFlag {
		err = runResilience(*mtbfFlag, *ckptFlag, *restartFlag, *workFlag, *trialsFlag, *seedFlag, format, opts)
	} else {
		err = run(*appsFlag, *techsFlag, *widthsFlag, *scaleFlag, *tableFlag, format, opts)
	}
	cacheFlags.PrintSummary("sst-dse")
	if werr := writeSweepObs(col, sc, *metricsOut, *traceOut); werr != nil && err == nil {
		err = werr
	}
	cli.Exit("sst-dse", cacheFlags.Close(err))
}

// writeSweepObs flushes the sweep collector to the requested files. With a
// cache attached, the metrics JSON carries the cache's counters
// (hits/misses/evictions/bytes) after the per-point metrics.
func writeSweepObs(col *obs.SweepCollector, sc *cache.Cache, metricsOut, traceOut string) error {
	if col == nil {
		return nil
	}
	if metricsOut != "" {
		if err := cli.WriteFile(metricsOut, func(w io.Writer) error {
			if err := col.WriteJSON(w); err != nil {
				return err
			}
			return cli.WriteCacheReport(w, sc)
		}); err != nil {
			return err
		}
	}
	if traceOut != "" {
		if err := cli.WriteFile(traceOut, col.WriteChromeJSON); err != nil {
			return err
		}
	}
	return nil
}

func run(appsFlag, techsFlag, widthsFlag, scaleFlag, tableFlag string, format core.Format, opts core.SweepOptions) error {
	apps := strings.Split(appsFlag, ",")
	techs := strings.Split(techsFlag, ",")
	var widths []int
	for _, w := range strings.Split(widthsFlag, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(w))
		if err != nil || v <= 0 {
			return cli.Configf("bad width %q", w)
		}
		widths = append(widths, v)
	}
	// Dispatch through the study registry: the same JobSpec surface the
	// sweep service admits, so the CLI and the service cannot drift on
	// what a "dse" study means or accepts.
	study, err := core.NewStudy(core.JobSpec{
		Kind: "dse", Apps: apps, Techs: techs, Widths: widths, Scale: scaleFlag,
	})
	if err != nil {
		return cli.Configf("%v", err)
	}
	res, err := study.Run(opts)
	grid, _ := res.(*core.DSEGrid)
	if grid == nil {
		return err
	}
	baseline := techs[0]
	for _, t := range techs {
		if strings.HasPrefix(t, "ddr3") {
			baseline = t
			break
		}
	}
	var results []core.Result
	add := func(r core.Result) { results = append(results, r) }
	switch tableFlag {
	case "all":
		add(core.TableResult{Tab: core.Fig10Table(grid, apps, techs, widths, baseline)})
		add(core.TableResult{Tab: core.Fig11Table(grid, apps, techs, widths)})
		add(core.TableResult{Tab: core.Fig12Table(grid, apps, techs[len(techs)-1], widths)})
	case "fig10":
		add(core.TableResult{Tab: core.Fig10Table(grid, apps, techs, widths, baseline)})
	case "fig11":
		add(core.TableResult{Tab: core.Fig11Table(grid, apps, techs, widths)})
	case "fig12":
		add(core.TableResult{Tab: core.Fig12Table(grid, apps, techs[len(techs)-1], widths)})
	case "grid":
		add(grid)
	default:
		return cli.Configf("bad table %q", tableFlag)
	}
	if werr := core.WriteResults(os.Stdout, format, results...); werr != nil {
		return werr
	}
	if err != nil {
		failed := grid.Failed()
		for _, p := range failed {
			msg := p.Err.Error()
			if i := strings.IndexByte(msg, '\n'); i >= 0 {
				msg = msg[:i]
			}
			fmt.Fprintf(os.Stderr, "sst-dse: point %s/%s/w%d: %s\n", p.App, p.Tech, p.Width, msg)
		}
		// Keep the outcome sentinels (failed-point, cancellation) for the
		// exit code without repeating every point's full error text.
		cause := error(core.ErrPointFailed)
		if errors.Is(err, context.Canceled) {
			cause = fmt.Errorf("%w: %w", core.ErrPointFailed, context.Canceled)
		} else if !errors.Is(err, core.ErrPointFailed) {
			cause = err
		}
		return fmt.Errorf("sweep incomplete: %d of %d points failed (tables above show the rest): %w",
			len(failed), len(grid.Points), cause)
	}
	return nil
}

func runResilience(mtbfFlag string, ckptS, restartS, workHours float64, trials int, seed uint64, format core.Format, opts core.SweepOptions) error {
	var mtbfs []float64
	for _, m := range strings.Split(mtbfFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(m), 64)
		if err != nil || v <= 0 {
			return cli.Configf("bad mtbf %q (hours)", m)
		}
		mtbfs = append(mtbfs, v)
	}
	res, err := core.ResilienceStudy(core.ResilienceConfig{
		MTBFHours:   mtbfs,
		CheckpointS: ckptS,
		RestartS:    restartS,
		WorkHours:   workHours,
		Trials:      trials,
		Seed:        seed,
	}, opts)
	if err != nil {
		return err
	}
	return core.WriteResults(os.Stdout, format, res)
}
