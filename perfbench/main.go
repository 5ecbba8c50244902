// Command perfbench is the repository's benchmark. It runs one of three
// in-process workloads through the layers' public entry points, checks
// every simulated output against committed references, and prints each
// metric with its unit and sample count, then one JSON result line.
//
//	perfbench --workload dse-sweep|serve-mixed|pdes-torus --seed N --seconds S --trace 0|1 [--out DIR]
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it runs the same work twice, untraced then traced,
// and reports the per-layer metrics plus trace.overhead (traced wall ÷
// untraced wall); the traced run's spans are written to DIR. Run it with
// run.sh, which builds it from the checkout's sources. README.md says why
// each workload exists and which end-to-end metric each layer metric
// should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the program needs: the metric
// names it must print, with their units. --trace 0 prints every
// end-to-end metric, --trace 1 every per-layer one; a layer the workload
// bypasses reads 0 and the report says so.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one reported value with the number of samples behind it and
// an optional note (the tail percentile, or why a layer reads 0).
type metric struct {
	value   float64
	samples int
	note    string
}

// report collects a run's metrics, operation counts and mismatches.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, samples int, note string) {
	r.metrics[name] = metric{v, samples, note}
}

// setTiming reports the median of xs as name and the tail rule's value as
// tailName (when tailName is not empty).
func (r *report) setTiming(name, tailName string, xs []float64) {
	if len(xs) == 0 {
		r.set(name, math.NaN(), 0, "no samples")
	} else {
		r.set(name, median(xs), len(xs), "median")
	}
	if tailName == "" {
		return
	}
	if len(xs) == 0 {
		r.set(tailName, math.NaN(), 0, "no samples")
		return
	}
	if v, pct, ok := tail(xs); ok {
		r.set(tailName, v, len(xs), fmt.Sprintf("p%.1f, %d samples beyond", pct, minBeyond))
	} else {
		r.set(tailName, slices.Max(xs), len(xs), fmt.Sprintf("max: no percentile has %d samples beyond it", minBeyond))
	}
}

// mismatch counts one wrong or failed operation and keeps its description.
func (r *report) mismatch(format string, args ...any) {
	r.failed++
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// tracedLayers names, per workload, the layers whose per-layer metrics its
// traced run measures. The others read 0: the workload bypasses them, or
// (sim, cpu, mem and dram on serve-mixed) runs them inside sst-serve where
// no tracer reaches. README.md gives the reasons.
var tracedLayers = map[string][]string{
	"dse-sweep":   {"sim", "cpu", "mem", "dram", "core", "runtime", "trace"},
	"serve-mixed": {"noc", "cache", "serve", "runtime", "trace"},
	"pdes-torus":  {"sim", "par", "dnoc", "runtime", "trace"},
}

// bypass reports every metric in names from a layer the workload does not
// trace as 0. A metric of a traced layer stays missing if the run did not
// set it.
func (r *report) bypass(workload string, names []metricSpec) {
	for _, m := range names {
		layer, _, _ := strings.Cut(m.Name, ".")
		if _, set := r.metrics[m.Name]; !set && !slices.Contains(tracedLayers[workload], layer) {
			r.set(m.Name, 0, 0, "layer not on this workload's path")
		}
	}
}

type options struct {
	workload string
	spec     string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

var workloads = map[string]func(options, *report) error{
	"dse-sweep":   runDSE,
	"serve-mixed": runServe,
	"pdes-torus":  runPDES,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "dse-sweep, serve-mixed or pdes-torus")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "the benchmark definition naming the metrics to print")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", ".", "directory for the serve state and the trace file")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload dse-sweep|serve-mixed|pdes-torus, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	spec, err := loadSpec(o.spec)
	if err == nil {
		err = os.MkdirAll(o.out, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	rep := newReport()
	cpu0 := cpuTicks()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if o.trace {
		runtimeMetrics(rep, ms0)
	} else {
		rep.set("peak_rss_mb", peakRSSMB(), 1, "high-water RSS of this process")
	}
	names := spec.EndToEnd
	if o.trace {
		names = spec.PerLayer
		rep.bypass(o.workload, names)
	}
	fmt.Printf("host: %s steal=%.3f\n", fingerprint(), stealShare(cpu0, cpuTicks()))
	if err := emit(os.Stdout, o, names, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runtimeMetrics reports the Go runtime's allocation and GC totals since
// ms0 was taken.
func runtimeMetrics(rep *report, ms0 runtime.MemStats) {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rep.set("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, 1, "")
	rep.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), 1, "")
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	gc := 0.0
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	rep.set("runtime.gc_cpu_s", gc, 1, "whole process")
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// emit prints every metric in names with its
// unit and sample count, then the JSON result as the last line. A metric
// the run should have produced but did not, or one BENCHMARK.json does not
// declare, makes the run incorrect, never a silent gap.
func emit(w io.Writer, o options, names []metricSpec, rep *report) error {
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	correct := rep.failed == 0
	declared := map[string]bool{}
	for _, ms := range names {
		declared[ms.Name] = true
		m, ok := rep.metrics[ms.Name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			correct = false
			fmt.Fprintf(w, "metric %-26s missing (%s)\n", ms.Name, m.note)
			continue
		}
		note := ""
		if m.note != "" {
			note = " — " + m.note
		}
		fmt.Fprintf(w, "metric %-26s %14.6g %-6s n=%d%s\n", ms.Name, m.value, ms.Unit, m.samples, note)
		out[ms.Name] = jm{m.value, ms.Unit}
	}
	for n := range rep.metrics {
		if !declared[n] {
			correct = false
			fmt.Fprintf(w, "metric %s is not declared in BENCHMARK.json\n", n)
		}
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "error_rate: %g (%d failed of %d attempted)\n", errRate, rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "mismatch: %s\n", p)
	}
	if rep.attempted < 1 {
		correct = false
		rep.attempted = 1
		rep.failed = max(rep.failed, 1)
	}
	raw, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{correct, rep.attempted, rep.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// cpuTicks reads the host's aggregate CPU tick counters from /proc/stat
// (user, nice, system, idle, iowait, irq, softirq, steal, …); nil when
// unavailable.
func cpuTicks() []uint64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var out []uint64
	for _, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealShare is the share of CPU ticks between a and b that the
// hypervisor gave to other guests. On a shared host it explains most of
// the run-to-run spread of every timing; -1 when unknown.
func stealShare(a, b []uint64) float64 {
	const steal = 7
	if len(a) <= steal || len(b) != len(a) {
		return -1
	}
	var total uint64
	for i := range a {
		total += b[i] - a[i]
	}
	if total == 0 {
		return -1
	}
	return float64(b[steal]-a[steal]) / float64(total)
}

// fingerprint identifies the host and the code: CPU model, CPU count,
// GOMAXPROCS, Go version, the commit when the build recorded one and a
// hash of the benchmark binary, which changes with any source change.
func fingerprint() string {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unrecorded"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	bin := "unknown"
	if exe, err := os.Executable(); err == nil {
		if raw, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(raw)
			bin = hex.EncodeToString(sum[:6])
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s binary=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit, bin)
}

func tracePath(o options) string {
	return filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
}
