package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sst/internal/cache"
	"sst/internal/core"
	"sst/internal/serve"
)

// serve-mixed sizing for a 2-CPU host: two closed-loop clients, two job
// workers, one sweep worker per job.
const (
	serveClients      = 2
	serveJobWorkers   = 2
	servePointWorkers = 1
	serveCacheSize    = 1 << 15 // no run evicts, so a repeat is always a hit
	serveSetups       = 45      // set-ups per run; setup_s is their median
	statusPoll        = 250 * time.Microsecond
)

// serveEnv is one in-process sst-serve: the server over a fresh state
// directory, its shared result cache with a -cache-file tier, and an HTTP
// listener on loopback.
type serveEnv struct {
	dir   string
	srv   *serve.Server
	cache *cache.Cache
	hs    *http.Server
	errc  chan error
	url   string
}

// startServe does what `sst-serve -jobs 2 -j 1 -cache-file …` does before
// it accepts its first request: cache warm-start, serve.New with its
// recovery scan, the listener and Server.Start.
func startServe(dir string) (*serveEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	pol, err := cache.ParsePolicy("lru")
	if err != nil {
		return nil, err
	}
	c, err := core.NewSweepCache(serveCacheSize, pol, nil, filepath.Join(dir, "cache.jsonl"))
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{
		StateDir: filepath.Join(dir, "state"), JobWorkers: serveJobWorkers,
		PointWorkers: servePointWorkers, Cache: c,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		c.Close()
		return nil, err
	}
	srv.Start()
	e := &serveEnv{dir: dir, srv: srv, cache: c, hs: serve.NewHTTPServer(srv.Handler(), 0),
		errc: make(chan error, 1), url: "http://" + ln.Addr().String()}
	go func() { e.errc <- e.hs.Serve(ln) }()
	return e, nil
}

// stop drains the server, shuts the listener down, closes the cache and
// removes the state directory.
func (e *serveEnv) stop() error {
	derr := e.srv.Drain(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	<-e.errc
	cerr := e.cache.Close()
	rerr := os.RemoveAll(e.dir)
	for _, err := range []error{derr, cerr, rerr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// jobTiming is one job as a client saw it: POSTed at start, accepted
// (202) at admitted, events stream closed at close, result fetched at end.
// The traced run also records when Server.Status first showed the job
// past queued (running) and with every point finished (lastPoint), and
// the per-point wall_ms from /metrics.
type jobTiming struct {
	start, admitted, running, lastPoint, close, end time.Time
	simUS                                           float64
	points                                          []float64
	job                                             serveJob
}

// rowBook holds the first-seen result row of every design point: a later
// row for the same point, cache hit or not, must be byte-identical.
type rowBook struct {
	mu   sync.Mutex
	rows map[string]string
}

func (b *rowBook) check(key, row string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if first, ok := b.rows[key]; !ok {
		b.rows[key] = row
	} else if first != row {
		return fmt.Errorf("point %s: row %q, first seen %q", key, row, first)
	}
	return nil
}

// client is one closed-loop client: it sends its next job only after the
// previous one's result is fetched, over a single connection.
type client struct {
	id     int
	env    *serveEnv
	http   *http.Client
	book   *rowBook
	traced bool

	jobs     []jobTiming
	problems []string
	sent     int
}

func newClient(id int, env *serveEnv, book *rowBook, traced bool) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	// The timeout bounds a hung server; a job here takes milliseconds.
	hc := &http.Client{Transport: tr, Timeout: time.Minute}
	return &client{id: id, env: env, http: hc, book: book, traced: traced}
}

// loop runs jobs from gen until budget has passed (or, with limit > 0,
// until limit jobs were sent).
func (c *client) loop(gen *clientGen, start time.Time, budget time.Duration, limit int) {
	defer c.http.CloseIdleConnections()
	for (limit > 0 && c.sent < limit) || (limit <= 0 && time.Since(start) < budget) {
		job := gen.next()
		c.sent++
		t, err := c.do(job)
		if err != nil {
			c.problems = append(c.problems, fmt.Sprintf("client %d job %d (%s): %v", c.id, c.sent, job.Spec.Kind, err))
			continue
		}
		c.jobs = append(c.jobs, t)
	}
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.env.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// do runs one job: POST /v1/jobs, follow /events until it closes, GET
// /result, and check the result rows.
func (c *client) do(job serveJob) (jobTiming, error) {
	t := jobTiming{job: job, start: time.Now()}
	body, err := json.Marshal(map[string]any{"tenant": fmt.Sprintf("client%d", c.id), "spec": job.Spec})
	if err != nil {
		return t, err
	}
	resp, err := c.http.Post(c.env.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return t, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return t, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return t, fmt.Errorf("POST /v1/jobs: refused: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	t.admitted = time.Now()
	var st serve.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return t, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	var poll sync.WaitGroup
	if c.traced {
		poll.Add(1)
		go func() {
			defer poll.Done()
			c.pollStatus(st.ID, &t)
		}()
	}
	if _, err := c.get("/v1/jobs/" + st.ID + "/events"); err != nil {
		poll.Wait()
		return t, err
	}
	t.close = time.Now()
	poll.Wait()
	csv, err := c.get("/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return t, err
	}
	t.end = time.Now()
	if t.simUS, err = c.checkRows(job, string(csv)); err != nil {
		return t, err
	}
	if c.traced {
		if t.points, err = c.pointWalls(st.ID); err != nil {
			return t, err
		}
	}
	return t, nil
}

// pollStatus polls Server.Status in process until the job is terminal,
// recording when it was first seen running (or past running) and when its
// last point was first seen finished.
func (c *client) pollStatus(id string, t *jobTiming) {
	for {
		st, err := c.env.srv.Status(id)
		now := time.Now()
		if err != nil {
			return
		}
		if t.running.IsZero() && st.State != serve.StateQueued {
			t.running = now
		}
		if t.lastPoint.IsZero() && st.PointsDone+st.PointsFailed >= st.Points {
			t.lastPoint = now
		}
		if st.State != serve.StateQueued && st.State != serve.StateRunning {
			return
		}
		time.Sleep(statusPoll)
	}
}

// checkRows checks a job's result CSV: one row per point, no failed
// point, and each row equal to the first row seen for the same point in
// the run. It returns the simulated microseconds the rows report.
func (c *client) checkRows(job serveJob, csv string) (float64, error) {
	var rows []string
	for _, l := range strings.Split(strings.TrimSuffix(csv, "\n"), "\n") {
		if !strings.HasPrefix(l, "#") && l != "" {
			rows = append(rows, l)
		}
	}
	if len(rows) > 0 {
		rows = rows[1:] // column header
	}
	if len(rows) != len(job.Repeat) {
		return 0, fmt.Errorf("result has %d rows for %d points", len(rows), len(job.Repeat))
	}
	var simUS float64
	for i, row := range rows {
		f := strings.Split(row, ",")
		var key string
		var runtimeCol int
		switch job.Spec.Kind {
		case "dse":
			key = fmt.Sprintf("dse/%s/%s/w%d", job.Spec.Apps[0], job.Spec.Techs[0], job.Spec.Widths[i])
			runtimeCol = 3
			if len(f) != 8 || f[0] != job.Spec.Apps[0] || f[2] != strconv.Itoa(job.Spec.Widths[i]) || f[7] != "" {
				return 0, fmt.Errorf("dse row %q", row)
			}
		default:
			nf := len(job.Spec.Fractions)
			key = fmt.Sprintf("net/%s/%s", f[0], strconv.FormatFloat(job.Spec.Fractions[i%nf], 'g', -1, 64))
			runtimeCol = 2
			if len(f) != 4 {
				return 0, fmt.Errorf("net row %q", row)
			}
		}
		v, err := strconv.ParseFloat(f[runtimeCol], 64)
		if err != nil {
			return 0, fmt.Errorf("row %q: runtime: %w", row, err)
		}
		simUS += v * 1e3
		if err := c.book.check(key, row); err != nil {
			return 0, err
		}
	}
	return simUS, nil
}

// pointWalls fetches the job's per-point host timings (wall_ms, in point
// order) from /v1/jobs/{id}/metrics.
func (c *client) pointWalls(id string) ([]float64, error) {
	raw, err := c.get("/v1/jobs/" + id + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	var tab struct{ Rows [][]string }
	if err := json.Unmarshal(raw, &tab); err != nil {
		return nil, fmt.Errorf("job metrics: %w", err)
	}
	out := make([]float64, len(tab.Rows))
	for i, r := range tab.Rows {
		if len(r) < 3 {
			return nil, fmt.Errorf("job metrics row %v", r)
		}
		if out[i], err = strconv.ParseFloat(r[2], 64); err != nil {
			return nil, fmt.Errorf("job metrics row %v: %w", r, err)
		}
	}
	return out, nil
}

// servePass runs the closed loop of serveClients clients against env for
// budget (or, with limits, for limits[c] jobs per client) and returns the
// clients and the loop's wall.
func servePass(env *serveEnv, seed uint64, budget time.Duration, limits []int, traced bool) ([]*client, time.Duration) {
	book := &rowBook{rows: map[string]string{}}
	clients := make([]*client, serveClients)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		clients[i] = newClient(i, env, book, traced)
		limit := 0
		if limits != nil {
			limit = limits[i]
		}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(newClientGen(seed, c.id), start, budget, limit)
		}(clients[i])
	}
	wg.Wait()
	return clients, time.Since(start)
}

// tally adds the clients' jobs and problems to rep and returns all timings.
func tally(rep *report, clients []*client) []jobTiming {
	var all []jobTiming
	for _, c := range clients {
		rep.attempted += c.sent
		for _, p := range c.problems {
			rep.mismatch("%s", p)
		}
		all = append(all, c.jobs...)
	}
	return all
}

// setupServe starts serveSetups servers in turn, stopping all but the
// last, and returns it with the set-up times. Before each set-up it
// flushes the file system (sync), untimed, so dirty data left by an
// earlier run or set-up — a serve run creates and deletes thousands of
// fsync'd files — is not written back while this one is timed. Set-up
// time is mostly the cache file's and state directory's fsyncs.
func setupServe(out string) (*serveEnv, []float64, error) {
	var setups []float64
	var env *serveEnv
	for i := 0; i < serveSetups; i++ {
		syscall.Sync()
		t0 := time.Now()
		e, err := startServe(filepath.Join(out, fmt.Sprintf("serve-%d-%d", os.Getpid(), i)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == serveSetups-1 {
			env = e
		} else if err := e.stop(); err != nil {
			return nil, nil, err
		}
	}
	return env, setups, nil
}

func runServe(o options, rep *report) error {
	if o.trace {
		return traceServe(o, rep)
	}
	env, setups, err := setupServe(o.out)
	if err != nil {
		return err
	}
	clients, wall := servePass(env, o.seed, time.Duration(o.seconds*float64(time.Second)), nil, false)
	jobs := tally(rep, clients)
	if err := env.stop(); err != nil {
		return err
	}
	var lat []float64
	var simUS float64
	for _, j := range jobs {
		lat = append(lat, ms(j.end.Sub(j.start)))
		simUS += j.simUS
	}
	rep.set("jobs_per_s", float64(len(jobs))/wall.Seconds(), len(jobs), "completed jobs ÷ loop wall")
	rep.setTiming("job_p50_ms", "job_tail_ms", lat)
	rep.set("sim_us_per_s", simUS/wall.Seconds(), len(jobs), "simulated µs in delivered results (hits included) per host second")
	rep.set("setup_s", median(setups), len(setups), fmt.Sprintf("cache warm-start + serve.New + listener + Start, median of %d", serveSetups))
	return nil
}

// traceServe runs the job stream untraced for a quarter of the budget,
// then the same jobs again on a fresh server with the phase split
// measured, and reports the per-layer metrics.
func traceServe(o options, rep *report) error {
	env, _, err := setupServe(o.out)
	if err != nil {
		return err
	}
	clients, untraced := servePass(env, o.seed, time.Duration(o.seconds*float64(time.Second)/4), nil, false)
	tally(rep, clients)
	if err := env.stop(); err != nil {
		return err
	}
	limits := make([]int, serveClients)
	for i, c := range clients {
		limits[i] = c.sent
	}
	env, _, err = setupServe(o.out)
	if err != nil {
		return err
	}
	clients, traced := servePass(env, o.seed, 0, limits, true)
	jobs := tally(rep, clients)
	cs := env.cache.Stats()
	sr := env.srv.Report()
	if err := env.stop(); err != nil {
		return err
	}

	spans := newSpanLog()
	var admit, queue, run, fin, fetch, hitMS, missMS, netMS []float64
	for _, j := range jobs {
		root := spans.reserve()
		spans.add(root, "serve.admit", j.start, j.admitted)
		spans.add(root, "serve.queue_wait", j.admitted, j.running)
		spans.add(root, "serve.run", j.running, j.lastPoint)
		spans.add(root, "serve.finalize", j.lastPoint, j.close)
		spans.add(root, "serve.fetch", j.close, j.end)
		spans.finish(root, 0, "job "+j.job.Spec.Kind, j.start, j.end)
		admit = append(admit, ms(j.admitted.Sub(j.start)))
		queue = append(queue, ms(j.running.Sub(j.admitted)))
		run = append(run, ms(j.lastPoint.Sub(j.running)))
		fin = append(fin, ms(j.close.Sub(j.lastPoint)))
		fetch = append(fetch, ms(j.end.Sub(j.close)))
		for i, w := range j.points {
			if i >= len(j.job.Repeat) {
				break
			}
			switch {
			case j.job.Repeat[i]:
				hitMS = append(hitMS, w)
			case j.job.Spec.Kind == "net":
				missMS = append(missMS, w)
				netMS = append(netMS, w)
			default:
				missMS = append(missMS, w)
			}
		}
	}
	rep.setTiming("serve.admit_ms_p50", "serve.admit_ms_tail", admit)
	rep.setTiming("serve.queue_wait_ms_p50", "serve.queue_wait_ms_tail", queue)
	rep.setTiming("serve.run_ms_p50", "", run)
	rep.setTiming("serve.finalize_ms_p50", "", fin)
	rep.setTiming("serve.fetch_ms_p50", "", fetch)
	rep.set("serve.shed", float64(sr.Shed), 1, "")
	rep.set("serve.points_failed", float64(sr.PointsFailed), 1, "")
	rep.set("serve.retries", float64(sr.Retries), 1, "")
	rep.set("cache.hits", float64(cs.Hits), 1, "")
	rep.set("cache.misses", float64(cs.Misses), 1, "")
	rep.set("cache.hit_rate", cs.HitRate, 1, fmt.Sprintf("generated repeat share %.3f", repeatShareOf(jobs)))
	rep.setTiming("cache.hit_point_ms_p50", "", hitMS)
	rep.setTiming("cache.miss_point_ms_p50", "", missMS)
	rep.set("cache.append_failures", float64(cs.AppendFailures), 1, "")
	rep.setTiming("noc.point_ms_p50", "", netMS)
	rep.set("trace.overhead", traced.Seconds()/untraced.Seconds(), len(jobs), "traced ÷ untraced wall of the same job stream")
	return writeTrace(tracePath(o), o.workload, o.seed, spans, nil)
}

func repeatShareOf(jobs []jobTiming) float64 {
	js := make([]serveJob, len(jobs))
	for i, j := range jobs {
		js[i] = j.job
	}
	return repeatShare(js)
}
