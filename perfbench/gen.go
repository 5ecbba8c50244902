package main

import (
	"math/bits"
	"math/rand/v2"

	"sst/internal/core"
)

// The seeded input generators. The seed is the only source of variation:
// the program under test receives nothing but the JobSpecs built here.

// dse-sweep mixes memory-bound points (gups at IPC ~0.01, stream) with
// compute-bound ones (fea, minimd, hpccg at IPC 1.4-2.7). Every sweep runs
// all five apps, so the memory-bound share of points is 2/5 whatever the
// seed, and every sweep retires the same instruction count.
var (
	dseApps   = []string{"gups", "stream", "fea", "minimd", "hpccg"}
	dseTechs  = []string{"ddr2-800", "ddr3-800", "ddr3-1066", "ddr3-1333", "ddr3-1600", "gddr5-4000"}
	dseWidths = []int{1, 4}
)

// dseGen yields the dse-sweep jobs: each is a full-scale JobSpec pairing
// the five apps with one memory technology at widths 1 and 4. The seed
// shuffles the app and width order of every sweep (so which point runs
// last, and sets when the sweep ends, varies) and the order in which the
// technologies are visited; each run of six sweeps visits all six.
type dseGen struct {
	rng   *rand.Rand
	techs []string
	n     int
}

func newDSEGen(seed uint64) *dseGen {
	return &dseGen{rng: rand.New(rand.NewPCG(seed, 0xd5e))}
}

func (g *dseGen) next() core.JobSpec {
	if g.n%len(dseTechs) == 0 {
		g.techs = shuffled(g.rng, dseTechs)
	}
	tech := g.techs[g.n%len(dseTechs)]
	g.n++
	return core.JobSpec{
		Kind:   "dse",
		Apps:   shuffled(g.rng, dseApps),
		Techs:  []string{tech},
		Widths: shuffled(g.rng, dseWidths),
		Scale:  "full",
	}
}

func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// serve-mixed job shapes. Net jobs are the reduced-size Fig. 9 study: an
// 8-node torus, one timestep, four profiles at four bandwidth fractions.
const (
	serveNetShare  = 0.2 // about one job in five is a net job
	serveIntroEach = 8   // every 8th dse job of a client opens a new (app, tech) pair
	serveNetNodes  = 8
	serveNetSteps  = 1
	serveDSEWidths = 4 // points per dse job: 1 app × 1 tech × 4 widths
	// serveNewWidths caps the widths each client computes per (app, tech)
	// pair at 50 (client c takes 2k+1+c, so widths stay within 1-100).
	// Realistic designs are far narrower; past ~120 the die-cost model
	// returns +Inf, which the result cache cannot store.
	serveNewWidths = 50
	// serveNewFracs caps the bandwidth fractions each client computes at
	// 128, so fractions stay within 0.75-1 (client c takes 1-(2k+1+c)/1024
	// for k < 128).
	serveNewFracs = 128
)

var serveApps = []string{"gups", "stream", "fea", "minimd", "hpccg", "lulesh", "stencil"}

// repeatBand is the stated range of the share of a serve-mixed client's
// points that repeat points computed earlier in the run, over a stream of
// 100 or more jobs. The expected share is ~0.47: dse jobs that open a pair
// and a client's first net job repeat nothing, every other job repeats
// half its points.
var repeatBand = [2]float64{0.40, 0.50}

// serveJob is one generated serve-mixed job: the spec to POST and, per
// design point in grid order, whether the point repeats one computed
// earlier in the run (a cache hit) or is new (a miss).
type serveJob struct {
	Spec   core.JobSpec
	Repeat []bool
}

// pair is one (app, memory technology) combination of the dse jobs.
type pair struct{ app, tech string }

// clientGen yields one closed-loop client's job stream. Repeats are drawn
// only from the client's own earlier jobs, which have completed before the
// client sends its next one, so a repeat is a cache hit by construction.
// New points are disjoint between clients (client c takes widths and
// fractions of its own parity), so two clients never race to compute the
// same point and hits and misses stay predictable. The one exception is
// fraction 1, the slowdown baseline every net job must lead with: both
// clients compute it in their first net job.
type clientGen struct {
	rng    *rand.Rand
	client int

	pending []pair         // pairs not yet opened, in seeded order
	opened  []pair         // pairs opened so far
	widths  map[pair][]int // widths computed per opened pair
	issued  map[pair]int   // new widths issued per pair
	dseJobs int

	fracs    []float64 // computed fractions other than 1
	newFracs int
	netJobs  int
}

func newClientGen(seed uint64, client int) *clientGen {
	g := &clientGen{
		rng:    rand.New(rand.NewPCG(seed, 0x5e7e+uint64(client))),
		client: client,
		widths: map[pair][]int{},
		issued: map[pair]int{},
	}
	for _, a := range serveApps {
		for _, t := range dseTechs {
			g.pending = append(g.pending, pair{a, t})
		}
	}
	g.pending = shuffled(g.rng, g.pending)
	return g
}

func (g *clientGen) next() serveJob {
	if g.rng.Float64() < serveNetShare {
		return g.netJob()
	}
	return g.dseJob()
}

func (g *clientGen) dseJob() serveJob {
	var p pair
	var roomy []pair // opened pairs with new widths left
	for _, q := range g.opened {
		if g.issued[q] < serveNewWidths {
			roomy = append(roomy, q)
		}
	}
	open := len(g.pending) > 0 && (g.dseJobs%serveIntroEach == 0 || len(roomy) == 0)
	switch {
	case open:
		p, g.pending = g.pending[0], g.pending[1:]
		g.opened = append(g.opened, p)
	case len(roomy) > 0:
		p = roomy[g.rng.IntN(len(roomy))]
	default: // every width of every pair computed: repeats only
		p = g.opened[g.rng.IntN(len(g.opened))]
	}
	g.dseJobs++
	var widths []int
	var repeat []bool
	if !open {
		fresh := min(serveDSEWidths/2, serveNewWidths-g.issued[p])
		hist := g.widths[p]
		for _, i := range g.rng.Perm(len(hist))[:serveDSEWidths-fresh] {
			widths = append(widths, hist[i])
			repeat = append(repeat, true)
		}
	}
	for len(widths) < serveDSEWidths {
		w := 2*g.issued[p] + 1 + g.client
		g.issued[p]++
		g.widths[p] = append(g.widths[p], w)
		widths = append(widths, w)
		repeat = append(repeat, false)
	}
	perm := g.rng.Perm(len(widths))
	spec := core.JobSpec{Kind: "dse", Apps: []string{p.app}, Techs: []string{p.tech}, Scale: "small"}
	rep := make([]bool, len(widths))
	for i, j := range perm {
		spec.Widths = append(spec.Widths, widths[j])
		rep[i] = repeat[j]
	}
	return serveJob{Spec: spec, Repeat: rep}
}

// netProfiles is the number of application proxies in a net job's grid.
const netProfiles = 4

func (g *clientGen) netJob() serveJob {
	first := g.netJobs == 0
	g.netJobs++
	fracs := []float64{1}
	rep := []bool{!first}
	if !first {
		fresh := min(2, serveNewFracs-g.newFracs)
		for _, i := range g.rng.Perm(len(g.fracs))[:3-fresh] {
			fracs = append(fracs, g.fracs[i])
			rep = append(rep, true)
		}
	}
	for len(fracs) < 4 {
		// Bit-reversing the index spreads any prefix of the sequence evenly
		// over 0.75-1, so a longer run does not drift to lower (slower to
		// simulate) fractions.
		slot := bits.Reverse8(uint8(g.newFracs)) >> 1
		f := 1 - float64(2*int(slot)+1+g.client)/1024
		g.newFracs++
		g.fracs = append(g.fracs, f)
		fracs = append(fracs, f)
		rep = append(rep, false)
	}
	// Fraction 1 stays first: it is the slowdown baseline of every row.
	perm := g.rng.Perm(len(fracs) - 1)
	ordered, orep := []float64{fracs[0]}, []bool{rep[0]}
	for _, j := range perm {
		ordered = append(ordered, fracs[j+1])
		orep = append(orep, rep[j+1])
	}
	points := make([]bool, 0, netProfiles*len(ordered))
	for range netProfiles {
		points = append(points, orep...)
	}
	return serveJob{
		Spec:   core.JobSpec{Kind: "net", Nodes: serveNetNodes, Steps: serveNetSteps, Fractions: ordered},
		Repeat: points,
	}
}

// repeatShare is the share of points in jobs that repeat earlier points.
func repeatShare(jobs []serveJob) float64 {
	var rep, all int
	for _, j := range jobs {
		for _, r := range j.Repeat {
			all++
			if r {
				rep++
			}
		}
	}
	if all == 0 {
		return 0
	}
	return float64(rep) / float64(all)
}
