package par

import (
	"math/rand"
	"runtime"
	"testing"

	"sst/internal/sim"
)

// The randomized-topology determinism harness: property-based tests that
// generate seeded random machine graphs (random fan-outs, latencies, think
// times, and deterministic node-kill "fault injections"), partition them
// over 1/2/4/8 ranks, run them under all four sync modes — conservative
// global and pairwise, optimistic speculative and adaptive — and assert
// the results are bit-identical to the sequential reference. Every random
// draw happens before partitioning and depends only on the seed, never on
// the rank count, the sync mode, or host time — so a failure is always
// reproducible from its seed.

// detToken is the message circulated through a generated topology.
type detToken struct {
	id   uint64
	hops int
}

// detNode folds every arrival into order-insensitive signatures (count,
// commutative checksum over (time, hops, id), last arrival time) and
// forwards the token on an out port chosen from the token's own content,
// until its hop budget runs out or the node's kill time has passed. Both
// the checksum and the routing are deliberately insensitive to the
// relative order of same-timestamp arrivals from different sources: that
// order is the one thing conservative PDES does not define across
// partitionings (it falls to engine insertion order), so a model that
// depended on it would pin an accident of partitioning rather than a
// property of the simulation.
type detNode struct {
	name   string
	eng    *sim.Engine
	outs   []*sim.Port
	think  sim.Time
	killAt sim.Time
	count  uint64
	sum    uint64
	last   sim.Time
}

func (n *detNode) Name() string { return n.name }

// mix64 is the splitmix64 finalizer: a cheap bijective hash so the XOR
// fold reacts to any changed (time, hops, id) triple.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (n *detNode) recv(p any) {
	tok := p.(detToken)
	now := n.eng.Now()
	n.count++
	n.sum ^= mix64(uint64(now)*0x9e3779b97f4a7c15 + uint64(tok.hops)<<32 + tok.id)
	if now > n.last {
		n.last = now
	}
	if now >= n.killAt || tok.hops <= 0 || len(n.outs) == 0 {
		return
	}
	out := n.outs[int(mix64(tok.id+uint64(tok.hops))%uint64(len(n.outs)))]
	out.SendDelayed(n.think, detToken{id: tok.id, hops: tok.hops - 1})
}

// nodeSig is one node's result signature.
type nodeSig struct {
	Count uint64
	Sum   uint64
	Last  sim.Time
}

// detSig is one run's full signature: total events the runner dispatched
// plus every node's arrival signature.
type detSig struct {
	Total uint64
	Nodes []nodeSig
}

// detInjection seeds one token into the generated machine.
type detInjection struct {
	node int
	at   sim.Time
	hops int
	id   uint64
}

// detTopo is a generated machine description. Building it consumes the
// seed's whole random stream up front, so construction per (nranks, mode)
// never touches the RNG again.
type detTopo struct {
	nodes  int
	rings  []sim.Time // ring link i→i+1 latency
	chords [][3]int   // a, b, latency in ns
	think  []sim.Time
	kill   []sim.Time
	inject []detInjection
}

// genDetTopo draws a random topology: a ring backbone (so every rank pair
// is transitively reachable and the lookahead matrix is dense) plus random
// chords with independent latencies, per-node think times, node kill times
// on ~25% of nodes, and a handful of token injections.
func genDetTopo(seed int64) detTopo {
	rng := rand.New(rand.NewSource(seed))
	n := 6 + rng.Intn(10)
	tp := detTopo{nodes: n}
	for i := 0; i < n; i++ {
		tp.rings = append(tp.rings, sim.Time(1+rng.Intn(50))*sim.Nanosecond)
	}
	for c := rng.Intn(n + 1); c > 0; c-- {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		tp.chords = append(tp.chords, [3]int{a, b, 1 + rng.Intn(80)})
	}
	for i := 0; i < n; i++ {
		tp.think = append(tp.think, sim.Time(rng.Intn(5))*sim.Nanosecond)
	}
	for i := 0; i < n; i++ {
		kill := sim.TimeInfinity
		if rng.Float64() < 0.25 {
			kill = sim.Time(rng.Intn(3000)) * sim.Nanosecond
		}
		tp.kill = append(tp.kill, kill)
	}
	for m := 2 + rng.Intn(6); m > 0; m-- {
		tp.inject = append(tp.inject, detInjection{
			node: rng.Intn(n),
			at:   sim.Time(rng.Intn(100)) * sim.Nanosecond,
			hops: 40 + rng.Intn(160),
			id:   rng.Uint64(),
		})
	}
	return tp
}

// buildDetTopo instantiates a generated topology on a runner, node i on
// rank i mod nranks, with injections scheduled as raw engine events.
func buildDetTopo(t *testing.T, r *Runner, tp detTopo) []*detNode {
	t.Helper()
	nodes := buildDetNodes(t, r, tp)
	for _, inj := range tp.inject {
		inj := inj
		node := nodes[inj.node]
		node.eng.ScheduleAt(inj.at, sim.PrioLink, func(any) {
			node.recv(detToken{id: inj.id, hops: inj.hops})
		}, nil)
	}
	return nodes
}

// buildDetNodes instantiates the nodes and links of a generated topology
// without scheduling its injections; the snapshot tests route those through
// checkpoint-owned event sets instead (see snapshot_test.go).
func buildDetNodes(t *testing.T, r *Runner, tp detTopo) []*detNode {
	t.Helper()
	nranks := r.NumRanks()
	rankOf := func(i int) int { return i % nranks }
	nodes := make([]*detNode, tp.nodes)
	for i := range nodes {
		nodes[i] = &detNode{
			name:   "det" + string(rune('a'+i)),
			eng:    r.Rank(rankOf(i)).Engine(),
			think:  tp.think[i],
			killAt: tp.kill[i],
		}
		r.Rank(rankOf(i)).Add(nodes[i])
	}
	connect := func(name string, a, b int, lat sim.Time) {
		pa, pb, err := r.Connect(name, lat, rankOf(a), rankOf(b))
		if err != nil {
			t.Fatal(err)
		}
		nodes[a].outs = append(nodes[a].outs, pa)
		pb.SetHandler(nodes[b].recv)
		pa.SetHandler(func(any) {})
	}
	for i, lat := range tp.rings {
		connect("ring"+nodes[i].name, i, (i+1)%tp.nodes, lat)
	}
	for k, ch := range tp.chords {
		connect("chord"+string(rune('a'+k)), ch[0], ch[1], sim.Time(ch[2])*sim.Nanosecond)
	}
	return nodes
}

// runDetTopo builds and runs one (seed, nranks, mode) configuration.
// splitAt > 0 additionally stops the run at that time and resumes, to
// prove window bases survive across Run calls. Speculative modes need a
// checkpoint-owned model (rollback restores engine snapshots), so they use
// the snapshot-safe builder, which TestSnapshotBuilderNonIntrusive proves
// bit-equivalent to the raw one.
func runDetTopo(t *testing.T, tp detTopo, nranks int, mode SyncMode, splitAt sim.Time) detSig {
	t.Helper()
	r, err := NewRunner(nranks)
	if err != nil {
		t.Fatal(err)
	}
	r.SetSyncMode(mode)
	var nodes []*detNode
	if mode.Speculative() {
		r.EnableSnapshots()
		nodes = buildDetTopoSnap(t, r, tp)
	} else {
		nodes = buildDetTopo(t, r, tp)
	}
	var total uint64
	if splitAt > 0 {
		n, err := r.Run(splitAt)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	n, err := r.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	total += n
	sig := detSig{Total: total, Nodes: make([]nodeSig, len(nodes))}
	for i, nd := range nodes {
		sig.Nodes[i] = nodeSig{Count: nd.count, Sum: nd.sum, Last: nd.last}
	}
	return sig
}

func diffSig(t *testing.T, label string, got, want detSig) {
	t.Helper()
	if got.Total != want.Total {
		t.Errorf("%s: total events %d, sequential reference %d", label, got.Total, want.Total)
	}
	for i := range want.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Errorf("%s: node %d signature %+v, sequential reference %+v",
				label, i, got.Nodes[i], want.Nodes[i])
		}
	}
}

// detSeeds is the harness's topology count: every seed is a distinct
// machine. Fixed seeds keep failures reproducible.
const detSeeds = 30

var detRankCounts = []int{1, 2, 4, 8}

// allSyncModes is every registered mode, conservative and optimistic; the
// harness runs each of them against the sequential reference.
var allSyncModes = []SyncMode{SyncGlobal, SyncPairwise, SyncSpeculative, SyncAdaptive}

// TestRandomTopologyDeterminism is the headline determinism property: for
// every generated topology, every rank count and all four sync modes
// produce results bit-identical to the 1-rank sequential reference — same
// event totals, same per-node arrival counts/checksums, same final clocks.
// For the optimistic modes this is the end-to-end rollback correctness
// proof: any lost, duplicated, or misordered delivery across a
// checkpoint→straggler→rollback→replay cycle would change a node checksum.
func TestRandomTopologyDeterminism(t *testing.T) {
	seeds := detSeeds
	if testing.Short() {
		seeds = 8
	}
	vacuous := 0
	for s := 0; s < seeds; s++ {
		tp := genDetTopo(int64(9000 + s))
		ref := runDetTopo(t, tp, 1, SyncPairwise, 0)
		if ref.Total == 0 {
			vacuous++
			continue
		}
		for _, nranks := range detRankCounts {
			for _, mode := range allSyncModes {
				if nranks == 1 && mode == SyncPairwise {
					continue // this is the reference itself
				}
				got := runDetTopo(t, tp, nranks, mode, 0)
				label := "seed " + itoa(9000+s) + " ranks " + itoa(nranks) + " sync " + mode.String()
				diffSig(t, label, got, ref)
			}
		}
	}
	if vacuous > seeds/4 {
		t.Fatalf("%d/%d generated topologies ran zero events; generator is broken", vacuous, seeds)
	}
}

// TestRandomTopologySplitRunDeterminism re-runs a slice of the topologies
// with the run split at an arbitrary mid-simulation time, proving that
// per-rank bases, staged events, and the fast-forward state all survive
// across Run calls in every mode (for the optimistic modes the split also
// proves a Run boundary fully commits speculation: frontiers meet the
// bound, held sends are released, and the next Run restarts cleanly).
func TestRandomTopologySplitRunDeterminism(t *testing.T) {
	seeds := 8
	for s := 0; s < seeds; s++ {
		tp := genDetTopo(int64(9000 + s))
		ref := runDetTopo(t, tp, 1, SyncPairwise, 0)
		for _, nranks := range detRankCounts {
			for _, mode := range allSyncModes {
				got := runDetTopo(t, tp, nranks, mode, 777*sim.Nanosecond)
				label := "split seed " + itoa(9000+s) + " ranks " + itoa(nranks) + " sync " + mode.String()
				diffSig(t, label, got, ref)
			}
		}
	}
}

// TestRandomTopologySeedSensitivity guards the harness against vacuity:
// different seeds must generate machines with different outcomes.
func TestRandomTopologySeedSensitivity(t *testing.T) {
	a := runDetTopo(t, genDetTopo(9000), 2, SyncPairwise, 0)
	b := runDetTopo(t, genDetTopo(9001), 2, SyncPairwise, 0)
	if a.Total == b.Total && len(a.Nodes) == len(b.Nodes) {
		same := true
		for i := range a.Nodes {
			if a.Nodes[i] != b.Nodes[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 9000 and 9001 produced identical signatures")
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestOversubscribedDeterminism runs eight ranks on one processor, so rank
// goroutines are always waiting on each other's windows, and requires
// every sync mode to stay bit-identical to the sequential reference.
func TestOversubscribedDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for s := 0; s < 4; s++ {
		tp := genDetTopo(int64(9000 + s))
		ref := runDetTopo(t, tp, 1, SyncPairwise, 0)
		for _, mode := range allSyncModes {
			got := runDetTopo(t, tp, 8, mode, 0)
			diffSig(t, "oversubscribed seed "+itoa(9000+s)+" sync "+mode.String(), got, ref)
		}
	}
}
