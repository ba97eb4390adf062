package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
)

// op is one unit of load: one verify/decide request, or for a job write
// one submit polled to done. Every op carries the verdict its response
// must report, derived in closed form from how the instance was built.
type op struct {
	kind string // "verify", "decide" or "job"
	prop string // catalog property of a read
	body []byte // request body
	want bool   // expected "holds" of a read; true for a job whose result must check out
	idem string // Idempotency-Key of a job submit
	// fresh marks a read re-serialized with a new edge order: its raw
	// bytes miss the request-level memo tier.
	fresh bool
	// game is set on a job that plays the figure1 game: its result is
	// checked against Example 1's two verdicts. Experiment jobs must
	// report ok:true instead.
	game bool
}

// Op streams. Each op is generated from (seed, stream, index) alone:
// warm-up and measured ops never share an instance, and the traced
// replay replays exactly the measured sequence. The other streams seed
// the hot set, the working set and the tree enumeration.
const (
	streamMeasure uint64 = 1 + iota
	streamWarm
	streamHot
	streamWorkingSet
	streamEnum
)

// rng is the generator of one op: a PCG keyed by the seed and the op's
// stream and index.
func rng(seed, stream, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<48^i))
}

// readProp is one verify/decide property of the cold, warm and routed
// workloads.
type readProp struct{ kind, name string }

var readProps = []readProp{
	{"verify", "2-colorable"}, {"verify", "3-colorable"}, {"verify", "4-colorable"},
	{"decide", "all-selected"}, {"decide", "eulerian"},
}

// Graph families whose verdicts are known in closed form.
const (
	famCycle    = "cycle"     // even cycle: bipartite, every degree 2
	famOddCycle = "odd-cycle" // odd cycle: not bipartite, 3-colorable, every degree 2
	famGrid     = "grid"      // rows×cols grid, both ≥ 8: bipartite, has degree-3 nodes
	famTree     = "tree"      // random attachment tree: bipartite, has leaves
)

var families = []string{famCycle, famOddCycle, famGrid, famTree}

// instance is one generated graph in graphio wire form. Node i of a
// tree attaches to a smaller index and cycles and grids are numbered
// along their structure, so props.KColoring's index-order backtracking
// never backtracks far on them.
type instance struct {
	family string
	n      int
	edges  [][2]int
	labels []string
}

// genInstance draws a graph of 64–256 nodes from the family. With
// allSelected every label is "1"; otherwise labels are random bits with
// at least one "0", so no two instances share a canonical hash.
func genInstance(r *rand.Rand, family string, allSelected bool) instance {
	return sizedInstance(r, family, 64+r.IntN(193), allSelected)
}

// sizedInstance builds a graph of the family with about n nodes
// (64 ≤ n ≤ 256): cycles round n to the parity their family needs and
// grids pick the rows×cols shape (both 8–16) nearest to n.
func sizedInstance(r *rand.Rand, family string, n int, allSelected bool) instance {
	in := instance{family: family}
	switch family {
	case famCycle, famOddCycle:
		in.n = n
		if (n%2 == 1) != (family == famOddCycle) {
			in.n = n - 1
			if in.n < 64 {
				in.n = n + 1
			}
		}
		for i := 0; i < in.n; i++ {
			in.edges = append(in.edges, [2]int{i, (i + 1) % in.n})
		}
	case famGrid:
		rows := min(16, max(8, int(math.Round(math.Sqrt(float64(n))))))
		cols := min(16, max(8, int(math.Round(float64(n)/float64(rows)))))
		in.n = rows * cols
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				u := i*cols + j
				if j+1 < cols {
					in.edges = append(in.edges, [2]int{u, u + 1})
				}
				if i+1 < rows {
					in.edges = append(in.edges, [2]int{u, u + cols})
				}
			}
		}
	case famTree:
		in.n = n
		for i := 1; i < in.n; i++ {
			in.edges = append(in.edges, [2]int{r.IntN(i), i})
		}
	default:
		panic("unknown family " + family)
	}
	in.labels = make([]string, in.n)
	for i := range in.labels {
		if allSelected || r.IntN(2) == 1 {
			in.labels[i] = "1"
		} else {
			in.labels[i] = "0"
		}
	}
	if !allSelected {
		in.labels[r.IntN(in.n)] = "0"
	}
	return in
}

// holds is the closed-form verdict of a catalog property on an
// instance.
func (in instance) holds(prop string) bool {
	selected := 0
	for _, l := range in.labels {
		if l == "1" {
			selected++
		}
	}
	switch prop {
	case "2-colorable":
		return in.family != famOddCycle
	case "3-colorable", "4-colorable":
		return true
	case "eulerian":
		return in.family == famCycle || in.family == famOddCycle
	case "all-selected":
		return selected == in.n
	case "not-all-selected":
		return selected < in.n
	case "one-selected":
		return selected == 1
	}
	panic("no closed form for " + prop)
}

// body encodes a /v1/verify or /v1/decide request. A non-nil r shuffles
// the edge list and flips edge orientations, which changes the raw bytes
// (and so the request-level memo key) but not the canonical graph hash.
func (in instance) body(prop string, workers int, r *rand.Rand) []byte {
	order := make([]int, len(in.edges))
	for i := range order {
		order[i] = i
	}
	if r != nil {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	b := make([]byte, 0, 16*len(in.edges)+4*in.n+64)
	b = append(b, `{"graph":{"n":`...)
	b = strconv.AppendInt(b, int64(in.n), 10)
	b = append(b, `,"edges":[`...)
	for k, i := range order {
		if k > 0 {
			b = append(b, ',')
		}
		u, v := in.edges[i][0], in.edges[i][1]
		if r != nil && r.IntN(2) == 1 {
			u, v = v, u
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(u), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ']')
	}
	b = append(b, `],"labels":[`...)
	for i, l := range in.labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, l)
	}
	b = append(b, `]},"property":`...)
	b = strconv.AppendQuote(b, prop)
	if workers > 0 {
		b = append(b, `,"workers":`...)
		b = strconv.AppendInt(b, int64(workers), 10)
	}
	return append(b, '}')
}

// readOp builds the verify/decide op for an instance; workers 0 sends
// no workers field.
func readOp(in instance, p readProp, workers int, r *rand.Rand) op {
	return op{kind: p.kind, prop: p.name, body: in.body(p.name, workers, r), want: in.holds(p.name), fresh: r != nil}
}

// Workload shapes. They are synthetic: no production traffic has been
// recorded to fit them to, so each is chosen for what its workload has
// to exercise, as noted beside it.
const (
	// verify-warm: 32 graphs take 32 of a node's 128 Prepared-cache
	// entries and 32×5 = 160 request keys of its 4096-entry memo, so
	// after warm-up every canonical lookup hits.
	hotSetSize = 32
	// verify-warm, routed-mixed: share of reads sent with a fresh edge
	// order. Each such read is a one-shot raw-bytes key: it misses the
	// request tier, decodes the graph and is answered by the canonical
	// tier. 2% still gives a traced run hundreds of graphio.decode calls
	// to time, and it keeps a run's one-shot keys (2% of the ~15 000
	// ops/s measured × 10 s ≈ 3000) within the memo's 4096 entries. A larger share fills the
	// memo, whose random eviction then drops hot-set entries and re-runs
	// the engine, which verify-warm is meant to bypass.
	reserializePct = 2
	// routed-mixed: more than one node's 128-entry cache and fewer than
	// the pool's 256, so only affinity keeps the set warm.
	workingSetSize = 192
	// routed-mixed: share of ops that are job submits. One write in ten
	// gives the job queue and journal hundreds of writes per run while
	// reads stay the bulk of the load.
	writePct = 10
	// routed-mixed: reads pick rank r of the working set with weight
	// 1/r^zipfExponent. With exponent 1 the 64 least-read graphs still
	// draw 7% of reads and the last one 0.09%, so all 192 stay requested
	// in every run; a steeper skew would let one node's 128 entries
	// serve nearly every read.
	zipfExponent = 1.0
	// game-engine: every 8th op is a not-all-selected no-instance, so
	// both verdicts of both properties occur. Those instances differ only
	// in tree shape, and one in eight walks the 864 trees in 6912 ops,
	// more than a run completes, so none repeats.
	gameAllOnesPeriod = 8
	// readWorkers is the worker count the cold, warm and routed reads ask
	// for. Their properties are Σ1 games or single machine runs with no
	// universal level to fan out, so a client asks for one worker and the
	// two clients' requests run side by side; game-engine sends no
	// workers field and asks for the node's whole budget.
	readWorkers = 1
)

// smallJobs are the jobs routed-mixed submits: every experiment that
// `go run ./cmd/exptimer -workers 1` times at 1 ms or less on a 2-vCPU
// VM, so a write's cost is mostly the job queue and journal it is there
// to exercise, plus the figure1 game.
var smallJobs = []string{
	"figure1", "figure2", "figure3", "figure5", "figure6", "figure8", "figure9", "figure11", "lemma13", "game:figure1",
}

// generator produces a workload's ops. It is read-only once the load
// starts, so clients share it without locking.
type generator struct {
	name   string
	seed   uint64
	routed bool
	// hot is verify-warm's hot set; ws is routed-mixed's working set.
	// Canonical bodies are pre-encoded per (graph, property).
	hot      []instance
	hotBody  [][]byte
	ws       []instance
	wsProp   []readProp
	wsBody   [][]byte
	wsCDF    []float64
	treePerm []int // game-engine: seeded order of all 5–7 node attachment trees
	// flip negates the expected verdict of measured op flip (-1 = none);
	// the self-test uses it to prove the check can fail.
	flip int64
}

// setSize is the node count of member j of a hot or working set of k
// graphs, a fixed spread over 64–256 that does not depend on the seed:
// every seed's set — and, under the routed skew, its most requested
// graphs — then costs about the same to serve, and the seed draws only
// labels and tree shapes.
func setSize(j, k int) int {
	return 64 + (j*193/k*67+96)%193
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"verify-cold", "verify-warm", "game-engine", "routed-mixed"}

// newGenerator builds a workload's inputs from the seed: the verify-warm
// hot set, the routed-mixed working set and its skew, and game-engine's
// tree enumeration.
func newGenerator(name string, seed uint64) (*generator, error) {
	g := &generator{name: name, seed: seed, flip: -1}
	switch name {
	case "verify-cold":
	case "verify-warm":
		for j := 0; j < hotSetSize; j++ {
			r := rng(seed, streamHot, uint64(j))
			allSel := j%8 == 0
			fam := families[j%len(families)] // j%8 == 0 is a tree
			in := sizedInstance(r, fam, setSize(j, hotSetSize), allSel)
			g.hot = append(g.hot, in)
			for _, p := range readProps {
				g.hotBody = append(g.hotBody, in.body(p.name, readWorkers, nil))
			}
		}
	case "game-engine":
		g.treePerm = rng(seed, streamEnum, 0).Perm(treeCount)
	case "routed-mixed":
		g.routed = true
		total := 0.0
		for j := 0; j < workingSetSize; j++ {
			r := rng(seed, streamWorkingSet, uint64(j))
			p := readProps[j%len(readProps)]
			fam := families[j%len(families)]
			allSel := p.name == "all-selected" && j%10 == 3
			if allSel {
				fam = famTree
			}
			in := sizedInstance(r, fam, setSize(j, workingSetSize), allSel)
			g.ws = append(g.ws, in)
			g.wsProp = append(g.wsProp, p)
			g.wsBody = append(g.wsBody, in.body(p.name, readWorkers, nil))
			total += 1 / math.Pow(float64(j+1), zipfExponent)
			g.wsCDF = append(g.wsCDF, total)
		}
		for j := range g.wsCDF {
			g.wsCDF[j] /= total
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return g, nil
}

// warmOps is how many fresh ops verify-cold and game-engine run before
// timing, drawn from warmSeed whatever the run's seed: their instances
// vary widely in cost, and a fixed draw gives every run's set-up the
// same work, so setup_s moves only with the program and the host. 64
// ops keep a short pause from being a large share of it.
const (
	warmOps  = 64
	warmSeed = 0
)

// warmup returns the ops run before timing: every hot or working-set
// body once for the cached workloads, warmOps fresh ops otherwise.
func (g *generator) warmup() []op {
	var ops []op
	switch g.name {
	case "verify-warm":
		for j, in := range g.hot {
			for k, p := range readProps {
				ops = append(ops, op{kind: p.kind, prop: p.name, body: g.hotBody[j*len(readProps)+k], want: in.holds(p.name)})
			}
		}
	case "routed-mixed":
		for j, in := range g.ws {
			ops = append(ops, op{kind: g.wsProp[j].kind, prop: g.wsProp[j].name, body: g.wsBody[j], want: in.holds(g.wsProp[j].name)})
		}
		ops = append(ops, g.jobOp("figure1", "warm-0"), g.jobOp("game:figure1", "warm-1"))
	default:
		fixed := *g
		fixed.seed = warmSeed
		for i := uint64(0); i < warmOps; i++ {
			ops = append(ops, fixed.op(streamWarm, i, ""))
		}
	}
	return ops
}

// op returns op i of a stream. tag distinguishes the Idempotency-Keys
// of the phases that share one pool.
func (g *generator) op(stream, i uint64, tag string) op {
	r := rng(g.seed, stream, i)
	var o op
	switch g.name {
	case "verify-cold":
		p := readProps[r.IntN(len(readProps))]
		allSel := p.name == "all-selected" && r.IntN(2) == 0
		fam := famTree // all-"1" graphs differ only by structure: use random trees
		if !allSel {
			fam = families[r.IntN(len(families))]
		}
		o = readOp(genInstance(r, fam, allSel), p, readWorkers, nil)
	case "verify-warm":
		j, k := r.IntN(hotSetSize), r.IntN(len(readProps))
		p := readProps[k]
		if r.IntN(100) < reserializePct {
			o = readOp(g.hot[j], p, readWorkers, r)
		} else {
			o = op{kind: p.kind, prop: p.name, body: g.hotBody[j*len(readProps)+k], want: g.hot[j].holds(p.name)}
		}
	case "game-engine":
		o = g.gameOp(r, stream, i)
	case "routed-mixed":
		if r.IntN(100) < writePct {
			o = g.jobOp(smallJobs[r.IntN(len(smallJobs))], fmt.Sprintf("%s-%d-%d", tag, g.seed, i))
			break
		}
		j := sort.SearchFloat64s(g.wsCDF, r.Float64())
		if j >= len(g.ws) {
			j = len(g.ws) - 1
		}
		var shuffle *rand.Rand
		if r.IntN(100) < reserializePct {
			shuffle = r
		}
		o = readOp(g.ws[j], g.wsProp[j], readWorkers, shuffle)
		if shuffle == nil {
			o.body = g.wsBody[j]
		}
	}
	if stream == streamMeasure && int64(i) == g.flip {
		o.want = !o.want
	}
	return o
}

// jobOp builds a job submit: an experiment, or the figure1 game when
// the name carries the "game:" prefix.
func (g *generator) jobOp(name, idem string) op {
	if name == "game:figure1" {
		return op{kind: "job", body: []byte(`{"job":"game","game":"figure1"}`), idem: idem, game: true, want: true}
	}
	return op{kind: "job", body: []byte(`{"job":"experiment","name":"` + name + `"}`), idem: idem, want: true}
}

// treeCount is the number of attachment trees on 5, 6 and 7 nodes
// (4! + 5! + 6!): node i picks its parent among nodes 0..i-1.
const treeCount = 24 + 120 + 720

// treeParents decodes attachment tree k < treeCount.
func treeParents(k int) []int {
	n := 5
	for _, c := range []int{24, 120} {
		if k < c {
			break
		}
		k -= c
		n++
	}
	parents := make([]int, n)
	for i := 1; i < n; i++ {
		parents[i] = k % i
		k /= i
	}
	return parents
}

// unselectedLabel draws a bit-string label other than "1" (one to four
// bits), so small trees rarely repeat a canonical hash.
func unselectedLabel(r *rand.Rand) string {
	for {
		l := strconv.FormatUint(uint64(r.IntN(30)), 2)
		if w := 1 + r.IntN(4); len(l) < w {
			l = strings.Repeat("0", w-len(l)) + l
		}
		if l != "1" {
			return l
		}
	}
}

// gameOp builds a game-engine op: a Σ3 verify of one-selected or
// not-all-selected on a tree of 5–7 nodes, with no workers field so
// the request asks for the node's whole budget. Every eighth measured
// op is a not-all-selected no-instance (all labels "1"); those differ
// only in structure, so they walk a seeded enumeration of all trees
// and never repeat within treeCount·8 ops.
func (g *generator) gameOp(r *rand.Rand, stream, i uint64) op {
	var parents []int
	var labels []string
	prop := "not-all-selected"
	if stream == streamMeasure && i%gameAllOnesPeriod == gameAllOnesPeriod-1 {
		parents = treeParents(g.treePerm[int(i/gameAllOnesPeriod)%treeCount])
		labels = make([]string, len(parents))
		for u := range labels {
			labels[u] = "1"
		}
	} else {
		n := 5 + r.IntN(3)
		parents = make([]int, n)
		for u := 1; u < n; u++ {
			parents[u] = r.IntN(u)
		}
		labels = make([]string, n)
		for u := range labels {
			labels[u] = unselectedLabel(r)
		}
		if r.IntN(2) == 0 {
			prop = "one-selected"
			// Yes-instances select one node; no-instances none, two or three.
			for _, u := range r.Perm(n)[:[]int{1, 1, 0, 2, 3}[r.IntN(5)]] {
				labels[u] = "1"
			}
		} else {
			// Yes-instances only: at least one node stays unselected.
			keep := r.IntN(n)
			for u := range labels {
				if u != keep && r.IntN(2) == 0 {
					labels[u] = "1"
				}
			}
		}
	}
	in := instance{family: famTree, n: len(parents), labels: labels}
	for u := 1; u < len(parents); u++ {
		in.edges = append(in.edges, [2]int{parents[u], u})
	}
	return readOp(in, readProp{"verify", prop}, 0, nil)
}

// jobResult is the part of a finished job's status the check reads.
type jobResult struct {
	OK      bool `json:"ok"`
	Results []struct {
		ThreeColorable      bool `json:"three_colorable"`
		ThreeRoundColorable bool `json:"three_round_three_colorable"`
	} `json:"results"`
}

// checkJob reports whether a done job's result is as expected:
// experiments report ok:true, and the figure1 game reproduces Example 1
// — both instances 3-colorable, only Figure 1b 3-round 3-colorable.
func (o op) checkJob(result json.RawMessage) bool {
	var res jobResult
	if json.Unmarshal(result, &res) != nil {
		return false
	}
	right := res.OK
	if o.game {
		right = len(res.Results) == 2 &&
			res.Results[0].ThreeColorable && !res.Results[0].ThreeRoundColorable &&
			res.Results[1].ThreeColorable && res.Results[1].ThreeRoundColorable
	}
	return right == o.want
}
