package experiments

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/reduce"
	"repro/internal/search"
)

// This file is the sharded sweep engine: every exhaustive instance
// sweep in the experiment suite — the reduction sweeps over single-bit
// labelings, the Figure 7 game sweeps, the Figure 8 TM cross-check —
// is expressed as a Sweep, a flat work list of independent instance
// checks scheduled across the search worker pool. The unit of
// parallelism is the instance, and it is the ONLY fan-out level: each
// check runs its game on the sequential inner engine (exactly as
// Prepared.Batch runs one job per worker) and the suite (All) runs
// its experiments in index order, so a whole suite saturates the pool
// with instances while never exceeding the worker budget. Checks are
// pure and failure counting is order-independent, which makes the
// sharded result provably equal to the sequential one (asserted
// row-for-row by TestAllOptEngineParity under -race).

// Sweep is a first-class shardable experiment sweep: Len independent
// instances, instance i passing iff Check(i) is true. Check must be
// pure and safe for concurrent invocation.
type Sweep struct {
	Len   int
	Check func(i int) bool
}

// Failures counts the failing instances, sharding the work list across
// the engine's worker pool through the search scheduler's atomic
// cursor. tick, when non-nil, is invoked once per instance from
// whichever worker ran it (it must be concurrency-safe) — the hook the
// job engine uses for progress counters.
func (s Sweep) Failures(o search.Options, tick func()) int {
	fails := search.Map(o, s.Len, func(i int) bool {
		ok := s.Check(i)
		if tick != nil {
			tick()
		}
		return !ok
	})
	n := 0
	for _, f := range fails {
		if f {
			n++
		}
	}
	return n
}

// LabelingSpace flattens every single-bit labeling of the base
// topologies into one indexable work list: instance i is the (base,
// mask) pair in lexicographic order (bases outer, masks inner), the
// enumeration order of the old sequential loops. The returned instance
// function is pure, so shards can decode their items independently.
func LabelingSpace(bases []*graph.Graph) (int, func(i int) *graph.Graph) {
	offsets := make([]int, len(bases)+1)
	for b, g := range bases {
		offsets[b+1] = offsets[b] + 1<<uint(g.N())
	}
	total := offsets[len(bases)]
	return total, func(i int) *graph.Graph {
		b := sort.SearchInts(offsets[1:], i+1)
		g := bases[b]
		return g.MustWithLabels(graph.BitLabels(g.N(), uint(i-offsets[b])))
	}
}

// labelingSweep is the Sweep over every single-bit labeling of the
// bases, checked by check.
func labelingSweep(bases []*graph.Graph, check func(*graph.Graph) bool) Sweep {
	n, instance := LabelingSpace(bases)
	return Sweep{Len: n, Check: func(i int) bool { return check(instance(i)) }}
}

// graphSweep is the Sweep over a fixed instance list.
func graphSweep(gs []*graph.Graph, check func(*graph.Graph) bool) Sweep {
	return Sweep{Len: len(gs), Check: func(i int) bool { return check(gs[i]) }}
}

// SweepReduction applies the reduction to every single-bit labeling of
// the given topologies across the engine pool and counts mismatches
// between srcProp(G) and dstProp(G'): apply failures, invalid cluster
// maps, and property disagreements all count.
func SweepReduction(red reduce.Reduction, idGen func(*graph.Graph) graph.IDAssignment,
	srcProp, dstProp func(*graph.Graph) bool, bases []*graph.Graph, o search.Options) int {
	return labelingSweep(bases, func(g *graph.Graph) bool {
		var id graph.IDAssignment
		if idGen != nil {
			id = idGen(g)
		}
		res, err := red.Apply(g, id)
		if err != nil || res.Validate(g) != nil {
			return false
		}
		return srcProp(g) == dstProp(res.Out)
	}).Failures(o, nil)
}

// Spec is one experiment of the suite: a stable slug (the name used by
// `lph sweep`, the figures/exptimer `-only` filters, and the jobs API),
// a title, and an engine-aware runner.
type Spec struct {
	ID    string
	Title string
	Run   func(o search.Options) *Report
}

// ignoreEngine adapts an experiment with no internal enumeration (pure
// transformations, DPLL-backed checks) to the Spec runner shape.
func ignoreEngine(f func() *Report) func(search.Options) *Report {
	return func(search.Options) *Report { return f() }
}

// Index lists every experiment in the repository's canonical order.
func Index() []Spec {
	return []Spec{
		{"figure1", "3-round 3-colorability game", Figure1},
		{"figure2", "hierarchy separations at ground level", Figure2Separations},
		{"figure3", "all-selected ≤lp hamiltonian (Prop. 19)", Figure3Hamiltonian},
		{"figure4", "sat-graph ≤lp 3-colorable (Thm. 23)", ignoreEngine(Figure4Colorability)},
		{"figure5", "structural representation $G", ignoreEngine(Figure5Structure)},
		{"figure6", "pictures, $P, and tiling systems", ignoreEngine(Figure6Pictures)},
		{"figure7", "locality ladder: properties at their levels", Figure7Ladder},
		{"figure8", "distributed Turing machines", Figure8TuringMachine},
		{"figure9", "all-selected ≤lp eulerian (Prop. 18)", Figure9Eulerian},
		{"figure11", "not-all-selected ≤lp hamiltonian (Prop. 20)", Figure11CoHamiltonian},
		{"examples", "worked formula examples", ignoreEngine(ExampleFormulas)},
		{"fagin", "Fagin-style cross-validation (Thm. 14)", ignoreEngine(FaginCrossValidation)},
		{"cook-levin", "Cook–Levin τ-translation (Thm. 22)", ignoreEngine(CookLevin)},
		{"lemma13", "space-time envelope (Lemma 13)", ignoreEngine(Lemma13Envelope)},
	}
}

// FindSpec resolves an experiment slug against the index.
func FindSpec(id string) (Spec, bool) {
	for _, s := range Index() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// All runs the whole experiment suite on the engine, in index
// order. Exactly one level fans out: each experiment's instance sweeps
// shard across the pool, while the experiments themselves run one
// after another — so the pool never exceeds o's worker budget (nested
// Map calls would multiply it) and the reports come back in index
// order with rows identical to the sequential run's (every sweep is a
// Sweep of pure checks).
func All(o search.Options) []*Report {
	specs := Index()
	out := make([]*Report, len(specs))
	for i, s := range specs {
		out[i] = s.Run(o)
	}
	return out
}
