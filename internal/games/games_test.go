package games

import (
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/search"
	"repro/internal/simulate"
)

// forEachLabeling runs f on g with every single-bit labeling.
func forEachLabeling(g *graph.Graph, f func(*graph.Graph)) {
	n := g.N()
	for mask := uint(0); mask < 1<<uint(n); mask++ {
		f(g.MustWithLabels(graph.BitLabels(n, mask)))
	}
}

func smallTopologies() []*graph.Graph {
	return []*graph.Graph{
		graph.Single(""),
		graph.Path(2), graph.Path(4),
		graph.Cycle(3), graph.Cycle(4), graph.Cycle(5),
		graph.Star(4),
		graph.Complete(4),
	}
}

func TestParentsValidAndRoots(t *testing.T) {
	t.Parallel()
	g := graph.Path(3)
	p := Parents{0, 0, 1}
	if !p.Valid(g) {
		t.Fatal("BFS-style parents should be valid")
	}
	if r := p.Roots(); len(r) != 1 || r[0] != 0 {
		t.Fatalf("Roots = %v", r)
	}
	bad := Parents{2, 0, 1} // 0 and 2 are not adjacent in P3
	if bad.Valid(g) {
		t.Fatal("non-neighbor parent accepted")
	}
}

func TestHasNonRootCycle(t *testing.T) {
	t.Parallel()
	// Cycle graph with parents going around: one big directed cycle.
	g := graph.Cycle(3)
	cyc := Parents{1, 2, 0}
	if !cyc.HasNonRootCycle() {
		t.Fatal("directed 3-cycle not detected")
	}
	tree := Parents{0, 0, 1}
	if tree.HasNonRootCycle() {
		t.Fatal("tree flagged as cyclic")
	}
	_ = g
}

func TestSolveChargesOnTree(t *testing.T) {
	t.Parallel()
	// Path 0<-1<-2 rooted at 0.
	p := Parents{0, 0, 1}
	// Empty challenge: all charges equal the root's (positive).
	y, ok := SolveCharges(p, Challenge{false, false, false})
	if !ok || !y[0] || !y[1] || !y[2] {
		t.Fatalf("charges = %v ok=%v", y, ok)
	}
	// Challenge node 1: it flips, and 2 follows 1.
	y, ok = SolveCharges(p, Challenge{false, true, false})
	if !ok || !y[0] || y[1] || y[2] {
		t.Fatalf("charges = %v ok=%v", y, ok)
	}
}

func TestSolveChargesOnCycle(t *testing.T) {
	t.Parallel()
	p := Parents{1, 2, 0} // directed 3-cycle, no root
	// Even challenge parity: solvable.
	if _, ok := SolveCharges(p, Challenge{false, false, false}); !ok {
		t.Fatal("even-parity challenge should be solvable")
	}
	if _, ok := SolveCharges(p, Challenge{true, true, false}); !ok {
		t.Fatal("two challenged nodes on the cycle should be solvable")
	}
	// Odd parity (Adam's singleton attack): unsolvable.
	if _, ok := SolveCharges(p, Challenge{true, false, false}); ok {
		t.Fatal("Adam's singleton challenge must be unanswerable")
	}
}

// TestSolveChargesMatchesBruteForce: SolveCharges finds a response iff one
// exists, across random parent assignments and challenges.
func TestSolveChargesMatchesBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		g := graph.RandomConnected(n, 0.5, rng)
		p := make(Parents, n)
		for u := 0; u < n; u++ {
			nbrs := g.Neighbors(u)
			pick := rng.Intn(len(nbrs) + 1)
			if pick == len(nbrs) {
				p[u] = u
			} else {
				p[u] = nbrs[pick]
			}
		}
		x := make(Challenge, n)
		for u := range x {
			x[u] = rng.Intn(2) == 0
		}
		y, got := SolveCharges(p, x)
		want := bruteForceCharges(p, x)
		if got != want {
			t.Fatalf("SolveCharges=%v bruteforce=%v for p=%v x=%v", got, want, p, x)
		}
		if got && !chargesValid(p, x, y) {
			t.Fatalf("returned charges invalid: p=%v x=%v y=%v", p, x, y)
		}
	}
}

func chargesValid(p Parents, x Challenge, y []bool) bool {
	for u := range p {
		if p[u] == u {
			if !y[u] {
				return false
			}
		} else if y[u] != (y[p[u]] != x[u]) {
			return false
		}
	}
	return true
}

func bruteForceCharges(p Parents, x Challenge) bool {
	n := len(p)
	for mask := 0; mask < 1<<uint(n); mask++ {
		y := make([]bool, n)
		for u := 0; u < n; u++ {
			y[u] = mask&(1<<uint(u)) != 0
		}
		if chargesValid(p, x, y) {
			return true
		}
	}
	return false
}

// TestEveWinsPointsToMatchesGroundTruth: Example 6 semantics — Eve wins
// the PointsTo[¬IsSelected] game exactly on not-all-selected instances.
func TestEveWinsPointsToMatchesGroundTruth(t *testing.T) {
	t.Parallel()
	for _, base := range smallTopologies() {
		if base.N() > 5 {
			continue // keep the exhaustive double enumeration fast
		}
		forEachLabeling(base, func(g *graph.Graph) {
			want := props.NotAllSelected(g)
			if got := EveWinsPointsTo(g, IsUnselected, search.Options{}); got != want {
				t.Fatalf("%v: EveWinsPointsTo = %v, want %v", g, got, want)
			}
		})
	}
}

// TestEveWinsPointsToUniqueMatchesGroundTruth: Example 8 semantics — the
// uniqueness game captures exactly one-selected.
func TestEveWinsPointsToUniqueMatchesGroundTruth(t *testing.T) {
	t.Parallel()
	for _, base := range smallTopologies() {
		if base.N() > 5 {
			continue
		}
		forEachLabeling(base, func(g *graph.Graph) {
			want := props.OneSelected(g)
			if got := EveWinsPointsToUnique(g, IsSelected, search.Options{}); got != want {
				t.Fatalf("%v: EveWinsPointsToUnique = %v, want %v", g, got, want)
			}
		})
	}
}

// TestEveWinsHamiltonianMatchesGroundTruth: Example 9 semantics.
func TestEveWinsHamiltonianMatchesGroundTruth(t *testing.T) {
	t.Parallel()
	tops := []*graph.Graph{
		graph.Single(""),
		graph.Path(2), graph.Path(4), graph.Path(5),
		graph.Cycle(3), graph.Cycle(4), graph.Cycle(5),
		graph.Star(4), graph.Star(5),
		graph.Complete(4),
		graph.Grid(2, 3),
	}
	for _, g := range tops {
		want := props.Hamiltonian(g)
		if got := EveWinsHamiltonian(g, search.Options{}); got != want {
			t.Fatalf("%v: EveWinsHamiltonian = %v, want %v", g, got, want)
		}
	}
}

func TestBFSForestTo(t *testing.T) {
	t.Parallel()
	g := graph.Path(4).MustWithLabels([]string{"1", "1", "0", "1"})
	p, ok := BFSForestTo(g, IsUnselected)
	if !ok {
		t.Fatal("target exists")
	}
	if !p.Valid(g) || p.HasNonRootCycle() {
		t.Fatal("BFS forest invalid")
	}
	for _, r := range p.Roots() {
		if !IsUnselected(g, r) {
			t.Fatal("root is not a target")
		}
	}
	// All-selected: no forest.
	if _, ok := BFSForestTo(g.MustWithLabels([]string{"1", "1", "1", "1"}), IsUnselected); ok {
		t.Fatal("no target should mean no forest")
	}
}

func TestHamiltonianPathParents(t *testing.T) {
	t.Parallel()
	p, ok := HamiltonianPathParents(graph.Cycle(5))
	if !ok {
		t.Fatal("C5 is Hamiltonian")
	}
	if p.HasNonRootCycle() || len(p.Roots()) != 1 {
		t.Fatal("parents are not a rooted path")
	}
	if _, ok := HamiltonianPathParents(graph.Star(4)); ok {
		t.Fatal("star is not Hamiltonian")
	}
}

// --- machine layer ------------------------------------------------------

// play evaluates arb's game on (g, id) under the default engine.
func play(t *testing.T, arb *core.Arbiter, g *graph.Graph, id graph.IDAssignment, strategies []core.Strategy, domains []cert.Domain) (bool, error) {
	t.Helper()
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	return arb.Value(prep, strategies, domains, core.Engine{})
}

// strategyVerdict evaluates a Σ^lp_3 arbiter with Eve's strategies against
// all of Adam's challenge bit assignments.
func strategyVerdict(t *testing.T, arb *core.Arbiter, g *graph.Graph, move1, move3 core.Strategy) bool {
	t.Helper()
	id := graph.SmallLocallyUnique(g, 1)
	ok, err := play(t, arb, g, id,
		[]core.Strategy{move1, nil, move3},
		[]cert.Domain{{}, cert.UniformDomain(g.N(), 1), {}})
	if err != nil {
		t.Fatalf("Value: %v", err)
	}
	return ok
}

// TestNotAllSelectedArbiter: the Σ^lp_3 machine with Eve's constructive
// strategies decides not-all-selected on exhaustive labelings.
func TestNotAllSelectedArbiter(t *testing.T) {
	t.Parallel()
	arb := NotAllSelectedArbiter()
	for _, base := range []*graph.Graph{graph.Path(3), graph.Cycle(4), graph.Star(4)} {
		forEachLabeling(base, func(g *graph.Graph) {
			want := props.NotAllSelected(g)
			got := strategyVerdict(t, arb, g, ForestStrategy(IsUnselected), ChargeStrategy(nil))
			if got != want {
				t.Fatalf("%v: arbiter = %v, want %v", g, got, want)
			}
		})
	}
}

// TestOneSelectedArbiter: the Σ^lp_3 uniqueness machine decides
// one-selected.
func TestOneSelectedArbiter(t *testing.T) {
	t.Parallel()
	arb := OneSelectedArbiter()
	for _, base := range []*graph.Graph{graph.Path(3), graph.Cycle(4), graph.Star(4)} {
		forEachLabeling(base, func(g *graph.Graph) {
			want := props.OneSelected(g)
			got := strategyVerdict(t, arb, g,
				ForestStrategy(IsSelected), ChargeStrategy(IsSelected))
			if got != want {
				t.Fatalf("%v: arbiter = %v, want %v", g, got, want)
			}
		})
	}
}

// TestHamiltonianArbiter: the Σ^lp_3 Hamiltonian machine with Eve's cycle
// strategy decides Hamiltonicity on small instances.
func TestHamiltonianArbiter(t *testing.T) {
	t.Parallel()
	arb := HamiltonianArbiter()
	tops := []*graph.Graph{
		graph.Single(""), graph.Path(2), graph.Path(4),
		graph.Cycle(3), graph.Cycle(5), graph.Star(4),
		graph.Complete(4), graph.Grid(2, 3),
	}
	for _, g := range tops {
		want := props.Hamiltonian(g)
		got := strategyVerdict(t, arb, g, HamiltonianStrategy(), RootChargeStrategy())
		if got != want {
			t.Fatalf("%v: arbiter = %v, want %v", g, got, want)
		}
	}
}

// TestAdamCatchesCheatingEve: if Eve claims a spanning forest with a
// directed cycle (pretending a target exists when none does), Adam's
// challenge refutes her on the machine level.
func TestAdamCatchesCheatingEve(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(3).MustWithLabels([]string{"1", "1", "1"}) // all selected
	arb := NotAllSelectedArbiter()
	id := graph.SmallLocallyUnique(g, 1)
	// Eve cheats: parent pointers around the cycle, no root at all.
	cheat := core.Strategy(func(g *graph.Graph, id graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		return encodeParents(Parents{1, 2, 0}, id), nil
	})
	ok, err := play(t, arb, g, id,
		[]core.Strategy{cheat, nil, ChargeStrategy(nil)},
		[]cert.Domain{{}, cert.UniformDomain(3, 1), {}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Adam failed to refute Eve's cyclic forest")
	}
}

func TestEncodeDecodeParents(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(4)
	id := graph.GloballyUnique(g)
	p := Parents{0, 0, 1, 0}
	enc := encodeParents(p, id)
	dec, ok := decodeParents(g, id, enc)
	if !ok {
		t.Fatal("decode failed")
	}
	for u := range p {
		if dec[u] != p[u] {
			t.Fatalf("roundtrip: %v vs %v", dec, p)
		}
	}
	// A pointer to a non-neighbor identifier fails to decode.
	bad := cert.Assignment{"1" + id[2], "0", "0", "0"} // 2 not adjacent to 0 in C4
	if _, ok := decodeParents(g, id, bad); ok {
		t.Fatal("non-neighbor pointer decoded")
	}
}
