package props

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sat"
	"repro/internal/search"
)

func TestSelectionProperties(t *testing.T) {
	t.Parallel()
	g := graph.Path(3)
	all := g.MustWithLabels([]string{"1", "1", "1"})
	one := g.MustWithLabels([]string{"0", "1", "0"})
	none := g.MustWithLabels([]string{"0", "0", "0"})
	two := g.MustWithLabels([]string{"1", "1", "0"})
	long := g.MustWithLabels([]string{"11", "1", "1"}) // "11" is not "1"

	if !AllSelected(all) || AllSelected(one) || AllSelected(long) {
		t.Fatal("AllSelected wrong")
	}
	if NotAllSelected(all) || !NotAllSelected(none) {
		t.Fatal("NotAllSelected wrong")
	}
	if !OneSelected(one) || OneSelected(two) || OneSelected(none) || OneSelected(all) {
		t.Fatal("OneSelected wrong")
	}
}

func TestEulerian(t *testing.T) {
	t.Parallel()
	if !Eulerian(graph.Cycle(5)) {
		t.Fatal("cycles are Eulerian")
	}
	if Eulerian(graph.Path(3)) {
		t.Fatal("paths with odd-degree endpoints are not Eulerian")
	}
	if !Eulerian(graph.Complete(5)) || Eulerian(graph.Complete(4)) {
		t.Fatal("K5 Eulerian, K4 not")
	}
	if !Eulerian(graph.Single("1")) {
		t.Fatal("single node is trivially Eulerian")
	}
}

func TestHamiltonian(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"C5", graph.Cycle(5), true},
		{"P4", graph.Path(4), false},
		{"K4", graph.Complete(4), true},
		{"K1", graph.Single(""), false},
		{"P2", graph.Path(2), false},
		{"star", graph.Star(4), false},
		{"grid2x3", graph.Grid(2, 3), true},
		{"grid3x3", graph.Grid(3, 3), false}, // odd bipartite grid
	}
	for _, tt := range tests {
		if got := Hamiltonian(tt.g); got != tt.want {
			t.Errorf("%s: Hamiltonian = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestColorability(t *testing.T) {
	t.Parallel()
	if !TwoColorable(graph.Cycle(6)) || TwoColorable(graph.Cycle(5)) {
		t.Fatal("2-colorability of cycles wrong")
	}
	if !ThreeColorable(graph.Cycle(5)) || ThreeColorable(graph.Complete(4)) {
		t.Fatal("3-colorability wrong")
	}
	if !KColorable(graph.Complete(4), 4) {
		t.Fatal("K4 is 4-colorable")
	}
	coloring, ok := KColoring(graph.Cycle(5), 3)
	if !ok {
		t.Fatal("C5 should be 3-colorable")
	}
	g := graph.Cycle(5)
	for _, e := range g.Edges() {
		if coloring[e.U] == coloring[e.V] {
			t.Fatal("returned coloring not proper")
		}
	}
}

// TestTwoColorableMatchesKColorable cross-checks the linear-time bipartite
// test against backtracking.
func TestTwoColorableMatchesKColorable(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		g := graph.RandomConnected(2+rng.Intn(7), 0.35, rng)
		if TwoColorable(g) != KColorable(g, 2) {
			t.Fatalf("mismatch on %v", g)
		}
	}
}

func TestAcyclicOddAutomorphic(t *testing.T) {
	t.Parallel()
	if !Acyclic(graph.Path(4)) || Acyclic(graph.Cycle(4)) {
		t.Fatal("Acyclic wrong")
	}
	if !Odd(graph.Path(3)) || Odd(graph.Path(4)) {
		t.Fatal("Odd wrong")
	}
	if !Automorphic(graph.Cycle(4)) {
		t.Fatal("C4 has nontrivial automorphisms")
	}
	// An asymmetric labeled path: all labels distinct kills symmetry.
	g := graph.Path(3).MustWithLabels([]string{"0", "1", "00"})
	if Automorphic(g) {
		t.Fatal("distinctly labeled path has no nontrivial automorphism")
	}
	if !Automorphic(graph.Path(3)) {
		t.Fatal("unlabeled P3 has a flip automorphism")
	}
}

func TestSatGraph(t *testing.T) {
	t.Parallel()
	mk := func(formulas ...string) *graph.Graph {
		fs := make([]sat.Formula, len(formulas))
		for i, s := range formulas {
			fs[i] = sat.MustParse(s)
		}
		bg, err := sat.NewBooleanGraph(graph.Path(len(formulas)), fs)
		if err != nil {
			t.Fatal(err)
		}
		return bg.G
	}
	if !SatGraph(mk("P1|~P2|~P3", "P3|P4|~P5")) {
		t.Fatal("Figure 4 instance should be satisfiable")
	}
	if SatGraph(mk("P", "~P")) {
		t.Fatal("adjacent conflict should be unsatisfiable")
	}
	// Garbage labels are a no-instance.
	if SatGraph(graph.Path(2).MustWithLabels([]string{"01", "1"})) {
		t.Fatal("undecodable labels must be rejected")
	}
}

// TestFigure1 reproduces Example 1: Figure 1a is 3-colorable but not
// 3-round 3-colorable; Figure 1b is both.
func TestFigure1(t *testing.T) {
	t.Parallel()
	no := graph.Figure1NoInstance()
	yes := graph.Figure1YesInstance()
	if !ThreeColorable(no) || !ThreeColorable(yes) {
		t.Fatal("both Figure 1 graphs are classically 3-colorable")
	}
	if ThreeRoundThreeColorable(no, search.Options{}) {
		t.Fatal("Figure 1a must NOT be 3-round 3-colorable (Adam wins)")
	}
	if !ThreeRoundThreeColorable(yes, search.Options{}) {
		t.Fatal("Figure 1b must be 3-round 3-colorable (Eve wins)")
	}
}

// TestThreeRoundImpliesThreeColorable: if Eve wins the 3-round game, the
// graph is in particular 3-colorable.
func TestThreeRoundImpliesThreeColorable(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		g := graph.RandomConnected(3+rng.Intn(4), 0.4, rng)
		if ThreeRoundThreeColorable(g, search.Options{}) && !ThreeColorable(g) {
			t.Fatalf("3-round winner not 3-colorable: %v", g)
		}
	}
}

// TestThreeRoundNoMiddleNodes: when no node has degree 2, Adam has no move,
// so the game reduces to ordinary 3-colorability.
func TestThreeRoundNoMiddleNodes(t *testing.T) {
	t.Parallel()
	k4 := graph.Complete(4) // all degrees 3
	if ThreeRoundThreeColorable(k4, search.Options{}) != ThreeColorable(k4) {
		t.Fatal("no-degree-2 case should reduce to 3-colorability")
	}
	star := graph.Star(5) // degrees 4 and 1
	if ThreeRoundThreeColorable(star, search.Options{}) != ThreeColorable(star) {
		t.Fatal("star case should reduce to 3-colorability")
	}
}

func TestComplements(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(5)
	if NonEulerian(g) || !NonHamiltonian(graph.Path(3)) {
		t.Fatal("complement helpers wrong")
	}
	if !NonTwoColorable(graph.Cycle(5)) || NonTwoColorable(graph.Cycle(6)) {
		t.Fatal("NonTwoColorable wrong")
	}
	if NonThreeColorable(graph.Cycle(5)) || !NonThreeColorable(graph.Complete(4)) {
		t.Fatal("NonThreeColorable wrong")
	}
}

// TestKColorableSATMatchesBacktracking cross-checks the DPLL encoding
// against the exact backtracker on random graphs.
func TestKColorableSATMatchesBacktracking(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		g := graph.RandomConnected(2+rng.Intn(6), 0.5, rng)
		for k := 2; k <= 3; k++ {
			if KColorableSAT(g, k) != KColorable(g, k) {
				t.Fatalf("mismatch for k=%d on %v", k, g)
			}
		}
	}
}
