package games

import (
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/props"
)

func TestOddCycle(t *testing.T) {
	t.Parallel()
	cycle, ok := OddCycle(graph.Cycle(5))
	if !ok || len(cycle)%2 == 0 {
		t.Fatalf("OddCycle(C5) = %v, %v", cycle, ok)
	}
	if _, ok := OddCycle(graph.Cycle(6)); ok {
		t.Fatal("even cycle reported as odd")
	}
	if _, ok := OddCycle(graph.Path(4)); ok {
		t.Fatal("tree reported non-bipartite")
	}
	// The returned sequence must be a genuine cycle in the graph.
	g := graph.Complete(4)
	cycle, ok = OddCycle(g)
	if !ok {
		t.Fatal("K4 has odd cycles")
	}
	for i, u := range cycle {
		v := cycle[(i+1)%len(cycle)]
		if !g.HasEdge(u, v) {
			t.Fatalf("cycle %v uses non-edge {%d,%d}", cycle, u, v)
		}
	}
}

func TestOddCycleRandomAgainstBipartite(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		g := graph.RandomConnected(2+rng.Intn(7), 0.4, rng)
		cycle, ok := OddCycle(g)
		if ok != props.NonTwoColorable(g) {
			t.Fatalf("OddCycle presence %v but bipartite test %v on %v", ok, !props.NonTwoColorable(g), g)
		}
		if ok {
			if len(cycle)%2 == 0 {
				t.Fatal("even cycle returned")
			}
			for i, u := range cycle {
				if !g.HasEdge(u, cycle[(i+1)%len(cycle)]) {
					t.Fatal("not a cycle")
				}
			}
		}
	}
}

// TestNonTwoColorableArbiter: the Σ^lp_3 odd-cycle machine decides
// non-2-colorability with Eve's strategy against all Adam challenges.
func TestNonTwoColorableArbiter(t *testing.T) {
	t.Parallel()
	arb := NonTwoColorableArbiter()
	graphs := []*graph.Graph{
		graph.Cycle(3), graph.Cycle(4), graph.Cycle(5),
		graph.Path(4), graph.Star(4), graph.Complete(4), graph.Grid(2, 3),
	}
	for _, g := range graphs {
		want := props.NonTwoColorable(g)
		id := graph.SmallLocallyUnique(g, 1)
		got, err := play(t, arb, g, id,
			[]core.Strategy{NonTwoColorableStrategy(), nil, NonTwoColorChargeStrategy()},
			[]cert.Domain{{}, cert.UniformDomain(g.N(), 1), {}})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: non-2-colorable arbiter = %v, want %v", g, got, want)
		}
	}
}

// TestNonTwoColorableRejectsEvenCycleClaim: Eve cannot pass off an even
// cycle — the root's same-parity check fails on every parity labeling she
// could choose, because the machine checks *her* certificates, not her
// honesty.
func TestNonTwoColorableRejectsEvenCycleClaim(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(4) // bipartite
	id := graph.SmallLocallyUnique(g, 1)
	cheat := core.Strategy(func(g *graph.Graph, id graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		// Claim the whole C4 as the "odd" cycle with some parity labels.
		p, _ := BFSForestTo(g, func(_ *graph.Graph, u int) bool { return u == 0 })
		parents := encodeParents(p, id)
		out := make(cert.Assignment, g.N())
		for u := 0; u < g.N(); u++ {
			prev := (u + 3) % 4
			par := "0"
			if u%2 == 1 {
				par = "1"
			}
			out[u] = parents[u] + "|1|" + id[prev] + "|" + par
		}
		return out, nil
	})
	ok, err := play(t, NonTwoColorableArbiter(), g, id,
		[]core.Strategy{cheat, nil, NonTwoColorChargeStrategy()},
		[]cert.Domain{{}, cert.UniformDomain(4, 1), {}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("even-cycle claim accepted")
	}
}
