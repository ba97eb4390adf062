package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) on core graph invariants.

func randomGraphFromSeed(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	return RandomConnected(2+rng.Intn(8), 0.3, rng)
}

// Balls grow monotonically with the radius and eventually cover the graph.
func TestQuickBallMonotone(t *testing.T) {
	t.Parallel()
	f := func(seed int64, u8 uint8) bool {
		g := randomGraphFromSeed(seed)
		u := int(u8) % g.N()
		prev := 0
		for r := 0; r <= g.N(); r++ {
			cur := len(g.Ball(u, r))
			if cur < prev {
				return false
			}
			prev = cur
		}
		return prev == g.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// For every radius, Ball is the full-BFS distance filter in ascending
// order, and Neighborhood is the labeled subgraph induced by that ball.
func TestQuickBallMatchesBFS(t *testing.T) {
	t.Parallel()
	f := func(seed int64, u8 uint8) bool {
		g := randomGraphFromSeed(seed)
		g = g.MustWithLabels(BitLabels(g.N(), uint(seed)))
		u := int(u8) % g.N()
		for r := 0; r <= g.N(); r++ {
			want := oracleBall(g, u, r)
			if !slices.Equal(g.Ball(u, r), want) {
				return false
			}
			sub, m := g.Neighborhood(u, r)
			if !slices.Equal(m, want) || sub.N() != len(m) {
				return false
			}
			for i := range m {
				if sub.Label(i) != g.Label(m[i]) {
					return false
				}
				for j := range m {
					if sub.HasEdge(i, j) != g.HasEdge(m[i], m[j]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BFS distances are symmetric and satisfy the triangle inequality through
// any edge.
func TestQuickDistanceMetric(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		g := randomGraphFromSeed(seed)
		for u := 0; u < g.N(); u++ {
			du := g.BFS(u)
			for v := 0; v < g.N(); v++ {
				if du[v] != g.BFS(v)[u] {
					return false
				}
			}
			for _, e := range g.Edges() {
				if du[e.U]-du[e.V] > 1 || du[e.V]-du[e.U] > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The identifier order is a strict total order on distinct bit strings.
func TestQuickIDOrderTotal(t *testing.T) {
	t.Parallel()
	f := func(a16, b16, c16 uint16) bool {
		mk := func(x uint16) string {
			s := ""
			for i := 0; i < int(x%8); i++ {
				if x&(1<<uint(i+3)) != 0 {
					s += "1"
				} else {
					s += "0"
				}
			}
			return s
		}
		a, b, c := mk(a16), mk(b16), mk(c16)
		// Antisymmetry.
		if CompareID(a, b) != -CompareID(b, a) {
			return false
		}
		// Reflexivity of equality.
		if CompareID(a, a) != 0 {
			return false
		}
		// Transitivity of <.
		if CompareID(a, b) < 0 && CompareID(b, c) < 0 && CompareID(a, c) >= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// SmallLocallyUnique always satisfies both of its advertised properties,
// for every radius.
func TestQuickSmallIDs(t *testing.T) {
	t.Parallel()
	f := func(seed int64, rid8 uint8) bool {
		g := randomGraphFromSeed(seed)
		rid := 1 + int(rid8)%3
		id := SmallLocallyUnique(g, rid)
		return id.IsLocallyUnique(g, rid) && id.IsSmall(g, rid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Neighborhood subgraphs embed isomorphically: taking the r-neighborhood
// twice is idempotent for r >= diameter of the ball.
func TestQuickNeighborhoodIdempotent(t *testing.T) {
	t.Parallel()
	f := func(seed int64, u8, r8 uint8) bool {
		g := randomGraphFromSeed(seed)
		u := int(u8) % g.N()
		r := int(r8) % 3
		sub, m := g.Neighborhood(u, r)
		// The center maps to index of u in m; its ball in sub matches.
		center := -1
		for i, orig := range m {
			if orig == u {
				center = i
			}
		}
		if center < 0 {
			return false
		}
		sub2, _ := sub.Neighborhood(center, r)
		return Isomorphic(sub, sub2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
