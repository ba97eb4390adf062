package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// Test-only oracles: the straightforward implementations the bounded
// ball walk replaced. Each ball is filtered out of a full-graph BFS, so
// they share no code with the walk they check.

// oracleBall is Ball by full BFS plus a distance filter.
func oracleBall(g *Graph, u, r int) []int {
	var out []int
	for v, d := range g.BFS(u) {
		if d >= 0 && d <= r {
			out = append(out, v)
		}
	}
	return out
}

// oracleSmallLocallyUnique is the greedy of Remark 3 with a used-value
// map per node and two full-BFS balls per node.
func oracleSmallLocallyUnique(g *Graph, rid int) IDAssignment {
	n := g.N()
	val := make([]int, n)
	for u := 0; u < n; u++ {
		val[u] = -1
	}
	id := make(IDAssignment, n)
	for u := 0; u < n; u++ {
		used := make(map[int]bool)
		for _, v := range oracleBall(g, u, 2*rid) {
			if v != u && val[v] >= 0 {
				used[val[v]] = true
			}
		}
		x := 0
		for used[x] {
			x++
		}
		val[u] = x
		width := ceilLog2(len(oracleBall(g, u, 2*rid)))
		if width == 0 {
			id[u] = ""
			continue
		}
		id[u] = oracleFixedWidthBits(x, width)
	}
	return id
}

// oracleFixedWidthBits pads by repeated concatenation.
func oracleFixedWidthBits(x, width int) string {
	s := strconv.FormatInt(int64(x), 2)
	for len(s) < width {
		s = "0" + s
	}
	if len(s) > width {
		panic(fmt.Sprintf("graph: value %d does not fit in %d bits", x, width))
	}
	return s
}

func oracleIsLocallyUnique(g *Graph, id IDAssignment, rid int) bool {
	if len(id) != g.N() {
		return false
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range oracleBall(g, u, 2*rid) {
			if v != u && id[u] == id[v] {
				return false
			}
		}
	}
	return true
}

func oracleIsSmall(g *Graph, id IDAssignment, rid int) bool {
	for u := 0; u < g.N(); u++ {
		if len(id[u]) > ceilLog2(len(oracleBall(g, u, 2*rid))) {
			return false
		}
	}
	return true
}

// idCorpus is every generator family at sizes up to 300 nodes.
func idCorpus() map[string]*Graph {
	rng := rand.New(rand.NewSource(13))
	gs := map[string]*Graph{}
	for _, n := range []int{1, 2, 3, 5, 8, 17, 64, 300} {
		gs[fmt.Sprintf("Path%d", n)] = Path(n)
		gs[fmt.Sprintf("Star%d", n)] = Star(n)
		gs[fmt.Sprintf("RandomTree%d", n)] = RandomTree(n, rng)
		gs[fmt.Sprintf("RandomConnected%d", n)] = RandomConnected(n, 4/float64(n), rng)
		if n <= 64 {
			gs[fmt.Sprintf("Complete%d", n)] = Complete(n)
		}
		if n >= 3 {
			gs[fmt.Sprintf("Cycle%d", n)] = Cycle(n)
			gs[fmt.Sprintf("GluedDoubleCycle%d", n)] = GluedDoubleCycle(n)
		}
	}
	for _, rc := range [][2]int{{1, 7}, {3, 3}, {4, 16}, {12, 25}} {
		gs[fmt.Sprintf("Grid%dx%d", rc[0], rc[1])] = Grid(rc[0], rc[1])
	}
	return gs
}

// checkIDsAgainstOracle asserts that SmallLocallyUnique is byte-identical
// to the oracle, that the result is locally unique and small by the
// oracle predicates, and that IsLocallyUnique and IsSmall agree with
// them on the result and on a corrupted copy.
func checkIDsAgainstOracle(t *testing.T, name string, g *Graph, rid int) {
	t.Helper()
	got, want := SmallLocallyUnique(g, rid), oracleSmallLocallyUnique(g, rid)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("%s rid=%d: id[%d] = %q, oracle %q", name, rid, u, got[u], want[u])
		}
	}
	if !oracleIsLocallyUnique(g, got, rid) || !oracleIsSmall(g, got, rid) {
		t.Fatalf("%s rid=%d: oracle rejects %v", name, rid, got)
	}
	bad := append(IDAssignment(nil), got...)
	bad[g.N()-1] = bad[0] + "0"
	for _, id := range []IDAssignment{got, bad, make(IDAssignment, g.N())} {
		if a, b := id.IsLocallyUnique(g, rid), oracleIsLocallyUnique(g, id, rid); a != b {
			t.Fatalf("%s rid=%d: IsLocallyUnique(%v) = %v, oracle %v", name, rid, id, a, b)
		}
		if a, b := id.IsSmall(g, rid), oracleIsSmall(g, id, rid); a != b {
			t.Fatalf("%s rid=%d: IsSmall(%v) = %v, oracle %v", name, rid, id, a, b)
		}
	}
}

func TestSmallLocallyUniqueMatchesOracle(t *testing.T) {
	t.Parallel()
	for name, g := range idCorpus() {
		for rid := 0; rid <= 3; rid++ {
			checkIDsAgainstOracle(t, name, g, rid)
		}
	}
}

// TestBallConcurrent shares the pooled walk scratch between goroutines
// on graphs of different sizes; run it under -race.
func TestBallConcurrent(t *testing.T) {
	t.Parallel()
	gs := []*Graph{Cycle(9), Grid(12, 25), Complete(6), RandomTree(64, rand.New(rand.NewSource(3)))}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g := gs[(w+i)%len(gs)]
				u, r := i%g.N(), i%5
				if got, want := g.Ball(u, r), oracleBall(g, u, r); !slices.Equal(got, want) {
					t.Errorf("Ball(%d, %d) = %v, oracle %v", u, r, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFixedWidthBitsMatchesOracle covers the padding, including the
// overflow panic.
func TestFixedWidthBitsMatchesOracle(t *testing.T) {
	t.Parallel()
	call := func(f func(int, int) string, x, width int) (s string, panicked bool) {
		defer func() { panicked = recover() != nil }()
		return f(x, width), false
	}
	for x := -3; x <= 300; x++ {
		for width := 0; width <= 12; width++ {
			got, gp := call(fixedWidthBits, x, width)
			want, wp := call(oracleFixedWidthBits, x, width)
			if got != want || gp != wp {
				t.Fatalf("fixedWidthBits(%d, %d) = %q (panic %v), oracle %q (panic %v)",
					x, width, got, gp, want, wp)
			}
		}
	}
}

func FuzzSmallLocallyUnique(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, rid8 uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := RandomConnected(n, rng.Float64()*0.3, rng)
		checkIDsAgainstOracle(t, fmt.Sprintf("seed%d", seed), g, int(rid8%4))
	})
}
