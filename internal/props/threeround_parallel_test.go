package props

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/search"
)

// spider returns a star of k length-2 legs: the center has degree k
// (Eve's closing block), the k mid nodes have degree 2 (Adam's block),
// and the k leaves have degree 1 (Eve's opening block) — so for k >= 4
// Eve's opening space reaches the engine's parallel threshold and the
// worker pool genuinely engages.
func spider(k int) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i < k; i++ {
		mid, leaf := 2*i+1, 2*i+2
		edges = append(edges, graph.Edge{U: 0, V: mid}, graph.Edge{U: mid, V: leaf})
	}
	return graph.MustNew(2*k+1, edges, nil)
}

// TestThreeRoundParallelMatchesSequential asserts that the parallel and
// sequential engines agree on the 3-round 3-colorability game. On the
// Figure 1 instances every block is below the parallel threshold and
// both engines take the same sequential path; the spider instances are
// large enough that the pool actually spawns, so running this under
// -race exercises the worker pool for real.
func TestThreeRoundParallelMatchesSequential(t *testing.T) {
	instances := map[string]struct {
		g    *graph.Graph
		want bool
	}{
		"Figure 1a": {graph.Figure1NoInstance(), false},
		"Figure 1b": {graph.Figure1YesInstance(), true},
		// P4: Adam owns both middle nodes and colors them equal; C6:
		// Adam owns every node; K4: Eve colors everything last but K4
		// has no proper 3-coloring at all; spiders: Adam mirrors a
		// leaf's color onto its mid node.
		"P4":       {graph.Path(4), false},
		"C6":       {graph.Cycle(6), false},
		"K4":       {graph.Complete(4), false},
		"spider 5": {spider(5), false},
		"spider 6": {spider(6), false},
	}
	for name, tt := range instances {
		seq := ThreeRoundThreeColorable(tt.g, search.Sequential())
		par := ThreeRoundThreeColorable(tt.g, search.Parallel(0))
		if seq != par {
			t.Errorf("%s: parallel=%v sequential=%v", name, par, seq)
		}
		if seq != tt.want {
			t.Errorf("%s: game value %v, want %v", name, seq, tt.want)
		}
	}
}
