package games

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/search"
)

// TestEveWinsNonKColorable: the Example 7 complementation game captures
// exactly the non-k-colorable graphs. (Instances are tiny: the outer ∀
// ranges over (2^k)^n color-set proposals and the inner game over all of
// Eve's forests and Adam's challenges.)
func TestEveWinsNonKColorable(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"P2 k=2", graph.Path(2), 2},
		{"P3 k=2", graph.Path(3), 2},
		{"C3 k=2", graph.Cycle(3), 2}, // odd cycle: non-2-colorable
		{"C4 k=2", graph.Cycle(4), 2},
		{"C3 k=3", graph.Cycle(3), 3},
		{"K4 k=3", graph.Complete(4), 3}, // non-3-colorable
	}
	for _, tt := range cases {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			want := !props.KColorable(tt.g, tt.k)
			if got := EveWinsNonKColorable(tt.g, tt.k, search.Options{}); got != want {
				t.Fatalf("EveWinsNonKColorable = %v, want %v", got, want)
			}
		})
	}
}

func TestForEachColorSets(t *testing.T) {
	t.Parallel()
	count := 0
	ForEachColorSets(2, 2, func(ColorSets) bool {
		count++
		return true
	})
	if count != 16 {
		t.Fatalf("enumerated %d color-set assignments, want 16", count)
	}
}

func TestBadlyColored(t *testing.T) {
	t.Parallel()
	g := graph.Path(2)
	// Node 0 color 0, node 1 color 0: both bad (shared color).
	cs := ColorSets{{true, false}, {true, false}}
	if !badlyColored(g, cs, 0) || !badlyColored(g, cs, 1) {
		t.Fatal("conflict not detected")
	}
	// Proper coloring: no bad nodes.
	cs = ColorSets{{true, false}, {false, true}}
	if badlyColored(g, cs, 0) || badlyColored(g, cs, 1) {
		t.Fatal("proper coloring flagged")
	}
	// No color at all.
	cs = ColorSets{{false, false}, {false, true}}
	if !badlyColored(g, cs, 0) {
		t.Fatal("uncolored node not flagged")
	}
	// Two colors at once.
	cs = ColorSets{{true, true}, {false, true}}
	if !badlyColored(g, cs, 0) {
		t.Fatal("doubly colored node not flagged")
	}
}
