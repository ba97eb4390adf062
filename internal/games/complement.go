package games

import (
	"repro/internal/graph"
	"repro/internal/search"
)

// This file implements Example 7: the complementation technique that
// turns the Σ^lfo_1 property 3-colorable into the Π^lfo_4 property
// non-3-colorable. The sentence is
//
//	∀C0,C1,C2 ∃P ∀X ∃Y ∀◦x PointsTo[¬WellColored](x):
//
// Adam opens by proposing color sets; Eve replies with a spanning forest
// whose roots are badly colored nodes (the ExistsBadNode sub-game of
// Example 6); Adam challenges the forest; Eve answers with charges. The
// graph is non-k-colorable iff every Adam proposal leaves a bad node for
// Eve to point at.

// ColorSets assigns to every node a subset of k colors (Adam's opening
// move: the interpretations of C0, …, C(k-1) restricted to node elements,
// which is all the formula inspects).
type ColorSets [][]bool

// colorSetsSpace is the search space of all (2^k)^n color-set
// assignments: one binary position per (node, color) pair.
func colorSetsSpace(n, k int) search.Space { return search.Binary(n * k) }

// decodeColorSets writes the assignment encoded by a colorSetsSpace
// assignment into cs.
func decodeColorSets(asm []int, k int, cs ColorSets) {
	for pos, b := range asm {
		cs[pos/k][pos%k] = b == 1
	}
}

// newColorSets allocates an n-node, k-color ColorSets.
func newColorSets(n, k int) ColorSets {
	cs := make(ColorSets, n)
	for u := range cs {
		cs[u] = make([]bool, k)
	}
	return cs
}

// ForEachColorSets enumerates all (2^k)^n color-set assignments.
func ForEachColorSets(n, k int, yield func(ColorSets) bool) bool {
	cur := newColorSets(n, k)
	return search.ForEach(colorSetsSpace(n, k), func(asm []int) bool {
		decodeColorSets(asm, k, cur)
		return yield(cur)
	})
}

// badlyColored reports whether node u violates WellColored under the
// color sets: it has no color, more than one color, or shares a color
// with a neighbor (Example 5's three conjuncts, negated).
func badlyColored(g *graph.Graph, cs ColorSets, u int) bool {
	count := 0
	for _, has := range cs[u] {
		if has {
			count++
		}
	}
	if count != 1 {
		return true
	}
	for _, v := range g.Neighbors(u) {
		for c, has := range cs[u] {
			if has && cs[v][c] {
				return true
			}
		}
	}
	return false
}

// EveWinsNonKColorable evaluates the Example 7 game exactly: for every
// color-set proposal of Adam, Eve must win the PointsTo[¬WellColored]
// sub-game — i.e. some node must be badly colored and she must be able to
// anchor a refutation forest there. The value is true iff g is not
// k-colorable. Adam's outermost color-set proposals are searched by the
// engine o, while each PointsTo sub-game runs sequentially inside its
// worker (parallelizing the outermost universal quantifier is what
// splits the (2^k)^n-sized space; nesting pools would only oversubscribe
// the CPUs). Do not set Options.Ctx here — see EveWinsPointsTo.
func EveWinsNonKColorable(g *graph.Graph, k int, o search.Options) bool {
	n := g.N()
	inner := o
	inner.Workers = 1
	scratch := search.NewScratch(func() ColorSets { return newColorSets(n, k) })
	allHandled, _ := search.ForAll(o, colorSetsSpace(n, k), func(asm []int) bool {
		cs, put := scratch.Get()
		defer put()
		decodeColorSets(asm, k, cs)
		target := func(g *graph.Graph, u int) bool { return badlyColored(g, cs, u) }
		return EveWinsPointsTo(g, target, inner)
	})
	return allHandled
}
