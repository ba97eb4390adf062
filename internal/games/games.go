// Package games implements the Eve/Adam certificate games built from the
// spanning-forest constructions of Section 5.2: the PointsTo schema of
// Example 6 (a spanning forest whose roots satisfy a target condition,
// refutable by Adam through charge challenges), the PointsToUnique schema
// of Example 8 (a spanning tree rooted at the unique target node), and the
// Hamiltonian-cycle game of Example 9.
//
// The package has two layers:
//
//   - a semantic layer (this file) that evaluates the games exactly over
//     all of Eve's parent assignments and all of Adam's challenge sets,
//     with Eve's charge responses computed by constraint propagation; and
//   - a machine layer (machines.go) realizing the same games as Σ^lp_3
//     arbiters in the LOCAL model, with certificates carrying the parent
//     pointers, challenge bits and charges.
package games

import (
	"repro/internal/graph"
	"repro/internal/search"
)

// Target is a locally checkable node predicate ϑ(x) (it may inspect the
// node's label and degree; the formulas of Section 5.2 use exactly that).
type Target func(g *graph.Graph, u int) bool

// IsUnselected is the target of Example 6: the node's label is not "1".
func IsUnselected(g *graph.Graph, u int) bool { return g.Label(u) != "1" }

// IsSelected is the target of Example 8: the node's label is "1".
func IsSelected(g *graph.Graph, u int) bool { return g.Label(u) == "1" }

// Parents is Eve's first move: a parent pointer per node. Parents[u] == u
// marks u as a root; otherwise Parents[u] must be a neighbor of u
// (UniqueParent in Example 6 restricts pointers to distance 1).
type Parents []int

// Valid reports whether the parent assignment satisfies UniqueParent.
func (p Parents) Valid(g *graph.Graph) bool {
	if len(p) != g.N() {
		return false
	}
	for u, v := range p {
		if v != u && !g.HasEdge(u, v) {
			return false
		}
	}
	return true
}

// Roots returns the self-pointing nodes.
func (p Parents) Roots() []int {
	var out []int
	for u, v := range p {
		if u == v {
			out = append(out, u)
		}
	}
	return out
}

// HasNonRootCycle reports whether the functional graph of p contains a
// directed cycle that is not a root self-loop — exactly the defect Adam
// can expose with a singleton challenge set (Example 6).
func (p Parents) HasNonRootCycle() bool {
	n := len(p)
	state := make([]int8, n) // 0 unvisited, 1 in progress, 2 done
	for s := 0; s < n; s++ {
		u := s
		var path []int
		for state[u] == 0 {
			state[u] = 1
			path = append(path, u)
			if p[u] == u {
				break // reached a root
			}
			u = p[u]
		}
		if state[u] == 1 && p[u] != u {
			// Found a cycle through u that is not a self-loop.
			return true
		}
		for _, v := range path {
			state[v] = 2
		}
	}
	return false
}

// parentsSpace is the search space of all parent assignments of g: one
// position per node, choice 0 meaning "root" (point to self) and choice
// i > 0 meaning the node's (i-1)-th neighbor. Every assignment in the
// space satisfies UniqueParent by construction.
func parentsSpace(g *graph.Graph) search.Space {
	degs := g.Degrees()
	return search.Space{Len: g.N(), Size: func(u int) int { return 1 + degs[u] }}
}

// decodeParentsAsm writes the parent assignment encoded by a parentsSpace
// assignment into p.
func decodeParentsAsm(g *graph.Graph, asm []int, p Parents) {
	for u, c := range asm {
		if c == 0 {
			p[u] = u
		} else {
			p[u] = g.Neighbors(u)[c-1]
		}
	}
}

// newParentsScratch pools Parents buffers so the exponentially many
// predicate calls of a parallel game evaluation reuse a handful of
// per-worker buffers instead of allocating one per assignment.
func newParentsScratch(n int) *search.Scratch[Parents] {
	return search.NewScratch(func() Parents { return make(Parents, n) })
}

// ForEachParents enumerates all parent assignments of g (each node points
// to itself or to one of its neighbors), invoking yield for each; stops
// early when yield returns false.
func ForEachParents(g *graph.Graph, yield func(Parents) bool) bool {
	p := make(Parents, g.N())
	return search.ForEach(parentsSpace(g), func(asm []int) bool {
		decodeParentsAsm(g, asm, p)
		return yield(p)
	})
}

// Challenge is Adam's move: the set X of challenged nodes.
type Challenge []bool

// ForEachChallenge enumerates all 2^n challenge sets.
func ForEachChallenge(n int, yield func(Challenge) bool) bool {
	cur := make(Challenge, n)
	return search.ForEach(search.Binary(n), func(asm []int) bool {
		for u, b := range asm {
			cur[u] = b == 1
		}
		return yield(cur)
	})
}

// SolveCharges computes Eve's charge response Y to Adam's challenge X:
// roots must be positively charged, children outside X share their
// parent's charge, children in X take the opposite charge (the ChildCase
// formula of Example 6). It returns the charges and whether a consistent
// response exists. Consistency fails exactly when some directed cycle of p
// that is not a root self-loop has an odd number of challenged nodes.
func SolveCharges(p Parents, x Challenge) ([]bool, bool) {
	n := len(p)
	y := make([]bool, n)
	det := make([]int8, n) // 0 undetermined, 1 determined, 2 visiting
	var visit func(u int) bool
	visit = func(u int) bool {
		if det[u] == 1 {
			return true
		}
		if det[u] == 2 {
			// Hit a cycle: seed u arbitrarily (positive), then verify the
			// cycle constraint when unwinding.
			y[u] = true
			det[u] = 1
			return true
		}
		if p[u] == u {
			y[u] = true // RootCase: roots are positive
			det[u] = 1
			return true
		}
		det[u] = 2
		if !visit(p[u]) {
			return false
		}
		want := y[p[u]] != x[u] // Y(u) = Y(parent) XOR X(u)
		if det[u] == 1 {
			// u was seeded as a cycle entry point: check consistency.
			return y[u] == want
		}
		y[u] = want
		det[u] = 1
		return true
	}
	for u := 0; u < n; u++ {
		if !visit(u) {
			return nil, false
		}
	}
	return y, true
}

// EveWinsPointsTo evaluates the PointsTo[target] game of Example 6
// exactly: Eve wins iff
//
//	∃P ∀X ∃Y : every node passes UniqueParent ∧ RootCase[ϑ] ∧ ChildCase.
//
// Adam's challenges are enumerated exhaustively; Eve's charge responses
// come from SolveCharges (which finds a response whenever one exists).
// Eve's parent assignments are searched by the engine o (search.Options{}
// runs in parallel across all CPUs). The target must be safe for
// concurrent calls when the engine is parallel (the paper's targets
// inspect only labels and degrees). Do not set Options.Ctx here: on
// cancellation the Boolean returned is meaningless, and this function
// discards the error that would flag it — callers needing cancellation
// should drive search.Exists directly.
func EveWinsPointsTo(g *graph.Graph, target Target, o search.Options) bool {
	scratch := newParentsScratch(g.N())
	won, _ := search.Exists(o, parentsSpace(g), func(asm []int) bool {
		p, put := scratch.Get()
		defer put()
		decodeParentsAsm(g, asm, p)
		return parentsWinPointsTo(g, p, target)
	})
	return won
}

// parentsWinPointsTo reports whether Eve's parent assignment p survives
// RootCase[target] and every challenge of Adam.
func parentsWinPointsTo(g *graph.Graph, p Parents, target Target) bool {
	for _, r := range p.Roots() {
		if !target(g, r) {
			return false
		}
	}
	adamBreaks := false
	ForEachChallenge(g.N(), func(x Challenge) bool {
		if _, ok := SolveCharges(p, x); !ok {
			adamBreaks = true
			return false
		}
		return true
	})
	return !adamBreaks
}

// SolveUniqueness computes Eve's Z response in the PointsToUnique game of
// Example 8: Z is a global Boolean (all nodes must agree), and every node
// satisfying the target must set Z equal to its own challenge membership.
// It returns a consistent Z and whether one exists: it does iff all target
// nodes agree on membership in X.
func SolveUniqueness(g *graph.Graph, target Target, x Challenge) (bool, bool) {
	z := false
	seen := false
	for u := 0; u < g.N(); u++ {
		if !target(g, u) {
			continue
		}
		if !seen {
			z = x[u]
			seen = true
		} else if x[u] != z {
			return false, false
		}
	}
	return z, true
}

// EveWinsPointsToUnique evaluates the PointsToUnique[target] game of
// Example 8 exactly: PointsTo plus Adam's second line of attack on the
// uniqueness of the target node. Eve wins iff exactly one node satisfies
// the target (and she can then produce a spanning tree rooted there).
// Same engine, concurrency and Ctx caveats as EveWinsPointsTo.
func EveWinsPointsToUnique(g *graph.Graph, target Target, o search.Options) bool {
	scratch := newParentsScratch(g.N())
	won, _ := search.Exists(o, parentsSpace(g), func(asm []int) bool {
		p, put := scratch.Get()
		defer put()
		decodeParentsAsm(g, asm, p)
		for _, r := range p.Roots() {
			if !target(g, r) {
				return false
			}
		}
		return !adamDefeats(g, p, target)
	})
	return won
}

// EveWinsHamiltonian evaluates the Hamiltonian-cycle game of Example 9
// exactly: Eve proposes a spanning tree that must be a Hamiltonian path
// (unique root via PointsToUnique[Root], at most one child per node) whose
// root is adjacent to the unique leaf without being its parent. Same
// engine and Ctx caveats as EveWinsPointsTo.
func EveWinsHamiltonian(g *graph.Graph, o search.Options) bool {
	n := g.N()
	scratch := newParentsScratch(n)
	won, _ := search.Exists(o, parentsSpace(g), func(asm []int) bool {
		p, put := scratch.Get()
		defer put()
		decodeParentsAsm(g, asm, p)
		// MaxOneChild: each node has at most one child.
		children := make([]int, n)
		for u, v := range p {
			if u != v {
				children[v]++
				if children[v] > 1 {
					return false
				}
			}
		}
		// SeesLeafIfRoot: every root is adjacent to a leaf that is not its
		// own child. (Leaves are nodes with no children.)
		for _, r := range p.Roots() {
			ok := false
			for _, v := range g.Neighbors(r) {
				if children[v] == 0 && p[v] != r {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		// The Root target: roots are exactly the self-pointing nodes.
		rootTarget := func(_ *graph.Graph, u int) bool { return p[u] == u }
		return !adamDefeats(g, p, rootTarget)
	})
	return won
}

// BFSForestTo returns Eve's canonical winning first move when some node
// satisfies the target: a BFS spanning forest in which every parent
// pointer leads one step closer to the nearest target node. All roots
// satisfy the target and the forest is acyclic.
func BFSForestTo(g *graph.Graph, target Target) (Parents, bool) {
	n := g.N()
	p := make(Parents, n)
	dist := make([]int, n)
	for u := range p {
		p[u] = -1
		dist[u] = -1
	}
	var queue []int
	for u := 0; u < n; u++ {
		if target(g, u) {
			p[u] = u
			dist[u] = 0
			queue = append(queue, u)
		}
	}
	if len(queue) == 0 {
		return nil, false
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if p[v] < 0 {
				p[v] = u
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return p, true
}

// HamiltonianPathParents returns Eve's canonical winning first move in the
// Hamiltonian game: parent pointers along a Hamiltonian cycle, rooted at
// one end (each node's parent is its predecessor on the path, the root
// points to itself, and the root is adjacent to the final leaf).
func HamiltonianPathParents(g *graph.Graph) (Parents, bool) {
	n := g.N()
	if n < 3 {
		return nil, false
	}
	order := make([]int, 0, n)
	visited := make([]bool, n)
	visited[0] = true
	order = append(order, 0)
	var dfs func(u, count int) bool
	dfs = func(u, count int) bool {
		if count == n {
			return g.HasEdge(u, 0)
		}
		for _, v := range g.Neighbors(u) {
			if !visited[v] {
				visited[v] = true
				order = append(order, v)
				if dfs(v, count+1) {
					return true
				}
				order = order[:len(order)-1]
				visited[v] = false
			}
		}
		return false
	}
	if !dfs(0, 1) {
		return nil, false
	}
	p := make(Parents, n)
	p[order[0]] = order[0]
	for i := 1; i < n; i++ {
		p[order[i]] = order[i-1]
	}
	return p, true
}
