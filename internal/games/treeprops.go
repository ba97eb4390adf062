package games

import (
	"strings"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simulate"
)

// This file implements the remaining Σ^lp_3 spanning-tree games listed at
// the end of Section 5.2 (and placed on the Figure 7 ladder):
//
//   - acyclic: Eve provides a spanning tree and each node checks that all
//     its incident edges belong to the tree;
//   - odd: Eve provides a spanning tree together with modulo-two subtree
//     counters aggregated from the leaves to the root; each node checks
//     its counter equals one plus the sum of its children's counters, and
//     the root checks its own counter is one.
//
// In both games the spanning tree is validated through the
// PointsToUnique[Root] machinery of Example 8 (Adam attacks cycles and
// root multiplicity), so the games sit at level Σ^lp_3.

// EveWinsAcyclic evaluates the acyclic game exactly: Eve wins iff she has
// a spanning tree containing every edge of the graph — i.e. iff the graph
// is a tree.
func EveWinsAcyclic(g *graph.Graph) bool {
	won := false
	ForEachParents(g, func(p Parents) bool {
		// Every incident edge must be a tree edge: {u,v} ∈ E implies
		// p[u] == v or p[v] == u.
		for _, e := range g.Edges() {
			if p[e.U] != e.V && p[e.V] != e.U {
				return true // try next P
			}
		}
		if !adamDefeats(g, p, func(_ *graph.Graph, u int) bool { return p[u] == u }) {
			won = true
			return false
		}
		return true
	})
	return won
}

// EveWinsOdd evaluates the odd game exactly: Eve wins iff the number of
// nodes is odd. Her counters are forced bottom-up by the tree, so only
// the tree choice is enumerated.
func EveWinsOdd(g *graph.Graph) bool {
	won := false
	ForEachParents(g, func(p Parents) bool {
		if p.HasNonRootCycle() || len(p.Roots()) != 1 {
			// Adam would win the charge/uniqueness game; and if he
			// cannot, the counters below are well defined.
			if adamDefeats(g, p, func(_ *graph.Graph, u int) bool { return p[u] == u }) {
				return true
			}
		}
		parity, ok := subtreeParities(p)
		if !ok {
			return true
		}
		root := p.Roots()[0]
		if parity[root]%2 != 1 {
			return true // the tree exists but witnesses even cardinality
		}
		if !adamDefeats(g, p, func(_ *graph.Graph, u int) bool { return p[u] == u }) {
			won = true
			return false
		}
		return true
	})
	return won
}

// adamDefeats reports whether Adam has a winning challenge against Eve's
// parent assignment in the PointsToUnique[target] sub-game.
func adamDefeats(g *graph.Graph, p Parents, target Target) bool {
	defeated := false
	ForEachChallenge(g.N(), func(x Challenge) bool {
		if _, ok := SolveCharges(p, x); !ok {
			defeated = true
			return false
		}
		if _, ok := SolveUniqueness(g, target, x); !ok {
			defeated = true
			return false
		}
		return true
	})
	return defeated
}

// subtreeParities computes, for an acyclic single-root parent assignment,
// the sizes mod 2 of all subtrees. ok is false when p has a non-root
// cycle (no consistent counters exist).
func subtreeParities(p Parents) ([]int, bool) {
	if p.HasNonRootCycle() || len(p.Roots()) != 1 {
		return nil, false
	}
	n := len(p)
	parity := make([]int, n)
	order := make([]int, 0, n)
	depth := make([]int, n)
	for u := 0; u < n; u++ {
		d := 0
		for v := u; p[v] != v; v = p[v] {
			d++
		}
		depth[u] = d
		order = append(order, u)
	}
	// Process deepest first so children precede parents.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && depth[order[j]] > depth[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for u := range parity {
		parity[u] = 1 // each node counts itself
	}
	for _, u := range order {
		if p[u] != u {
			parity[p[u]] = (parity[p[u]] + parity[u]) % 2
		}
	}
	return parity, true
}

// --- machine layer -------------------------------------------------------

// AcyclicArbiter returns the Σ^lp_3 arbiter for acyclicity: the
// PointsToUnique[Root] checks plus "every incident edge is a tree edge".
// κ1(u) = parent pointer; κ2(u) = Adam's challenge bit; κ3(u) = "YZ".
func AcyclicArbiter() *core.Arbiter {
	m := &simulate.Machine{
		Name: "sigma3:acyclic",
		Init: func(in simulate.Input) any {
			s := &ptState{}
			s.parse(in, certAt(in, 0))
			s.targetHolds = s.isRoot
			return s
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*ptState)
			if round == 1 {
				var buf [msgBuf]byte
				return s.reply(string(s.appendRound1(buf[:0]))), false
			}
			var c ptCheck
			inTree := true
			for _, m := range recv {
				nb, ok := parseNeighbor(m)
				if !ok {
					s.ok = false
					continue
				}
				c.see(s, nb)
				// Every incident edge must be in the tree: each neighbor
				// is either my parent or points to me.
				isMyParent := !s.isRoot && nb.id == s.parentID
				pointsToMe := !nb.isRoot && nb.parentID == s.id
				if !isMyParent && !pointsToMe {
					inTree = false
				}
			}
			s.finish(c, true)
			if !inTree {
				s.ok = false
			}
			return nil, true
		},
		Output: func(sv any) string { return bit(sv.(*ptState).ok) },
	}
	return &core.Arbiter{
		Machine:  m,
		Level:    core.Sigma(3),
		RadiusID: 1,
		Bound:    cert.Bound{R: 1, P: cert.Polynomial{2, 1}},
	}
}

// oddState carries the parity counter parsed from κ1.
type oddState struct {
	ptState
	parity int
}

// OddArbiter returns the Σ^lp_3 arbiter for "odd number of nodes": Eve's
// κ1(u) is the parent pointer followed by ':' and the subtree-parity bit
// (pointer and counter are both hers to choose); the nodes verify the
// modulo-two aggregation locally. κ2/κ3 are Adam's challenge and Eve's
// charges as usual.
func OddArbiter() *core.Arbiter {
	m := &simulate.Machine{
		Name: "sigma3:odd",
		Init: func(in simulate.Input) any {
			// Split κ1 = <pointer>:<parity>.
			o := &oddState{parity: -1}
			k1 := certAt(in, 0)
			if i := strings.LastIndexByte(k1, ':'); i >= 0 {
				switch k1[i+1:] {
				case "0":
					o.parity = 0
				case "1":
					o.parity = 1
				}
				k1 = k1[:i]
			}
			o.parse(in, k1)
			o.targetHolds = o.isRoot
			if o.parity < 0 {
				o.ok = false
				o.parity = 0
			}
			return o
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			o := sv.(*oddState)
			s := &o.ptState
			if round == 1 {
				// Message: the PointsTo fields plus the parity bit.
				var buf [msgBuf]byte
				b := append(s.appendRound1(buf[:0]), ',', bitByte(o.parity == 1))
				return s.reply(string(b)), false
			}
			var c ptCheck
			sum := 0
			for _, m := range recv {
				i := strings.LastIndexByte(m, ',')
				if i < 0 {
					s.ok = false
					continue
				}
				nb, ok := parseNeighbor(m[:i])
				if !ok {
					s.ok = false
					continue
				}
				c.see(s, nb)
				// Children contribute their parity.
				if !nb.isRoot && nb.parentID == s.id && m[i+1:] == "1" {
					sum++
				}
			}
			s.finish(c, true)
			// Counter check: my parity = 1 + Σ children parities (mod 2).
			if o.parity != (1+sum)%2 {
				s.ok = false
			}
			// The root's parity is the total cardinality mod 2.
			if s.isRoot && o.parity != 1 {
				s.ok = false
			}
			return nil, true
		},
		Output: func(sv any) string { return bit(sv.(*oddState).ok) },
	}
	return &core.Arbiter{
		Machine:  m,
		Level:    core.Sigma(3),
		RadiusID: 1,
		Bound:    cert.Bound{R: 1, P: cert.Polynomial{3, 1}},
	}
}

// AcyclicStrategy returns Eve's first move for the acyclic game: the
// graph's own edge set as a tree rooted at node 0 (only winning when the
// graph is a tree).
func AcyclicStrategy() core.Strategy {
	return func(g *graph.Graph, id graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		p, ok := BFSForestTo(g, func(_ *graph.Graph, u int) bool { return u == 0 })
		if !ok {
			p = make(Parents, g.N())
			for u := range p {
				p[u] = u
			}
		}
		return encodeParents(p, id), nil
	}
}

// OddStrategy returns Eve's first move for the odd game: a BFS spanning
// tree rooted at node 0 with the true subtree parities attached.
func OddStrategy() core.Strategy {
	return func(g *graph.Graph, id graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		p, _ := BFSForestTo(g, func(_ *graph.Graph, u int) bool { return u == 0 })
		parity, ok := subtreeParities(p)
		out := encodeParents(p, id)
		for u := range out {
			b := "0"
			if ok && parity[u] == 1 {
				b = "1"
			}
			out[u] += ":" + b
		}
		return out, nil
	}
}
