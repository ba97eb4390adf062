package games

import (
	"strings"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simulate"
)

// Machine-layer realization of the spanning-forest games as Σ^lp_3
// arbiters in the LOCAL model.
//
// Certificate encoding (three assignments κ1, κ2, κ3):
//
//	κ1(u): Eve's parent pointer — "0" marks u a root, "1"+id(parent)
//	       points to a neighbor (bounded: one bit + a local identifier).
//	κ2(u): Adam's challenge bit — "1" iff u ∈ X (anything else: u ∉ X).
//	κ3(u): Eve's response — two bits "YZ": the charge Y(u) and the shared
//	       uniqueness bit Z(u) (Z unused by the plain PointsTo arbiter).

// LocalTarget is a target condition evaluated from a node's local input,
// as the arbiter machine must do (e.g. label ≠ "1").
type LocalTarget func(in simulate.Input) bool

// UnselectedTarget is IsUnselected at machine level.
func UnselectedTarget(in simulate.Input) bool { return in.Label != "1" }

// SelectedTarget is IsSelected at machine level.
func SelectedTarget(in simulate.Input) bool { return in.Label == "1" }

type ptState struct {
	id       string
	degree   int
	parentID string
	isRoot   bool
	x        bool
	y        bool
	z        bool
	ok       bool
	// targetHolds is the target of the uniqueness checks: the node's
	// label predicate, or "is a root" for the spanning-tree games.
	targetHolds bool
	// send backs the reply slice of a node of degree ≤ len(send), so a
	// round's reply costs no allocation beyond its message (simulate
	// copies the reply before the next Round call on the same state).
	send [4]string
}

// parse fills s from the node's local input with κ1 = k1 (the parent
// pointer alone: games that extend κ1 pass it with their own fields
// split off) and κ2, κ3 from in.Certs. targetHolds is left to the caller.
func (s *ptState) parse(in simulate.Input, k1 string) {
	s.id = in.ID
	s.degree = in.Degree
	s.ok = true
	switch {
	case k1 == "0":
		s.isRoot = true
	case strings.HasPrefix(k1, "1"):
		s.parentID = k1[1:]
	default:
		s.ok = false // malformed Eve move: she loses locally
	}
	s.x = certAt(in, 1) == "1"
	if k3 := certAt(in, 2); len(k3) == 2 {
		s.y = k3[0] == '1'
		s.z = k3[1] == '1'
	}
}

// certAt returns the node's i-th certificate, "" when the list is
// shorter.
func certAt(in simulate.Input, i int) string {
	if i < len(in.Certs) {
		return in.Certs[i]
	}
	return ""
}

// appendRound1 appends the round-1 message to b: id, Y, Z, X, the root
// flag and the parent claim, comma-separated (the parent claim last, so
// it may itself hold commas).
func (s *ptState) appendRound1(b []byte) []byte {
	b = append(b, s.id...)
	b = append(b, ',', bitByte(s.y), ',', bitByte(s.z), ',', bitByte(s.x), ',', bitByte(s.isRoot), ',')
	return append(b, s.parentID...)
}

// msgBuf sizes the stack buffer the machines build a message in; longer
// messages spill to the heap through append.
const msgBuf = 64

// reply returns a reply carrying msg to every neighbor, backed by s.send
// when the degree fits it.
func (s *ptState) reply(msg string) []string {
	var out []string
	if s.degree <= len(s.send) {
		out = s.send[:s.degree]
	} else {
		out = make([]string, s.degree)
	}
	for i := range out {
		out[i] = msg
	}
	return out
}

func bit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func bitByte(b bool) byte {
	if b {
		return '1'
	}
	return '0'
}

type neighborInfo struct {
	id       string
	y, z, x  bool
	isRoot   bool
	parentID string
}

// parseNeighbor decodes a round-1 message: five commas split off the
// first five fields and the parent claim is the rest, commas included.
// The fields are substrings of msg.
func parseNeighbor(msg string) (neighborInfo, bool) {
	var f [5]string
	for i := range f {
		j := strings.IndexByte(msg, ',')
		if j < 0 {
			return neighborInfo{}, false
		}
		f[i], msg = msg[:j], msg[j+1:]
	}
	return neighborInfo{
		id:       f[0],
		y:        f[1] == "1",
		z:        f[2] == "1",
		x:        f[3] == "1",
		isRoot:   f[4] == "1",
		parentID: msg,
	}, true
}

// split4 splits s into exactly four sep-separated fields (substrings of
// s). Unless s holds exactly three seps it returns no fields and false.
func split4(s string, sep byte) ([4]string, bool) {
	var f [4]string
	for i := 0; i < 3; i++ {
		j := strings.IndexByte(s, sep)
		if j < 0 {
			return [4]string{}, false
		}
		f[i], s = s[:j], s[j+1:]
	}
	if strings.IndexByte(s, sep) >= 0 {
		return [4]string{}, false
	}
	f[3] = s
	return f, true
}

// ptCheck accumulates the round-2 PointsTo checks over one walk of a
// node's received messages.
type ptCheck struct {
	parents   int  // neighbors whose id is the claimed parent's
	parentY   bool // the charge of the last of them
	zMismatch bool // some neighbor's Z differs from the node's
}

func (c *ptCheck) see(s *ptState, nb neighborInfo) {
	if nb.id == s.parentID {
		c.parents++
		c.parentY = nb.y
	}
	if nb.z != s.z {
		c.zMismatch = true
	}
}

// finish applies the round-2 local checks of the PointsTo schema to the
// walk c; unique adds the PointsToUnique checks.
func (s *ptState) finish(c ptCheck, unique bool) {
	if !s.ok {
		return
	}
	if s.isRoot {
		// RootCase[ϑ]: the root must satisfy the target and be positive.
		if !s.targetHolds || !s.y {
			s.ok = false
		}
	} else if c.parents != 1 || s.y != (c.parentY != s.x) {
		// UniqueParent: the claimed parent must be exactly one neighbor;
		// ChildCase: Y(u) = Y(parent) XOR X(u).
		s.ok = false
	}
	// BelievesInOne[ϑ]: all nodes agree on Z; target nodes tie Z to
	// their own challenge membership.
	if unique && s.ok && (c.zMismatch || s.targetHolds && s.z != s.x) {
		s.ok = false
	}
}

// newPointsToMachine builds the 2-round arbiter shared by the PointsTo and
// PointsToUnique games.
func newPointsToMachine(name string, target LocalTarget, unique bool) *simulate.Machine {
	return &simulate.Machine{
		Name: name,
		Init: func(in simulate.Input) any {
			s := &ptState{}
			s.parse(in, certAt(in, 0))
			s.targetHolds = target(in)
			return s
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			s := sv.(*ptState)
			if round == 1 {
				var buf [msgBuf]byte
				return s.reply(string(s.appendRound1(buf[:0]))), false
			}
			var c ptCheck
			for _, m := range recv {
				nb, ok := parseNeighbor(m)
				if !ok {
					s.ok = false
					continue
				}
				c.see(s, nb)
			}
			s.finish(c, unique)
			return nil, true
		},
		Output: func(sv any) string { return bit(sv.(*ptState).ok) },
	}
}

// PointsToArbiter returns the Σ^lp_3 arbiter for the property
// "some node satisfies the target" (Example 6): Eve plays a spanning
// forest rooted at target nodes (κ1), Adam challenges with a set X (κ2),
// Eve responds with charges (κ3).
func PointsToArbiter(name string, target LocalTarget) *core.Arbiter {
	return &core.Arbiter{
		Machine:  newPointsToMachine(name, target, false),
		Level:    core.Sigma(3),
		RadiusID: 1,
		Bound:    cert.Bound{R: 1, P: cert.Polynomial{2, 1}},
	}
}

// PointsToUniqueArbiter returns the Σ^lp_3 arbiter for "exactly one node
// satisfies the target" (Example 8).
func PointsToUniqueArbiter(name string, target LocalTarget) *core.Arbiter {
	return &core.Arbiter{
		Machine:  newPointsToMachine(name, target, true),
		Level:    core.Sigma(3),
		RadiusID: 1,
		Bound:    cert.Bound{R: 1, P: cert.Polynomial{2, 1}},
	}
}

// NotAllSelectedArbiter is the Σ^lp_3 arbiter for not-all-selected.
func NotAllSelectedArbiter() *core.Arbiter {
	return PointsToArbiter("sigma3:not-all-selected", UnselectedTarget)
}

// OneSelectedArbiter is the Σ^lp_3 arbiter for one-selected.
func OneSelectedArbiter() *core.Arbiter {
	return PointsToUniqueArbiter("sigma3:one-selected", SelectedTarget)
}

// --- Eve's machine-level strategies -----------------------------------

// encodeParents converts a parent assignment into Eve's κ1 certificates.
func encodeParents(p Parents, id graph.IDAssignment) cert.Assignment {
	out := make(cert.Assignment, len(p))
	for u, v := range p {
		if u == v {
			out[u] = "0"
		} else {
			out[u] = "1" + id[v]
		}
	}
	return out
}

// chargeNode is one node's slot in a charge solve: Eve's parent pointer
// and Adam's challenge bit in, the charge Y out, and the solver's visit
// mark. One []chargeNode backs the decode and the solve of a whole
// strategy call.
type chargeNode struct {
	parent int
	x, y   bool
	det    int8 // 0 undetermined, 1 determined, 2 visiting
}

// decodeParents reconstructs the parent assignment from κ1 certificates
// into c (used by Eve's third-move strategy, which — being a strategy,
// not a distributed machine — may compute globally). pointer, when not
// nil, cuts the parent pointer out of a longer κ1 value.
func decodeParents(g *graph.Graph, id graph.IDAssignment, k1 cert.Assignment, pointer func(string) string, c []chargeNode) bool {
	for u := range c {
		k := k1[u]
		if pointer != nil {
			k = pointer(k)
		}
		switch {
		case k == "0":
			c[u].parent = u
		case strings.HasPrefix(k, "1"):
			pid := k[1:]
			c[u].parent = -1
			for _, v := range g.Neighbors(u) {
				if id[v] == pid {
					c[u].parent = v
					break
				}
			}
			if c[u].parent < 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// decodeChallenge reads Adam's κ2 certificates into c's challenge bits.
func decodeChallenge(k2 cert.Assignment, c []chargeNode) {
	for u := range c {
		c[u].x = k2[u] == "1"
	}
}

// ForestStrategy returns Eve's first-move strategy for PointsTo[target]:
// a BFS spanning forest toward target nodes. When no target node exists
// she has no winning move and plays all-roots (losing, as required).
func ForestStrategy(target Target) core.Strategy {
	return func(g *graph.Graph, id graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		p, ok := BFSForestTo(g, target)
		if !ok {
			p = make(Parents, g.N())
			for u := range p {
				p[u] = u
			}
		}
		return encodeParents(p, id), nil
	}
}

// HamiltonianStrategy returns Eve's first-move strategy for the
// Hamiltonian game: parent pointers along a Hamiltonian cycle.
func HamiltonianStrategy() core.Strategy {
	return func(g *graph.Graph, id graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		p, ok := HamiltonianPathParents(g)
		if !ok {
			p = make(Parents, g.N())
			for u := range p {
				p[u] = u
			}
		}
		return encodeParents(p, id), nil
	}
}

// ChargeStrategy returns Eve's third-move strategy: given her own κ1 and
// Adam's κ2 (moves[0] and moves[1]), solve for charges Y and the
// uniqueness bit Z. The target is needed to compute Z; pass nil for the
// plain PointsTo game (Z stays 0).
func ChargeStrategy(target Target) core.Strategy {
	if target == nil {
		return chargeStrategy(nil, nil)
	}
	return chargeStrategy(nil, func(g *graph.Graph, _ []chargeNode, u int) bool { return target(g, u) })
}

// RootChargeStrategy is ChargeStrategy for games whose target is "is a
// root of Eve's own forest" (the Hamiltonian game): the target depends on
// Eve's first move, so it is resolved from moves[0].
func RootChargeStrategy() core.Strategy { return chargeStrategy(nil, isChargeRoot) }

func isChargeRoot(_ *graph.Graph, c []chargeNode, u int) bool { return c[u].parent == u }

// chargeStrategy is the strategy behind ChargeStrategy,
// RootChargeStrategy and NonTwoColorChargeStrategy. pointer (nil: κ1 is
// the pointer) is passed to decodeParents; target (nil: Z stays 0)
// decides the uniqueness target from the graph and Eve's decoded forest.
// When κ1 does not decode or Adam's challenge admits no consistent
// charges, Eve answers "00" everywhere and loses.
func chargeStrategy(pointer func(string) string, target func(g *graph.Graph, c []chargeNode, u int) bool) core.Strategy {
	return func(g *graph.Graph, id graph.IDAssignment, moves []cert.Assignment) (cert.Assignment, error) {
		out := make(cert.Assignment, g.N())
		c := make([]chargeNode, g.N())
		if len(moves) < 2 || !decodeParents(g, id, moves[0], pointer, c) {
			return fillCharges(out), nil
		}
		decodeChallenge(moves[1], c)
		if !solveCharges(c) {
			return fillCharges(out), nil // no consistent response exists
		}
		// SolveUniqueness over c: Z is the shared challenge bit of the
		// target nodes, and 0 when they disagree (Eve loses either way).
		z, seen := false, false
		for u := range c {
			if target == nil || !target(g, c, u) {
				continue
			}
			if !seen {
				z, seen = c[u].x, true
			} else if c[u].x != z {
				z = false
				break
			}
		}
		for u := range out {
			out[u] = chargeCert(c[u].y, z)
		}
		return out, nil
	}
}

// chargeCert is Eve's κ3 "YZ" for charge y and uniqueness bit z.
func chargeCert(y, z bool) string {
	switch {
	case y && z:
		return "11"
	case y:
		return "10"
	case z:
		return "01"
	}
	return "00"
}

func fillCharges(out cert.Assignment) cert.Assignment {
	for u := range out {
		out[u] = "00"
	}
	return out
}

// --- Hamiltonian arbiter (3 rounds) ------------------------------------

type hamState struct {
	ptState
	childCount int
}

// HamiltonianArbiter returns the Σ^lp_3 arbiter of Example 9: the
// PointsToUnique[Root] checks plus MaxOneChild and SeesLeafIfRoot. It runs
// in three rounds (the third lets leaves announce themselves to the root).
func HamiltonianArbiter() *core.Arbiter {
	m := &simulate.Machine{
		Name: "sigma3:hamiltonian",
		Init: func(in simulate.Input) any {
			h := &hamState{}
			h.parse(in, certAt(in, 0))
			// The target of the uniqueness game is "is a root", known
			// from the node's own κ1.
			h.targetHolds = h.isRoot
			return h
		},
		Round: func(sv any, round int, recv []string) ([]string, bool) {
			h := sv.(*hamState)
			s := &h.ptState
			var buf [msgBuf]byte
			switch round {
			case 1:
				return s.reply(string(s.appendRound1(buf[:0]))), false
			case 2:
				var c ptCheck
				for _, m := range recv {
					nb, ok := parseNeighbor(m)
					if !ok {
						s.ok = false
						continue
					}
					c.see(s, nb)
					if nb.parentID == s.id && !nb.isRoot {
						h.childCount++
					}
				}
				s.finish(c, true)
				// MaxOneChild.
				if h.childCount > 1 {
					s.ok = false
				}
				// Announce leaf status (and echo the parent claim so the
				// root can verify the leaf is not its own child).
				b := append(buf[:0], bitByte(h.childCount == 0), ',')
				return s.reply(string(append(b, s.parentID...))), false
			default:
				// SeesLeafIfRoot: the root needs an adjacent leaf that is
				// not its own child.
				if s.isRoot && s.ok {
					seen := false
					for _, m := range recv {
						j := strings.IndexByte(m, ',')
						if j < 0 {
							continue
						}
						if m[:j] == "1" && m[j+1:] != s.id {
							seen = true
						}
					}
					if !seen {
						s.ok = false
					}
				}
				return nil, true
			}
		},
		Output: func(sv any) string { return bit(sv.(*hamState).ok) },
	}
	return &core.Arbiter{
		Machine:  m,
		Level:    core.Sigma(3),
		RadiusID: 1,
		Bound:    cert.Bound{R: 1, P: cert.Polynomial{2, 1}},
	}
}
