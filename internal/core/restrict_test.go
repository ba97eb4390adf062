package core

import (
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/simulate"
)

// oneBitRestrictor accepts at a node iff its move-th certificate is a
// single bit. It is locally repairable: a violating certificate can be
// replaced by "0" without affecting other nodes.
func oneBitRestrictor(move int) Restrictor {
	type st struct{ ok bool }
	return Restrictor{
		Move: move,
		Machine: &simulate.Machine{
			Name: "restrict:one-bit",
			Init: func(in simulate.Input) any {
				ok := len(in.Certs) >= move && len(in.Certs[move-1]) == 1
				return &st{ok: ok}
			},
			Round:  func(any, int, []string) ([]string, bool) { return nil, true },
			Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
		},
	}
}

// matchMachine accepts at a node iff κ1(u) equals the node's label,
// assuming the restrictor guarantees κ1 is one bit.
func matchMachine() *simulate.Machine {
	type st struct{ ok bool }
	return &simulate.Machine{
		Name: "main:match",
		Init: func(in simulate.Input) any {
			ok := len(in.Certs) >= 1 && in.Certs[0] == in.Label
			return &st{ok: ok}
		},
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
}

// TestRelativizeExistentialViolation: a violating Eve certificate makes
// the relativized machine reject (verdict 0 at the aware nodes), so the
// Σ^lp_1 game over unrestricted certificates equals the restricted game.
func TestRelativizeExistentialViolation(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	id := graph.GloballyUnique(g)
	mc := Relativize(matchMachine(), Sigma(1), []Restrictor{oneBitRestrictor(1)}, 1)

	// Valid certificates: main verdict decides.
	res, err := simulate.Run(mc, g, id, cert.NodeLists(cert.Assignment{"0", "1"}), simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Fatal("valid matching certificates should be accepted")
	}
	res, err = simulate.Run(mc, g, id, cert.NodeLists(cert.Assignment{"1", "1"}), simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("valid but mismatching certificates should be rejected")
	}
	// Invalid certificate (too long) on an otherwise-accepting play:
	// the violation is Eve's, so the machine must reject.
	res, err = simulate.Run(mc, g, id, cert.NodeLists(cert.Assignment{"00", "1"}), simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("Eve's invalid certificate must be rejected")
	}
}

// TestRelativizeUniversalViolation: at level Π^lp_1 the certificate is
// Adam's; his invalid certificates must be *accepted* so that they cannot
// help him win the universal quantification.
func TestRelativizeUniversalViolation(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	id := graph.GloballyUnique(g)
	mc := Relativize(matchMachine(), Pi(1), []Restrictor{oneBitRestrictor(1)}, 1)

	res, err := simulate.Run(mc, g, id, cert.NodeLists(cert.Assignment{"00", "1"}), simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted() {
		t.Fatal("Adam's invalid certificate must be neutralized by acceptance")
	}
}

// TestRelativizedGameEqualsRestrictedGame: quantifying the relativized
// machine over a loose domain gives the same game value as quantifying
// the raw machine over the restricted domain — the statement of Lemma 11
// at our instance sizes.
func TestRelativizedGameEqualsRestrictedGame(t *testing.T) {
	t.Parallel()
	for mask := uint(0); mask < 4; mask++ {
		g := graph.Path(2).MustWithLabels(graph.BitLabels(2, mask))
		id := graph.GloballyUnique(g)
		loose := []cert.Domain{cert.UniformDomain(2, 2)}  // includes invalid lengths
		strict := []cert.Domain{cert.UniformDomain(2, 1)} // still includes "", rejected by main

		mc := Relativize(matchMachine(), Sigma(1), []Restrictor{oneBitRestrictor(1)}, 1)
		arbLoose := &Arbiter{Machine: mc, Level: Sigma(1), RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
		prep := mustPrepare(t, g, id)
		got, err := arbLoose.Value(prep, nil, loose, Engine{})
		if err != nil {
			t.Fatal(err)
		}
		arbStrict := &Arbiter{Machine: matchMachine(), Level: Sigma(1), RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
		want, err := arbStrict.Value(prep, nil, strict, Engine{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("mask %b: relativized game = %v, restricted game = %v", mask, got, want)
		}
	}
}

// TestRelativizeFlagPropagation: a violation at one node must reach its
// neighbors' verdicts within the propagation rounds.
func TestRelativizeFlagPropagation(t *testing.T) {
	t.Parallel()
	g := graph.Path(3).MustWithLabels([]string{"1", "1", "1"})
	id := graph.GloballyUnique(g)
	mc := Relativize(matchMachine(), Sigma(1), []Restrictor{oneBitRestrictor(1)}, 2)
	// Node 2 plays an invalid certificate; all nodes play matching bits
	// otherwise. With propagation, nodes 1 (and 0 after 2 rounds) learn
	// about the violation; the graph is rejected.
	res, err := simulate.Run(mc, g, id, cert.NodeLists(cert.Assignment{"1", "1", "11"}), simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("violation must reject the graph")
	}
	// The violating node itself must reject (it is Eve's move).
	if res.Outputs[2] != "0" {
		t.Fatalf("node 2 verdict %q, want 0", res.Outputs[2])
	}
	// And its neighbor learned of it.
	if res.Outputs[1] != "0" {
		t.Fatalf("node 1 verdict %q, want 0 after propagation", res.Outputs[1])
	}
}
