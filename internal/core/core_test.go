package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/simulate"
)

func TestLevelNames(t *testing.T) {
	t.Parallel()
	if Sigma(0).String() != "LP" || Sigma(1).String() != "Σ^lp_1" || Pi(2).String() != "Π^lp_2" {
		t.Fatal("level names wrong")
	}
}

func TestExistentialAt(t *testing.T) {
	t.Parallel()
	s3 := Sigma(3)
	if !s3.ExistentialAt(1) || s3.ExistentialAt(2) || !s3.ExistentialAt(3) {
		t.Fatal("Σ quantifier pattern wrong")
	}
	p2 := Pi(2)
	if p2.ExistentialAt(1) || !p2.ExistentialAt(2) {
		t.Fatal("Π quantifier pattern wrong")
	}
}

// certEqualsLabel accepts at a node iff its first certificate equals its
// label. Used to exercise the quantifier semantics.
func certEqualsLabel(level Level) *Arbiter {
	type st struct{ ok bool }
	m := &simulate.Machine{
		Name: "test:cert-equals-label",
		Init: func(in simulate.Input) any {
			ok := len(in.Certs) > 0 && in.Certs[0] == in.Label
			return &st{ok: ok}
		},
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
	return &Arbiter{Machine: m, Level: level, RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
}

// mustPrepare builds the simulation instance a game runs against.
func mustPrepare(t *testing.T, g *graph.Graph, id graph.IDAssignment) *simulate.Prepared {
	t.Helper()
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

func TestGameValueExistential(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	id := graph.GloballyUnique(g)
	arb := certEqualsLabel(Sigma(1))
	// Eve can match each label with a 1-bit certificate.
	ok, err := arb.Value(mustPrepare(t, g, id), nil, []cert.Domain{cert.UniformDomain(2, 1)}, Engine{})
	if err != nil || !ok {
		t.Fatalf("∃ should succeed: %v %v", ok, err)
	}
	// With 0-length certificates only, Eve cannot match "0"/"1" labels.
	ok, err = arb.Value(mustPrepare(t, g, id), nil, []cert.Domain{cert.UniformDomain(2, 0)}, Engine{})
	if err != nil || ok {
		t.Fatalf("∃ over empty strings should fail: %v %v", ok, err)
	}
}

func TestGameValueUniversal(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	id := graph.GloballyUnique(g)
	arb := certEqualsLabel(Pi(1))
	// ∀κ1: the machine rejects for most certificates.
	ok, err := arb.Value(mustPrepare(t, g, id), nil, []cert.Domain{cert.UniformDomain(2, 1)}, Engine{})
	if err != nil || ok {
		t.Fatalf("∀ should fail: %v %v", ok, err)
	}
}

// certParity accepts iff κ1(u) XOR κ2(u) = label(u) bitwise on 1-bit
// strings. At level Σ2 (∃κ1∀κ2) Eve cannot win; at level Π2 (∀κ1∃κ2) Adam
// cannot prevent Eve from matching.
func certParity(level Level) *Arbiter {
	type st struct{ ok bool }
	m := &simulate.Machine{
		Name: "test:cert-parity",
		Init: func(in simulate.Input) any {
			ok := len(in.Certs) == 2 &&
				len(in.Certs[0]) == 1 && len(in.Certs[1]) == 1 && len(in.Label) == 1 &&
				(in.Certs[0][0]^in.Certs[1][0]^in.Label[0]) == '0'
			// XOR of ASCII '0'/'1' characters: equal chars give 0 = '0'^'0'.
			return &st{ok: ok}
		},
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
	return &Arbiter{Machine: m, Level: level, RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
}

func TestGameValueAlternation(t *testing.T) {
	t.Parallel()
	g := graph.Single("1")
	id := graph.IDAssignment{""}
	domains := []cert.Domain{cert.UniformDomain(1, 1), cert.UniformDomain(1, 1)}

	// Σ2: ∃κ1∀κ2 — whatever Eve fixes, Adam can break parity.
	prep := mustPrepare(t, g, id)
	ok, err := certParity(Sigma(2)).Value(prep, nil, domains, Engine{})
	if err != nil || ok {
		t.Fatalf("Σ2 game should be false: %v %v", ok, err)
	}
	// Π2: ∀κ1∃κ2 — Eve answers Adam's move.
	// Note κ1 may be "" (invalid), in which case the machine rejects for
	// every κ2, so the Π2 value is false as well. Restrict the domains to
	// exactly-one-bit strings... the domain always contains "". Instead
	// verify the dual machine: accept unless certificates are valid AND
	// parity fails.
	type st struct{ ok bool }
	lenient := &simulate.Machine{
		Name: "test:cert-parity-lenient",
		Init: func(in simulate.Input) any {
			valid := len(in.Certs) == 2 && len(in.Certs[0]) == 1 && len(in.Certs[1]) == 1
			ok := !valid || (in.Certs[0][0]^in.Certs[1][0]^in.Label[0]) == '0'
			return &st{ok: ok}
		},
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(*st).ok] },
	}
	arb := &Arbiter{Machine: lenient, Level: Pi(2), RadiusID: 1, Bound: cert.Bound{R: 1, P: cert.Polynomial{8}}}
	ok, err = arb.Value(prep, nil, domains, Engine{})
	if err != nil || !ok {
		t.Fatalf("Π2 game should be true: %v %v", ok, err)
	}
}

func TestStrategyGameValue(t *testing.T) {
	t.Parallel()
	g := graph.Path(2).MustWithLabels([]string{"0", "1"})
	id := graph.GloballyUnique(g)
	arb := certEqualsLabel(Sigma(1))
	copyLabels := Strategy(func(g *graph.Graph, _ graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		out := make(cert.Assignment, g.N())
		for u := range out {
			out[u] = g.Label(u)
		}
		return out, nil
	})
	ok, err := arb.Value(mustPrepare(t, g, id), []Strategy{copyLabels}, []cert.Domain{{}}, Engine{})
	if err != nil || !ok {
		t.Fatalf("strategy should win: %v %v", ok, err)
	}
}

// TestValueSlotContract: the move slots are checked once, before any
// strategy runs — a misconfigured game must fail with its error and
// without playing a move, even when the faulty slot is the last one.
func TestValueSlotContract(t *testing.T) {
	t.Parallel()
	g := graph.Single("1")
	prep := mustPrepare(t, g, graph.IDAssignment{""})
	var calls atomic.Int64
	eve := Strategy(func(g *graph.Graph, _ graph.IDAssignment, _ []cert.Assignment) (cert.Assignment, error) {
		calls.Add(1)
		return make(cert.Assignment, g.N()), nil
	})
	adam := cert.UniformDomain(1, 1)
	arb := certParity(Sigma(2)) // ∃κ1 ∀κ2
	for _, tt := range []struct {
		name       string
		strategies []Strategy
		domains    []cert.Domain
		want       string
	}{
		{"domain count", []Strategy{eve, nil}, []cert.Domain{{}}, "1 domains for level"},
		{"strategy count", []Strategy{eve}, []cert.Domain{{}, adam}, "1 strategies for level"},
		{"∃ without strategy", []Strategy{nil, nil}, []cert.Domain{{}, adam}, "move 1 is existential but has no strategy"},
		{"∀ with strategy", []Strategy{eve, eve}, []cert.Domain{{}, adam}, "move 2 is universal but has a strategy"},
		{"∀ with empty domain", []Strategy{eve, nil}, []cert.Domain{{}, {}}, "move 2 is universal but has no domain"},
	} {
		_, err := arb.Value(prep, tt.strategies, tt.domains, Engine{})
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: err = %v, want %q", tt.name, err, tt.want)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("strategies ran %d times before the slot check failed", n)
	}
}

func TestProductConjoinsVerdicts(t *testing.T) {
	t.Parallel()
	accept := &simulate.Machine{
		Name:   "yes",
		Init:   func(simulate.Input) any { return nil },
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(any) string { return "1" },
	}
	rejectOn0 := &simulate.Machine{
		Name: "label-not-0",
		Init: func(in simulate.Input) any { return in.Label },
		Round: func(any, int, []string) ([]string, bool) {
			return nil, true
		},
		Output: func(s any) string {
			if s.(string) == "0" {
				return "0"
			}
			return "1"
		},
	}
	prod := Product("both", nil, accept, rejectOn0)
	g := graph.Path(2).MustWithLabels([]string{"1", "0"})
	res, err := simulate.Run(prod, g, graph.GloballyUnique(g), nil, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Fatal("product should reject when a component rejects")
	}
	if res.Outputs[0] != "1" || res.Outputs[1] != "0" {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

// TestProductMessaging: component machines exchanging messages through the
// product must behave as if run alone.
func TestProductMessaging(t *testing.T) {
	t.Parallel()
	// echoNeighborLabel: accepts iff all neighbor labels equal its own.
	mk := func() *simulate.Machine {
		type st struct {
			label string
			deg   int
			ok    bool
		}
		return &simulate.Machine{
			Name: "eq",
			Init: func(in simulate.Input) any { return &st{label: in.Label, deg: in.Degree, ok: true} },
			Round: func(sv any, round int, recv []string) ([]string, bool) {
				s := sv.(*st)
				if round == 1 {
					out := make([]string, s.deg)
					for i := range out {
						out[i] = s.label
					}
					return out, false
				}
				for _, m := range recv {
					if m != s.label {
						s.ok = false
					}
				}
				return nil, true
			},
			Output: func(sv any) string { return map[bool]string{true: "1", false: "0"}[sv.(*st).ok] },
		}
	}
	g := graph.Cycle(4).MustWithLabels([]string{"1", "1", "1", "1"})
	id := graph.GloballyUnique(g)
	solo, err := simulate.Run(mk(), g, id, nil, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := simulate.Run(Product("pair", nil, mk(), mk()), g, id, nil, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Accepted() != prod.Accepted() {
		t.Fatal("product changed component behavior")
	}
	bad := graph.Cycle(4).MustWithLabels([]string{"1", "1", "0", "1"})
	prodBad, err := simulate.Run(Product("pair", nil, mk(), mk()), bad, id, nil, simulate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prodBad.Accepted() {
		t.Fatal("product must reject when components reject")
	}
}

func TestWithPrecondition(t *testing.T) {
	t.Parallel()
	always := &simulate.Machine{
		Name:   "always",
		Init:   func(simulate.Input) any { return nil },
		Round:  func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(any) string { return "1" },
	}
	evenDegree := &simulate.Machine{
		Name: "even-degree",
		Init: func(in simulate.Input) any { return in.Degree%2 == 0 },
		Round: func(any, int, []string) ([]string, bool) {
			return nil, true
		},
		Output: func(s any) string { return map[bool]string{true: "1", false: "0"}[s.(bool)] },
	}
	combined := WithPrecondition(always, evenDegree)
	cyc := graph.Cycle(4)
	path := graph.Path(3)
	okCyc, err := simulate.Decide(combined, cyc, graph.GloballyUnique(cyc), simulate.Options{})
	if err != nil || !okCyc {
		t.Fatalf("cycle should pass precondition: %v %v", okCyc, err)
	}
	okPath, err := simulate.Decide(combined, path, graph.GloballyUnique(path), simulate.Options{})
	if err != nil || okPath {
		t.Fatalf("path should fail precondition: %v %v", okPath, err)
	}
}

func TestTupleCodec(t *testing.T) {
	t.Parallel()
	parts := []string{"", "0,1", `quote"ms`}
	dec := decodeTuple(encodeTuple(parts), 3)
	for i := range parts {
		if dec[i] != parts[i] {
			t.Fatalf("tuple roundtrip: %v vs %v", dec, parts)
		}
	}
	empty := decodeTuple("", 2)
	if empty[0] != "" || empty[1] != "" {
		t.Fatal("empty tuple should decode to empty strings")
	}
}
