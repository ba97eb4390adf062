package service

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

// verifyOracleGraphs is the instance set of TestVerifyMatchesReference:
// labelled paths, labelled stars and seeded random trees on 2..6 nodes,
// and cycles on 3..6 nodes. Labels are single bits, so the selection
// games (hamiltonian, not-all-selected, one-selected) see both verdicts.
func verifyOracleGraphs() []*graph.Graph {
	rng := rand.New(rand.NewSource(15))
	var gs []*graph.Graph
	for n := 2; n <= 6; n++ {
		gs = append(gs,
			graph.Path(n).MustWithLabels(graph.BitLabels(n, uint(n)%(1<<uint(n)))),
			graph.Star(n).MustWithLabels(graph.BitLabels(n, 1<<uint(n)-2)),
			graph.RandomTree(n, rng).MustWithLabels(graph.BitLabels(n, uint(rng.Intn(1<<uint(n))))),
		)
	}
	for n := 3; n <= 6; n++ {
		gs = append(gs, graph.Cycle(n).MustWithLabels(graph.AllSelectedLabels(n)))
	}
	return gs
}

// TestVerifyMatchesReference is the oracle of the production verify
// path: for every catalog verifier on every instance, the strategy game
// under each engine configuration the server can run (default,
// sequential, pooled, and with the packed and pooled-leaf layers off)
// must equal core.Reference(), and VerifyMemo through one shared memo
// must equal it both cold and warm, the warm pass answering from the
// table.
func TestVerifyMatchesReference(t *testing.T) {
	t.Parallel()
	engines := []struct {
		name string
		eng  core.Engine
	}{
		{"default", core.Engine{}},
		{"sequential", core.Engine{Opts: search.Sequential()}},
		{"parallel(2)", core.Engine{Opts: search.Parallel(2)}},
		{"no-bitset", core.Engine{NoBitset: true}},
		{"no-pool", core.Engine{NoPool: true}},
	}
	type instance struct {
		label string
		prep  *simulate.Prepared
		name  string
		want  bool
	}
	names := VerifyNames()
	var instances []instance
	trues := 0
	for gi, g := range verifyOracleGraphs() {
		prep, err := Prepare(g)
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		for _, name := range names {
			v := verifiers()[name]
			label := fmt.Sprintf("%s on graph %d (%v)", name, gi, g)
			want, err := v.arb().Value(prep, v.strategies(), v.domains(g), core.Reference())
			if err != nil {
				t.Fatalf("%s reference: %v", label, err)
			}
			if want {
				trues++
			}
			for _, e := range engines {
				got, err := v.arb().Value(prep, v.strategies(), v.domains(g), e.eng)
				if err != nil {
					t.Fatalf("%s %s: %v", label, e.name, err)
				}
				if got != want {
					t.Errorf("%s %s = %v, reference %v", label, e.name, got, want)
				}
			}
			instances = append(instances, instance{label, prep, name, want})
		}
	}
	if trues == 0 || trues == len(instances) {
		t.Fatalf("%d of %d instances true: the oracle needs both verdicts", trues, len(instances))
	}

	m := core.NewMemo(0)
	for _, pass := range []string{"cold", "warm"} {
		for _, in := range instances {
			before := m.Stats().Hits
			got, err := VerifyMemo(in.prep, in.name, search.Options{}, m)
			if err != nil {
				t.Fatalf("%s VerifyMemo %s: %v", in.label, pass, err)
			}
			if got != in.want {
				t.Errorf("%s VerifyMemo %s = %v, reference %v", in.label, pass, got, in.want)
			}
			if pass == "warm" && m.Stats().Hits == before {
				t.Errorf("%s VerifyMemo warm: no memo hit", in.label)
			}
		}
	}
}

// TestMachineNamesDistinct checks the assumption the memo keys rest on:
// a machine's Name stands in for its semantics (and "verify/<name>"
// salts pin the strategies), so every catalog machine must carry a
// non-empty Name no other catalog machine shares.
func TestMachineNamesDistinct(t *testing.T) {
	t.Parallel()
	owner := make(map[string]string)
	claim := func(entry, name string) {
		if name == "" {
			t.Errorf("%s: empty machine name", entry)
			return
		}
		if prev, ok := owner[name]; ok {
			t.Errorf("machine name %q shared by %s and %s", name, prev, entry)
			return
		}
		owner[name] = entry
	}
	for _, name := range sortedKeys(decideMachines()) {
		claim("decide/"+name, decideMachines()[name].Name)
	}
	for _, name := range VerifyNames() {
		claim("verify/"+name, verifiers()[name].arb().Machine.Name)
	}
}
