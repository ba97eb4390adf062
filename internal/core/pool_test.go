package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

// recordingMatcher accepts at a node iff its inner certificate equals
// its outer certificate, and records every (node, outer, inner) triple
// it is ever shown. The record is the detector: the engine's pooled
// per-worker buffers (the search.NewScratch suffix rows in evalLevel
// and the leafScratch certificate lists) are reused across choices, so
// a stale assignment-prefix byte surviving a reuse would surface here
// as a triple the lexicographic enumeration never generates — or as a
// missing one.
func recordingMatcher(rec *sync.Map, inits *atomic.Int64) *simulate.Machine {
	return &simulate.Machine{
		Name: "test:recording-matcher",
		Init: func(in simulate.Input) any {
			inits.Add(1)
			rec.Store(in.ID+"|"+in.Certs[0]+"|"+in.Certs[1], true)
			return in.Certs[1] == in.Certs[0]
		},
		Round: func(any, int, []string) ([]string, bool) { return nil, true },
		Output: func(state any) string {
			if state.(bool) {
				return "1"
			}
			return "0"
		},
	}
}

// TestPooledLeafPrefixIsolation is the -race regression test for the
// pooled leaf buffers: a Π2 (∀κ1 ∃κ2) game whose inner search succeeds
// only at κ2 = κ1 forces the outer universal level to fan out across
// workers while every worker's inner level walks a deterministic
// lexicographic prefix of the domain. Because the outer ∀ succeeds, the
// set of leaves evaluated is scheduling-independent, so the parallel
// pooled run must observe exactly the (node, outer, inner) triples and
// exactly the leaf count of the sequential pooled run. Run under
// -race (make check does), this fails loudly if buffer reuse ever
// bleeds assignment-prefix bytes across workers or across choices.
func TestPooledLeafPrefixIsolation(t *testing.T) {
	t.Parallel()
	g := graph.Path(4)
	prep, err := simulate.Prepare(g, graph.GloballyUnique(g))
	if err != nil {
		t.Fatal(err)
	}
	domains := []cert.Domain{cert.UniformDomain(4, 1), cert.UniformDomain(4, 1)}
	run := func(eng Engine) (map[string]bool, int64) {
		var rec sync.Map
		var inits atomic.Int64
		arb := &Arbiter{Machine: recordingMatcher(&rec, &inits), Level: Pi(2), RadiusID: 1}
		ok, err := arb.Value(prep, nil, domains, eng)
		if err != nil || !ok {
			t.Fatalf("∀κ1 ∃κ2=κ1 game: (%v, %v), want (true, nil)", ok, err)
		}
		seen := make(map[string]bool)
		rec.Range(func(k, _ any) bool {
			seen[k.(string)] = true
			return true
		})
		return seen, inits.Load()
	}
	// NoSymmetry pins determinism explicitly (unique ids already admit no
	// automorphisms); pooling is on in both configurations — the engine
	// under test — and only the worker count differs.
	seqSeen, seqInits := run(Engine{Opts: search.Sequential(), NoSymmetry: true})
	parSeen, parInits := run(Engine{Opts: search.Parallel(4), NoSymmetry: true})
	if parInits != seqInits {
		t.Errorf("parallel pooled run executed %d node inits, sequential %d", parInits, seqInits)
	}
	if len(parSeen) != len(seqSeen) {
		t.Errorf("parallel observed %d distinct (node, outer, inner) triples, sequential %d", len(parSeen), len(seqSeen))
	}
	for k := range seqSeen {
		if !parSeen[k] {
			t.Errorf("triple %q seen sequentially but not in the parallel pooled run", k)
		}
	}
	for k := range parSeen {
		if !seqSeen[k] {
			t.Errorf("triple %q fabricated by the parallel pooled run", k)
		}
	}
}
