package games

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simulate"
)

// transcriptDigest pins the SHA-256 of every message, output and bit
// count the six PointsTo-family machines (and the charge strategies that
// feed them) produce over the corpus below. Any codec change that moves
// a single message byte — and so the Lemma 13 RecvBits/SentBits counts —
// changes it.
const transcriptDigest = "a046fa63c4c2d2c3df2eb9c83f2ac859b839d4b70b94b7eb1f44d61742384485"

// TestMachineTranscript runs the PointsTo, PointsToUnique, Hamiltonian,
// Acyclic, Odd and Non-2-colorable machines through simulate.Run on
// paths, stars, cycles and seeded random trees (n = 2..7) under seeded
// random κ1/κ2/κ3 drawn from each machine's certificate shape —
// malformed values included — and under Eve's own strategy moves, and
// compares the digest of the whole transcript with transcriptDigest.
// Each execution is replayed on Prepared.RunAccepted, whose verdict must
// agree with Run's.
func TestMachineTranscript(t *testing.T) {
	t.Parallel()
	h := sha256.New()
	for _, tg := range transcriptGraphs() {
		for _, tm := range transcriptMachines() {
			tm.record(t, h, tg)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != transcriptDigest {
		t.Fatalf("transcript digest %s, want %s", got, transcriptDigest)
	}
}

type transcriptGraph struct {
	name string
	g    *graph.Graph
	id   graph.IDAssignment
	rng  *rand.Rand
}

// transcriptGraphs is the corpus: every topology gets a seeded random
// bit labeling and, besides its globally unique identifiers, one copy
// under identifiers drawn from the codec's own separator alphabet, so
// that ids holding ',' ';' '|' or ':' reach the parsers.
func transcriptGraphs() []transcriptGraph {
	rng := rand.New(rand.NewSource(17))
	var gs []*graph.Graph
	var names []string
	add := func(name string, g *graph.Graph) {
		names = append(names, name)
		gs = append(gs, g)
	}
	for n := 2; n <= 7; n++ {
		add(fmt.Sprintf("path%d", n), graph.Path(n))
		add(fmt.Sprintf("star%d", n), graph.Star(n))
		if n >= 3 {
			add(fmt.Sprintf("cycle%d", n), graph.Cycle(n))
		}
		for k := 0; k < 3; k++ {
			add(fmt.Sprintf("tree%d.%d", n, k), graph.RandomTree(n, rng))
		}
	}
	var out []transcriptGraph
	for i, g := range gs {
		g = g.MustWithLabels(graph.BitLabels(g.N(), uint(rng.Intn(1<<g.N()))))
		out = append(out, transcriptGraph{names[i], g, graph.GloballyUnique(g), rand.New(rand.NewSource(int64(i)))})
		weird := make(graph.IDAssignment, g.N())
		for u := range weird {
			weird[u] = junk(rng, 3)
		}
		out = append(out, transcriptGraph{names[i] + "/weird", g, weird, rand.New(rand.NewSource(int64(1000 + i)))})
	}
	return out
}

// junk draws a string of up to max bytes over the bits and the codec's
// separators.
func junk(rng *rand.Rand, max int) string {
	const alphabet = "0101,;|:"
	b := make([]byte, rng.Intn(max+1))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func pick(rng *rand.Rand, xs ...string) string { return xs[rng.Intn(len(xs))] }

// pointer draws a κ1 parent pointer for u: mostly well formed ("0" or
// "1" + a neighbor's id), sometimes pointing at a non-neighbor, empty,
// or junk.
func pointer(rng *rand.Rand, tg transcriptGraph, u int) string {
	nbs := tg.g.Neighbors(u)
	switch r := rng.Intn(10); {
	case r < 3:
		return "0"
	case r < 7 && len(nbs) > 0:
		return "1" + tg.id[nbs[rng.Intn(len(nbs))]]
	case r < 8:
		return "1" + tg.id[rng.Intn(tg.g.N())]
	case r < 9:
		return "1" + junk(rng, 3)
	default:
		return pick(rng, "", "1", "2", "x", "01")
	}
}

type transcriptMachine struct {
	arb   *core.Arbiter
	kappa func(rng *rand.Rand, tg transcriptGraph, u int) string // κ1
	move1 core.Strategy
	move3 core.Strategy
	// full restricts the random batch to three-certificate lists, so the
	// digest does not depend on how the machine treats a missing
	// certificate.
	full bool
}

func transcriptMachines() []transcriptMachine {
	return []transcriptMachine{
		{NotAllSelectedArbiter(), pointer, ForestStrategy(IsUnselected), ChargeStrategy(nil), false},
		{OneSelectedArbiter(), pointer, ForestStrategy(IsSelected), ChargeStrategy(IsSelected), false},
		{HamiltonianArbiter(), pointer, HamiltonianStrategy(), RootChargeStrategy(), false},
		{AcyclicArbiter(), pointer, AcyclicStrategy(), RootChargeStrategy(), false},
		{OddArbiter(), oddKappa, OddStrategy(), oddChargeStrategy(), false},
		{NonTwoColorableArbiter(), cycleKappa, NonTwoColorableStrategy(), NonTwoColorChargeStrategy(), true},
	}
}

// oddKappa draws an Odd κ1: <pointer>:<parity>, or a malformed split.
func oddKappa(rng *rand.Rand, tg transcriptGraph, u int) string {
	p := pointer(rng, tg, u)
	switch rng.Intn(8) {
	case 0:
		return p
	case 1:
		return p + ":" + pick(rng, "", "2", "01", ":1")
	default:
		return p + ":" + pick(rng, "0", "1")
	}
}

// cycleKappa draws a Non-2-colorable κ1:
// <pointer>|<onCycle>|<predID>|<parity>, or a wrong field count.
func cycleKappa(rng *rand.Rand, tg transcriptGraph, u int) string {
	pred := ""
	if nbs := tg.g.Neighbors(u); len(nbs) > 0 && rng.Intn(4) > 0 {
		pred = tg.id[nbs[rng.Intn(len(nbs))]]
	} else if rng.Intn(2) == 0 {
		pred = junk(rng, 2)
	}
	k := pointer(rng, tg, u) + "|" + pick(rng, "0", "1", "1") + "|" + pred + "|" + pick(rng, "0", "1")
	switch rng.Intn(10) {
	case 0:
		return k + "|1"
	case 1:
		return k[:strings.LastIndexByte(k, '|')]
	}
	return k
}

func challenge(rng *rand.Rand) string {
	if rng.Intn(8) == 0 {
		return pick(rng, "", "11", "x")
	}
	return pick(rng, "0", "1")
}

func charge(rng *rand.Rand) string {
	if rng.Intn(6) == 0 {
		return pick(rng, "", "1", "111", "0x", "2")
	}
	return pick(rng, "00", "01", "10", "11")
}

// record writes tm's transcripts on tg to h: a batch of random
// certificate lists (unless tm.full, some of the wrong length and one
// nil) and a batch of strategy-driven plays where Eve's κ1 and κ3 come
// from her strategies and Adam's κ2 is random.
func (tm transcriptMachine) record(t *testing.T, h hash.Hash, tg transcriptGraph) {
	n := tg.g.N()
	rng := tg.rng
	fmt.Fprintf(h, "== %s %s ids=%q labels=%q\n", tm.arb.Machine.Name, tg.name, tg.id, tg.g.Labels())
	for trial := 0; trial < 8; trial++ {
		var certs [][]string
		if trial > 0 || tm.full {
			certs = make([][]string, n)
			for u := range certs {
				k := []string{tm.kappa(rng, tg, u), challenge(rng), charge(rng)}
				if rng.Intn(12) == 0 && !tm.full {
					k = k[:rng.Intn(3)]
				}
				certs[u] = k
			}
		}
		tm.run(t, h, tg, certs)
	}
	for trial := 0; trial < 4; trial++ {
		k1, err := tm.move1(tg.g, tg.id, nil)
		if err != nil {
			t.Fatal(err)
		}
		k2 := make(cert.Assignment, n)
		for u := range k2 {
			k2[u] = challenge(rng)
		}
		if trial == 0 {
			// A stray κ1 on one node: Eve's charge reply to a malformed
			// or redirected pointer.
			k1 = append(cert.Assignment(nil), k1...)
			u := rng.Intn(n)
			k1[u] = tm.kappa(rng, tg, u)
		}
		k3, err := tm.move3(tg.g, tg.id, []cert.Assignment{k1, k2})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "moves k1=%q k2=%q k3=%q\n", k1, k2, k3)
		tm.run(t, h, tg, cert.NodeLists(k1, k2, k3))
	}
}

// tapState wraps a machine's per-node state with the node index so the
// tapped Round can label what it records.
type tapState struct {
	node  int
	inner any
}

// run executes tm's machine on certs with a tap on Round that records
// every round's sent messages, then the outputs and bit counts.
func (tm transcriptMachine) run(t *testing.T, h hash.Hash, tg transcriptGraph, certs [][]string) {
	m := tm.arb.Machine
	tapped := &simulate.Machine{
		Name: m.Name,
		Init: func(in simulate.Input) any { return &tapState{in.Node, m.Init(in)} },
		Round: func(st any, round int, recv []string) ([]string, bool) {
			ts := st.(*tapState)
			out, halt := m.Round(ts.inner, round, recv)
			fmt.Fprintf(h, "r%d u%d halt=%t send=%q\n", round, ts.node, halt, out)
			return out, halt
		},
		Output: func(st any) string { return m.Output(st.(*tapState).inner) },
	}
	fmt.Fprintf(h, "certs=%q\n", certs)
	prep, err := simulate.Prepare(tg.g, tg.id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Run(tapped, certs, simulate.Options{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "out=%q rounds=%d recv=%v sent=%v\n", res.Outputs, res.Rounds, res.RecvBits, res.SentBits)
	acc, err := prep.RunAccepted(m, certs, 0, prep.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if acc != res.Accepted() {
		t.Fatalf("%s on %s, certs %q: RunAccepted %t, Run accepted %t", m.Name, tg.name, certs, acc, res.Accepted())
	}
}
