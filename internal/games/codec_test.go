package games

import (
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/simulate"
)

// parseNeighborSplitN is the strings.SplitN round-1 message parser the
// IndexByte codec replaced, kept verbatim as the fuzz oracle.
func parseNeighborSplitN(msg string) (neighborInfo, bool) {
	parts := strings.SplitN(msg, ",", 6)
	if len(parts) != 6 {
		return neighborInfo{}, false
	}
	return neighborInfo{
		id:       parts[0],
		y:        parts[1] == "1",
		z:        parts[2] == "1",
		x:        parts[3] == "1",
		isRoot:   parts[4] == "1",
		parentID: parts[5],
	}, true
}

// round1MsgJoin is the strings.Join round-1 message builder the append
// codec replaced, kept verbatim (over the fields it read) as the oracle
// of appendRound1.
func round1MsgJoin(id string, y, z, x, isRoot bool, parentID string) string {
	parts := []string{id, bit(y), bit(z), bit(x), bit(isRoot), parentID}
	return strings.Join(parts, ",")
}

// FuzzParseNeighbor checks parseNeighbor against parseNeighborSplitN on
// arbitrary messages, and appendRound1 against round1MsgJoin with the
// message as both identifier and parent claim.
func FuzzParseNeighbor(f *testing.F) {
	for _, seed := range []string{"", ",", "0,1,0,1,0,", "01,1,1,0,0,10", "a,b,c,d,e,f,g,h", ",,,,", "1,1,1,1,1,1,,,", ";|:"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, msg string) {
		got, gotOK := parseNeighbor(msg)
		want, wantOK := parseNeighborSplitN(msg)
		if got != want || gotOK != wantOK {
			t.Fatalf("parseNeighbor(%q) = %+v, %t; SplitN parser %+v, %t", msg, got, gotOK, want, wantOK)
		}
		for flags := 0; flags < 16; flags++ {
			s := &ptState{id: msg, parentID: msg, y: flags&1 != 0, z: flags&2 != 0, x: flags&4 != 0, isRoot: flags&8 != 0}
			var buf [msgBuf]byte
			if got, want := string(s.appendRound1(buf[:0])), round1MsgJoin(s.id, s.y, s.z, s.x, s.isRoot, s.parentID); got != want {
				t.Fatalf("appendRound1 = %q, Join builder %q", got, want)
			}
		}
	})
}

// TestRunAcceptedAllocs pins the allocation floor of one game leaf: a
// RunAccepted of the not-all-selected machine on a fixed 6-node tree
// under Eve's accepting certificates costs at most two allocations per
// node — its state and its round-1 message — once the scratch exists.
func TestRunAcceptedAllocs(t *testing.T) {
	g := graph.MustNew(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 3, V: 4}, {U: 3, V: 5}},
		[]string{"1", "1", "0", "1", "1", "1"})
	id := graph.SmallLocallyUnique(g, 1)
	prep, err := simulate.Prepare(g, id)
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := ForestStrategy(IsUnselected)(g, id, nil)
	k2 := cert.Assignment{"1", "0", "1", "1", "0", "0"}
	k3, _ := ChargeStrategy(nil)(g, id, []cert.Assignment{k1, k2})
	certs := cert.NodeLists(k1, k2, k3)
	m := NotAllSelectedArbiter().Machine
	sc := prep.NewScratch()
	if ok, err := prep.RunAccepted(m, certs, 0, sc); err != nil || !ok {
		t.Fatalf("RunAccepted = %t, %v; want an accepting run", ok, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := prep.RunAccepted(m, certs, 0, sc); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 2 * float64(g.N()); allocs > limit {
		t.Fatalf("RunAccepted allocates %.0f times per leaf, want ≤ %.0f (2 per node)", allocs, limit)
	}
}

// TestNonTwoColorableShortCerts: a node with fewer than one certificate
// (a decide-style run without certificates) rejects instead of
// panicking while splitting κ1.
func TestNonTwoColorableShortCerts(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(3)
	m := NonTwoColorableArbiter().Machine
	for _, certs := range [][][]string{nil, {{}, {}, {}}} {
		res, err := simulate.Run(m, g, graph.GloballyUnique(g), certs, simulate.Options{Sequential: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted() {
			t.Fatalf("certs %q accepted", certs)
		}
	}
}
