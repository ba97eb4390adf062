package graph

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// IDAssignment maps each node index to its identifier, a bit string.
// Identifiers are compared in the paper's identifier order (CompareID).
type IDAssignment []string

// CompareID compares two identifiers in the identifier order of Section 3:
// a < b if a is a proper prefix of b, or if a has the smaller bit at the
// first position where they differ. It returns -1, 0, or +1.
//
// This order coincides with Go's built-in string comparison on bit strings,
// but we keep an explicit implementation to document the contract.
func CompareID(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// IsLocallyUnique reports whether id is rid-locally unique on g: any two
// distinct nodes that lie in the rid-neighborhood of a common node (i.e.
// within distance 2*rid of each other) have distinct identifiers.
func (id IDAssignment) IsLocallyUnique(g *Graph, rid int) bool {
	if len(id) != g.N() {
		return false
	}
	var w ballWalk
	for u := 0; u < g.N(); u++ {
		for _, v := range g.walk(&w, u, 2*rid) {
			if v != u && id[u] == id[v] {
				return false
			}
		}
	}
	return true
}

// IsSmall reports whether the rid-locally unique identifier assignment is
// "small" in the sense of Section 3: len(id(u)) <= ceil(log2 card(N^G_{2rid}(u)))
// for every node u (with a minimum of 1 bit when the neighborhood has a
// single node, since the empty string is allowed there too; we accept both).
func (id IDAssignment) IsSmall(g *Graph, rid int) bool {
	var w ballWalk
	for u := 0; u < g.N(); u++ {
		card := len(g.walk(&w, u, 2*rid))
		if len(id[u]) > ceilLog2(card) {
			return false
		}
	}
	return true
}

func ceilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// SmallLocallyUnique constructs an rid-locally unique identifier assignment
// of g that is small (Remark 3). It greedily assigns each node the smallest
// value not used within distance 2*rid among already-assigned nodes, then
// encodes the value in ceil(log2 card(N_{2rid}(u))) bits (at least 1 bit
// when the value is 0 but the neighborhood has more than one node).
//
// Each node's step reads only its 2*rid-ball, walked once, so the whole
// assignment costs O(n·|ball|·deg).
func SmallLocallyUnique(g *Graph, rid int) IDAssignment {
	n := g.N()
	val := make([]int, n)
	for u := 0; u < n; u++ {
		val[u] = -1
	}
	id := make(IDAssignment, n)
	var w ballWalk
	var used []bool
	for u := 0; u < n; u++ {
		ball := g.walk(&w, u, 2*rid)
		card := len(ball)
		// At most card-1 other ball members hold a value, so the smallest
		// free value is below card and larger values cannot block it.
		used = append(used[:0], make([]bool, card)...)
		for _, v := range ball {
			if x := val[v]; x >= 0 && x < card {
				used[x] = true
			}
		}
		x := 0
		for x < card && used[x] {
			x++
		}
		val[u] = x
		width := ceilLog2(card)
		if width == 0 {
			id[u] = "" // single node within radius: empty identifier suffices
			continue
		}
		id[u] = fixedWidthBits(x, width)
	}
	return id
}

// GloballyUnique constructs a globally unique identifier assignment where
// node u gets the binary representation of u, all padded to equal width.
func GloballyUnique(g *Graph) IDAssignment {
	n := g.N()
	width := ceilLog2(n)
	if width == 0 {
		width = 1
	}
	id := make(IDAssignment, n)
	for u := 0; u < n; u++ {
		id[u] = fixedWidthBits(u, width)
	}
	return id
}

// CyclicIDs assigns identifiers 0..period-1 cyclically around node indices,
// each encoded with the same fixed width. This is the assignment used in
// the pumping argument of Proposition 26 on cycle graphs: it is rid-locally
// unique on a cycle whenever period >= 2*rid+1 (consecutive indices are
// adjacent on the cycle).
func CyclicIDs(n, period int) IDAssignment {
	width := ceilLog2(period)
	if width == 0 {
		width = 1
	}
	id := make(IDAssignment, n)
	for u := 0; u < n; u++ {
		id[u] = fixedWidthBits(u%period, width)
	}
	return id
}

func fixedWidthBits(x, width int) string {
	var buf [65]byte
	s := strconv.AppendInt(buf[:0], int64(x), 2)
	if len(s) > width {
		panic(fmt.Sprintf("graph: value %d does not fit in %d bits", x, width))
	}
	var b strings.Builder
	b.Grow(width)
	for i := len(s); i < width; i++ {
		b.WriteByte('0')
	}
	b.Write(s)
	return b.String()
}

// SortByID returns the given node indices sorted in ascending identifier
// order. It does not modify its input.
func (id IDAssignment) SortByID(nodes []int) []int {
	out := append([]int(nil), nodes...)
	// Insertion sort: neighbor lists are short.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && CompareID(id[out[j]], id[out[j-1]]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
