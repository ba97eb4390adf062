package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSmallLocallyUnique times the identifier assignment every cold
// request pays (rid 1, as the service uses) on sparse families at
// n = 64, 256 and 1024.
func BenchmarkSmallLocallyUnique(b *testing.B) {
	for _, side := range []int{8, 16, 32} {
		n := side * side
		for _, c := range []struct {
			name string
			g    *Graph
		}{
			{"cycle", Cycle(n)},
			{"grid", Grid(side, side)},
			{"tree", RandomTree(n, rand.New(rand.NewSource(1)))},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					SmallLocallyUnique(c.g, 1)
				}
			})
		}
	}
}
