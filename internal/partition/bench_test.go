package partition

import (
	"fmt"
	"testing"

	"gristgo/internal/mesh"
)

// BenchmarkKWayG6 times the multilevel partitioner on the BFS-ordered G6
// mesh at the part counts a gristd restart builds: the 4-rank plan and
// the 48-tile tiler, both at seed 12345. `make profile-partition`
// profiles it.
func BenchmarkKWayG6(b *testing.B) {
	g := FromMesh(mesh.New(6).ReorderBFS())
	for _, nparts := range []int{4, 48} {
		b.Run(fmt.Sprintf("parts=%d", nparts), func(b *testing.B) {
			for range b.N {
				KWay(g, nparts, 12345)
			}
		})
	}
}
