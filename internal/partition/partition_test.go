package partition

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"gristgo/internal/mesh"
)

// ring builds a cycle graph of n vertices.
func ring(n int) *Graph {
	adj := make([][]int32, n)
	for i := 0; i < n; i++ {
		adj[i] = []int32{int32((i + 1) % n), int32((i - 1 + n) % n)}
	}
	return NewGraph(adj)
}

// grid2d builds an w x h 4-neighbor grid graph.
func grid2d(w, h int) *Graph {
	adj := make([][]int32, w*h)
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var nb []int32
			if x > 0 {
				nb = append(nb, id(x-1, y))
			}
			if x < w-1 {
				nb = append(nb, id(x+1, y))
			}
			if y > 0 {
				nb = append(nb, id(x, y-1))
			}
			if y < h-1 {
				nb = append(nb, id(x, y+1))
			}
			adj[id(x, y)] = nb
		}
	}
	return NewGraph(adj)
}

func TestKWayIsPartition(t *testing.T) {
	g := grid2d(20, 20)
	for _, k := range []int{2, 3, 4, 7, 16} {
		part := KWay(g, k, 1)
		if len(part) != g.NumVertices() {
			t.Fatalf("k=%d: wrong length", k)
		}
		counts := make([]int, k)
		for _, p := range part {
			if p < 0 || int(p) >= k {
				t.Fatalf("k=%d: part id %d out of range", k, p)
			}
			counts[p]++
		}
		for p, c := range counts {
			if c == 0 {
				t.Errorf("k=%d: part %d is empty", k, p)
			}
		}
	}
}

func TestKWayBalance(t *testing.T) {
	g := grid2d(32, 32)
	for _, k := range []int{2, 4, 8, 16} {
		part := KWay(g, k, 7)
		if imb := g.Imbalance(part, k); imb > 1.15 {
			t.Errorf("k=%d: imbalance %.3f > 1.15", k, imb)
		}
	}
}

func TestKWayCutQuality(t *testing.T) {
	// A 32x32 grid split in 4 should have a cut near 2*32 = 64; accept
	// anything under 3x the ideal.
	g := grid2d(32, 32)
	part := KWay(g, 4, 3)
	if cut := g.EdgeCut(part); cut > 192 {
		t.Errorf("4-way cut of 32x32 grid = %d, want < 192", cut)
	}
}

func TestRingBisection(t *testing.T) {
	g := ring(64)
	part := KWay(g, 2, 5)
	// A cycle's optimal bisection cut is 2.
	if cut := g.EdgeCut(part); cut > 6 {
		t.Errorf("ring bisection cut = %d, want <= 6", cut)
	}
	if imb := g.Imbalance(part, 2); imb > 1.15 {
		t.Errorf("ring imbalance %.3f", imb)
	}
}

func TestKWayDeterministicForSeed(t *testing.T) {
	g := grid2d(16, 16)
	a := KWay(g, 4, 42)
	b := KWay(g, 4, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("KWay is not deterministic for a fixed seed")
		}
	}
}

func TestKWayPropertyRandomGraphs(t *testing.T) {
	// Property: for random connected graphs, KWay always yields a valid,
	// reasonably balanced partition.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Keep parts large enough that +-1-vertex rounding cannot
		// dominate the imbalance bound.
		n := 100 + rng.Intn(200)
		adj := make([][]int32, n)
		// Random spanning path plus random chords keeps it connected.
		for i := 1; i < n; i++ {
			j := int32(i - 1)
			adj[i] = append(adj[i], j)
			adj[j] = append(adj[j], int32(i))
		}
		for e := 0; e < n; e++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			if a == b {
				continue
			}
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		g := NewGraph(adj)
		k := 2 + rng.Intn(6)
		part := KWay(g, k, seed)
		for _, p := range part {
			if p < 0 || int(p) >= k {
				return false
			}
		}
		return g.Imbalance(part, k) < 1.6
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecomposeMesh(t *testing.T) {
	m := mesh.New(4)
	nparts := 16
	d, err := Decompose(m, nparts, 11)
	if err != nil {
		t.Fatal(err)
	}

	// Owned sets are a disjoint cover.
	total := 0
	for p := 0; p < nparts; p++ {
		total += len(d.Owned[p])
	}
	if total != m.NCells {
		t.Fatalf("owned cells cover %d of %d", total, m.NCells)
	}

	// Every halo cell of p is (a) not owned by p, (b) adjacent to an
	// owned cell of p.
	for p := 0; p < nparts; p++ {
		ownedSet := make(map[int32]bool, len(d.Owned[p]))
		for _, c := range d.Owned[p] {
			ownedSet[c] = true
		}
		for _, h := range d.Halo[p] {
			if ownedSet[h] {
				t.Fatalf("part %d: halo cell %d is owned", p, h)
			}
			adjacent := false
			for _, nb := range m.CellCells(h) {
				if ownedSet[nb] {
					adjacent = true
					break
				}
			}
			if !adjacent {
				t.Fatalf("part %d: halo cell %d not adjacent to domain", p, h)
			}
		}
	}

	// Peer lists partition the halo.
	for p := 0; p < nparts; p++ {
		n := 0
		for _, cells := range d.Peers[p] {
			n += len(cells)
		}
		if n != len(d.Halo[p]) {
			t.Fatalf("part %d: peers carry %d cells, halo %d", p, n, len(d.Halo[p]))
		}
	}
}

func TestMeshPartitionSurfaceToVolume(t *testing.T) {
	// Halo should scale like the perimeter: for G5 (10242 cells) into 16
	// parts (~640 cells each), the halo should be well under the domain
	// size.
	m := mesh.New(5)
	d, err := Decompose(m, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 16; p++ {
		if h, o := len(d.Halo[p]), len(d.Owned[p]); h > o {
			t.Errorf("part %d: halo %d exceeds owned %d", p, h, o)
		}
	}
}

// TestHaloListsHaveNoDuplicates is a regression test: a halo cell
// bordering one part through several of its owned cells must appear in
// that part's halo exactly once (duplicates silently corrupt local
// indexing in the halo exchange).
func TestHaloListsHaveNoDuplicates(t *testing.T) {
	m := mesh.New(3)
	for _, seed := range []int64{1, 2, 3, 5, 11} {
		for _, nparts := range []int{2, 3, 4, 8} {
			d, err := Decompose(m, nparts, seed)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < nparts; p++ {
				seen := map[int32]bool{}
				for _, c := range d.Halo[p] {
					if seen[c] {
						t.Fatalf("seed %d, %d parts: part %d has duplicate halo cell %d",
							seed, nparts, p, c)
					}
					seen[c] = true
				}
				for q, cells := range d.Peers[p] {
					seenQ := map[int32]bool{}
					for _, c := range cells {
						if seenQ[c] {
							t.Fatalf("duplicate %d in Peers[%d][%d]", c, p, q)
						}
						seenQ[c] = true
						if d.Part[c] != q {
							t.Fatalf("Peers[%d][%d] holds cell %d owned by %d", p, q, c, d.Part[c])
						}
					}
				}
			}
		}
	}
}

func TestHaloRings(t *testing.T) {
	m := mesh.New(3)
	d, err := Decompose(m, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		ring1 := d.HaloRings(m, p, 1)
		if len(ring1) != len(d.Halo[p]) {
			t.Fatalf("part %d: ring-1 %d != halo %d", p, len(ring1), len(d.Halo[p]))
		}
		ring2 := d.HaloRings(m, p, 2)
		if len(ring2) <= len(ring1) {
			t.Fatalf("part %d: ring-2 adds nothing", p)
		}
		// Every ring-2 cell is adjacent to the owned+ring1 set.
		set := map[int32]bool{}
		for _, c := range d.Owned[p] {
			set[c] = true
		}
		for _, c := range ring1 {
			set[c] = true
		}
		for _, c := range ring2[len(ring1):] {
			adjacent := false
			for _, nb := range m.CellCells(c) {
				if set[nb] {
					adjacent = true
					break
				}
			}
			if !adjacent {
				t.Fatalf("part %d: outer ring cell %d detached", p, c)
			}
		}
	}
}

// TestDecomposeRejectsEmptyParts is the regression test for the silent
// empty-part failure mode: asking for more parts than a tiny mesh can
// support must be a typed error, not a decomposition with zero-cell
// ranks that later wedges a distributed run.
func TestDecomposeRejectsEmptyParts(t *testing.T) {
	m := mesh.New(0) // 12 cells
	if _, err := Decompose(m, m.NCells+1, 1); !errors.Is(err, ErrEmptyParts) {
		t.Fatalf("nparts > NCells: got err %v, want ErrEmptyParts", err)
	}
	// Over-partitioning a tiny mesh: every requested count that the
	// bisection cannot fill must error rather than return empty parts.
	for nparts := 2; nparts <= m.NCells; nparts++ {
		d, err := Decompose(m, nparts, 1)
		if err != nil {
			if !errors.Is(err, ErrEmptyParts) {
				t.Fatalf("nparts=%d: unexpected error %v", nparts, err)
			}
			continue
		}
		for p := 0; p < nparts; p++ {
			if len(d.Owned[p]) == 0 {
				t.Fatalf("nparts=%d: part %d empty but Decompose returned no error", nparts, p)
			}
		}
	}
	if _, err := Decompose(m, 0, 1); err == nil {
		t.Fatal("nparts=0 accepted")
	}
}

func TestDecomposeWeightedBalancesWeight(t *testing.T) {
	m := mesh.New(3)
	// Tenfold weight on the first quarter of the cells: the weighted cut
	// must shift cells away from the heavy region.
	w := make([]int32, m.NCells)
	for c := range w {
		if c < m.NCells/4 {
			w[c] = 10
		} else {
			w[c] = 1
		}
	}
	d, err := DecomposeWeighted(m, 4, 5, w)
	if err != nil {
		t.Fatal(err)
	}
	var loads [4]int64
	total := int64(0)
	for c, p := range d.Part {
		loads[p] += int64(w[c])
		total += int64(w[c])
	}
	ideal := float64(total) / 4
	for p, l := range loads {
		if float64(l) > 1.3*ideal {
			t.Errorf("part %d carries weight %d, ideal %.0f", p, l, ideal)
		}
	}
}
