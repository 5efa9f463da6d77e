package partition

import (
	"math/rand"
	"sort"

	"gristgo/internal/mesh"
)

// KWay partitions the graph into nparts parts of near-equal vertex weight
// with small edge cut, by multilevel recursive bisection. The result maps
// each vertex to its part in [0, nparts). The seed makes the (randomized)
// matching and growing deterministic.
func KWay(g *Graph, nparts int, seed int64) []int32 {
	part := make([]int32, g.NumVertices())
	if nparts <= 1 {
		return part
	}
	rng := rand.New(rand.NewSource(seed))
	local := make([]int32, g.NumVertices())
	for i := range local {
		local[i] = -1
	}
	recursiveBisect(g, mesh.IdentityIDs(g.NumVertices()), 0, nparts, part, local, rng, new(scratch))
	return part
}

// scratch is working memory every bisection of one KWay call reuses:
// coarsen's matching and contraction arrays, refineFM's per-vertex
// state. Each user reslices what it needs and sets every entry it reads.
type scratch struct {
	match, pos []int32
	order      []int32
	members    [][2]int32
	ed, id     []int64
	nd         []int32
	boundary   []int32
	gains      []int64
	ones       []int32 // unweighted edges' weights, see Graph.row
}

// row returns v's neighbours and the weights of the edges to them, of
// equal length; an unweighted graph's weights are a run of sc.ones.
func (g *Graph) row(v int32, sc *scratch) (adj, ew []int32) {
	lo, hi := g.Xadj[v], g.Xadj[v+1]
	adj = g.Adjncy[lo:hi]
	if g.EdgeW != nil {
		return adj, g.EdgeW[lo:hi][:len(adj)]
	}
	for len(sc.ones) < len(adj) {
		sc.ones = append(sc.ones, 1)
	}
	return adj, sc.ones[:len(adj)]
}

// grow returns buf resliced to n entries, reallocated when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// recursiveBisect splits the induced subgraph over verts into parts
// [base, base+nparts), writing assignments into part. local is induced's
// renumbering array: one entry per vertex of g, all -1 between calls.
func recursiveBisect(g *Graph, verts []int32, base int32, nparts int, part, local []int32, rng *rand.Rand, sc *scratch) {
	if nparts == 1 {
		for _, v := range verts {
			part[v] = base
		}
		return
	}
	leftParts := nparts / 2
	rightParts := nparts - leftParts
	// Split vertex weight proportionally to the part counts.
	sub := induced(g, verts, local)
	side := bisect(sub, float64(leftParts)/float64(nparts), rng, sc)
	nleft := 0
	for _, sd := range side {
		if sd == 0 {
			nleft++
		}
	}
	left := make([]int32, 0, nleft)
	right := make([]int32, 0, len(verts)-nleft)
	for i, v := range verts {
		if side[i] == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	recursiveBisect(g, left, base, leftParts, part, local, rng, sc)
	recursiveBisect(g, right, base+int32(leftParts), rightParts, part, local, rng, sc)
}

// induced extracts the subgraph over verts (renumbered 0..len-1),
// dropping edges that leave the subset. local maps a vertex of g to its
// new number (-1 outside verts); induced fills it and clears it again.
// A nil weight slice of g stays nil (all 1) in the subgraph.
func induced(g *Graph, verts, local []int32) *Graph {
	deg := 0
	for i, v := range verts {
		local[v] = int32(i)
		deg += int(g.Xadj[v+1] - g.Xadj[v])
	}
	sub := &Graph{Xadj: make([]int32, len(verts)+1), Adjncy: make([]int32, 0, deg)}
	if g.EdgeW != nil {
		sub.EdgeW = make([]int32, 0, deg)
	}
	if g.VertW != nil {
		sub.VertW = make([]int32, len(verts))
		for i, v := range verts {
			sub.VertW[i] = g.VertW[v]
		}
	}
	for i, v := range verts {
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			if lu := local[g.Adjncy[k]]; lu >= 0 {
				sub.Adjncy = append(sub.Adjncy, lu)
				if g.EdgeW != nil {
					sub.EdgeW = append(sub.EdgeW, g.EdgeW[k])
				}
			}
		}
		sub.Xadj[i+1] = int32(len(sub.Adjncy))
	}
	for _, v := range verts {
		local[v] = -1
	}
	return sub
}

// coarse holds one level of the multilevel hierarchy.
type coarse struct {
	g     *Graph
	cmap  []int32 // fine vertex -> coarse vertex
	finer *coarse
}

// bisect partitions g into two sides with the given target weight
// fraction on side 0, using multilevel coarsening + greedy growing + FM
// refinement. It returns a 0/1 side per vertex.
func bisect(g *Graph, frac float64, rng *rand.Rand, sc *scratch) []int8 {
	// Build the coarsening hierarchy.
	level := &coarse{g: g}
	for level.g.NumVertices() > 64 {
		next := coarsen(level.g, rng, sc)
		if next.g.NumVertices() >= level.g.NumVertices() {
			break // matching stalled (e.g. star graphs)
		}
		next.finer = level
		level = next
	}

	side := growBisection(level.g, frac, rng)
	refineFM(level.g, side, frac, 8, sc)

	// Uncoarsen with refinement at each level.
	for level.finer != nil {
		finer := level.finer
		fineSide := make([]int8, finer.g.NumVertices())
		for v := range fineSide {
			fineSide[v] = side[level.cmap[v]]
		}
		side = fineSide
		refineFM(finer.g, side, frac, 8, sc)
		level = finer
	}
	return side
}

// coarsen contracts a heavy-edge matching of g.
func coarsen(g *Graph, rng *rand.Rand, sc *scratch) *coarse {
	n := g.NumVertices()
	sc.match = grow(sc.match, n)
	match := sc.match
	for i := range match {
		match[i] = -1
	}
	// rng.Perm's permutation and draws, into reused int32 memory.
	sc.order = grow(sc.order, n)
	order := sc.order
	for i := range order {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], int32(i)
	}
	var nc int32
	cmap := make([]int32, n)
	members := sc.members[:0] // per coarse vertex: its fine vertices, ascending (-1: none)
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		// Heaviest unmatched neighbor; on an unweighted level every edge
		// weighs 1, so the first unmatched one.
		best, bestW := int32(-1), int32(-1)
		if g.EdgeW == nil {
			for _, u := range g.Adjncy[g.Xadj[v]:g.Xadj[v+1]] {
				if u != v && match[u] < 0 {
					best = u
					break
				}
			}
		} else {
			adj, ew := g.row(v, sc)
			for j, u := range adj {
				if u != v && match[u] < 0 && ew[j] > bestW {
					best, bestW = u, ew[j]
				}
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
			cmap[v] = nc
			cmap[best] = nc
			members = append(members, [2]int32{min(v, best), max(v, best)})
		} else {
			match[v] = v
			cmap[v] = nc
			members = append(members, [2]int32{v, -1})
		}
		nc++
	}

	// Build the contracted graph with summed weights, one CSR row per
	// coarse vertex: its fine vertices in ascending order, their coarse
	// neighbors in first-seen order. pos marks where a neighbor already
	// sits in the current row. Rows never hold more than the fine graph's
	// adjacency, so they are written in place.
	vertw := make([]int32, nc)
	xadj := make([]int32, nc+1)
	adjncy := make([]int32, len(g.Adjncy))
	edgew := make([]int32, len(g.Adjncy))
	sc.members = members
	sc.pos = grow(sc.pos, int(nc))
	pos := sc.pos
	for i := range pos {
		pos[i] = -1
	}
	var m int32
	for cv := int32(0); cv < nc; cv++ {
		start := m
		for _, v := range members[cv] {
			if v < 0 {
				continue
			}
			vertw[cv] += g.vertWeight(v)
			adj, ew := g.row(v, sc)
			for j, u := range adj {
				cu := cmap[u]
				if cu == cv {
					continue
				}
				if p := pos[cu]; p >= start {
					edgew[p] += ew[j]
					continue
				}
				pos[cu] = m
				adjncy[m], edgew[m] = cu, ew[j]
				m++
			}
		}
		xadj[cv+1] = m
	}
	return &coarse{
		g:    &Graph{Xadj: xadj, Adjncy: adjncy[:m], EdgeW: edgew[:m], VertW: vertw},
		cmap: cmap,
	}
}

// growBisection seeds a region at a random vertex and grows it by BFS
// until it holds the target weight fraction.
func growBisection(g *Graph, frac float64, rng *rand.Rand) []int8 {
	n := g.NumVertices()
	side := make([]int8, n)
	for i := range side {
		side[i] = 1
	}
	target := int64(frac * float64(g.TotalVertWeight()))
	if n == 0 {
		return side
	}
	var bestSide []int8
	bestCut := int64(-1)
	// A few random restarts keep the greedy pass from a bad seed.
	for try := 0; try < 4; try++ {
		s := make([]int8, n)
		for i := range s {
			s[i] = 1
		}
		seed := int32(rng.Intn(n))
		var grown int64
		queue := []int32{seed}
		inQueue := make([]bool, n)
		inQueue[seed] = true
		for len(queue) > 0 && grown < target {
			v := queue[0]
			queue = queue[1:]
			if s[v] == 0 {
				continue
			}
			s[v] = 0
			grown += int64(g.vertWeight(v))
			for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
				u := g.Adjncy[k]
				if s[u] == 1 && !inQueue[u] {
					inQueue[u] = true
					queue = append(queue, u)
				}
			}
		}
		cut := edgeCut2(g, s)
		if bestCut < 0 || cut < bestCut {
			bestCut, bestSide = cut, s
		}
	}
	copy(side, bestSide)
	return side
}

func edgeCut2(g *Graph, side []int8) int64 {
	var cut int64
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			if side[g.Adjncy[k]] != side[v] {
				cut += int64(g.edgeWeight(k))
			}
		}
	}
	return cut / 2
}

// refineFM runs Fiduccia–Mattheyses-style passes: repeatedly move the
// boundary vertex with the best gain that keeps balance within tolerance,
// accepting the best prefix of moves in each pass.
//
// As in METIS, every vertex carries its external and internal edge
// weight (ed, id: the weight to the other side and to its own) and its
// count of other-side neighbours (nd, so "on the boundary" is nd > 0
// whatever the weights); a move updates the three for the vertex and
// its neighbours, so a gain is ed - id instead of an adjacency walk, and
// a pass finds the boundary without reading adjacency at all.
func refineFM(g *Graph, side []int8, frac float64, maxPasses int, sc *scratch) {
	n := g.NumVertices()
	total := g.TotalVertWeight()
	target0 := int64(frac * float64(total))
	// Tight tolerance: 1% of total weight or the heaviest vertex,
	// whichever is larger (a single vertex must always be movable).
	var maxVW int64 = 1
	if g.VertW != nil {
		for _, w := range g.VertW {
			if int64(w) > maxVW {
				maxVW = int64(w)
			}
		}
	}
	tol := total/100 + 1
	if maxVW > tol {
		tol = maxVW
	}

	weight0 := int64(0)
	sc.ed, sc.id, sc.nd = grow(sc.ed, n), grow(sc.id, n), grow(sc.nd, n)
	ed, id, nd := sc.ed, sc.id, sc.nd
	for v := int32(0); v < int32(n); v++ {
		if side[v] == 0 {
			weight0 += int64(g.vertWeight(v))
		}
		var e, i int64
		var c int32
		adj, ew := g.row(v, sc)
		for j, u := range adj {
			if side[u] != side[v] {
				e += int64(ew[j])
				c++
			} else {
				i += int64(ew[j])
			}
		}
		ed[v], id[v], nd[v] = e, i, c
	}
	move := func(v int32) {
		from := side[v]
		side[v] = 1 - from
		ed[v], id[v] = id[v], ed[v]
		nd[v] = g.Degree(v) - nd[v]
		adj, ew := g.row(v, sc)
		for j, u := range adj {
			w := int64(ew[j])
			switch {
			case u == v: // a self-loop is internal on either side
				ed[v], id[v], nd[v] = ed[v]-w, id[v]+w, nd[v]-1
			case side[u] == from:
				ed[u], id[u], nd[u] = ed[u]+w, id[u]-w, nd[u]+1
			default:
				ed[u], id[u], nd[u] = ed[u]-w, id[u]+w, nd[u]-1
			}
		}
	}

	// Rebalance first: while one side is too heavy, move the
	// least-damaging boundary vertex off it, regardless of gain sign.
	for iter := 0; iter < n; iter++ {
		var heavy int8
		if weight0 > target0+tol {
			heavy = 0
		} else if weight0 < target0-tol {
			heavy = 1
		} else {
			break
		}
		best, bestGain := int32(-1), int64(-1<<62)
		for v := int32(0); v < int32(n); v++ {
			if side[v] != heavy || nd[v] == 0 {
				continue
			}
			if gv := ed[v] - id[v]; gv > bestGain {
				best, bestGain = v, gv
			}
		}
		if best < 0 {
			break
		}
		w := int64(g.vertWeight(best))
		if heavy == 0 {
			weight0 -= w
		} else {
			weight0 += w
		}
		move(best)
	}

	boundary, gains := sc.boundary, sc.gains
	defer func() { sc.boundary, sc.gains = boundary, gains }()
	for pass := 0; pass < maxPasses; pass++ {
		// Collect boundary vertices (ascending) sorted by gain.
		boundary, gains = boundary[:0], gains[:0]
		for v := int32(0); v < int32(n); v++ {
			if nd[v] > 0 {
				boundary = append(boundary, v)
				gains = append(gains, ed[v]-id[v])
			}
		}
		if len(boundary) == 0 {
			return
		}
		sort.Sort(byGainDesc{boundary, gains})
		improved := false
		for _, v := range boundary {
			if ed[v]-id[v] <= 0 {
				break
			}
			w := int64(g.vertWeight(v))
			var newW0 int64
			if side[v] == 0 {
				newW0 = weight0 - w
			} else {
				newW0 = weight0 + w
			}
			if newW0 < target0-tol || newW0 > target0+tol {
				continue
			}
			move(v)
			weight0 = newW0
			improved = true
		}
		if !improved {
			return
		}
	}
}

// byGainDesc sorts vertex ids by descending gain, each gain computed once
// and moved with its id. Gains tie often and pdqsort is not stable, so
// the part maps TestDecomposePinned holds depend on sort.Sort's pdqsort
// (the one sort.Slice also runs) ordering the ties.
type byGainDesc struct {
	ids   []int32
	gains []int64
}

func (s byGainDesc) Len() int           { return len(s.ids) }
func (s byGainDesc) Less(i, j int) bool { return s.gains[i] > s.gains[j] }
func (s byGainDesc) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.gains[i], s.gains[j] = s.gains[j], s.gains[i]
}
