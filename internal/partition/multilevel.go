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
	recursiveBisect(g, mesh.IdentityIDs(g.NumVertices()), 0, nparts, part, rng)
	return part
}

// recursiveBisect splits the induced subgraph over verts into parts
// [base, base+nparts), writing assignments into part.
func recursiveBisect(g *Graph, verts []int32, base int32, nparts int, part []int32, rng *rand.Rand) {
	if nparts == 1 {
		for _, v := range verts {
			part[v] = base
		}
		return
	}
	leftParts := nparts / 2
	rightParts := nparts - leftParts
	// Split vertex weight proportionally to the part counts.
	sub := induced(g, verts)
	side := bisect(sub, float64(leftParts)/float64(nparts), rng)
	var left, right []int32
	for i, v := range verts {
		if side[i] == 0 {
			left = append(left, v)
		} else {
			right = append(right, v)
		}
	}
	recursiveBisect(g, left, base, leftParts, part, rng)
	recursiveBisect(g, right, base+int32(leftParts), rightParts, part, rng)
}

// induced extracts the subgraph over verts (renumbered 0..len-1),
// dropping edges that leave the subset.
func induced(g *Graph, verts []int32) *Graph {
	local := make(map[int32]int32, len(verts))
	for i, v := range verts {
		local[v] = int32(i)
	}
	xadj := make([]int32, len(verts)+1)
	var adjncy, edgew []int32
	vertw := make([]int32, len(verts))
	for i, v := range verts {
		vertw[i] = g.vertWeight(v)
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			if lu, ok := local[g.Adjncy[k]]; ok {
				adjncy = append(adjncy, lu)
				edgew = append(edgew, g.edgeWeight(k))
			}
		}
		xadj[i+1] = int32(len(adjncy))
	}
	return &Graph{Xadj: xadj, Adjncy: adjncy, EdgeW: edgew, VertW: vertw}
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
func bisect(g *Graph, frac float64, rng *rand.Rand) []int8 {
	// Build the coarsening hierarchy.
	level := &coarse{g: g}
	for level.g.NumVertices() > 64 {
		next := coarsen(level.g, rng)
		if next.g.NumVertices() >= level.g.NumVertices() {
			break // matching stalled (e.g. star graphs)
		}
		next.finer = level
		level = next
	}

	side := growBisection(level.g, frac, rng)
	refineFM(level.g, side, frac, 8)

	// Uncoarsen with refinement at each level.
	for level.finer != nil {
		finer := level.finer
		fineSide := make([]int8, finer.g.NumVertices())
		for v := range fineSide {
			fineSide[v] = side[level.cmap[v]]
		}
		side = fineSide
		refineFM(finer.g, side, frac, 8)
		level = finer
	}
	return side
}

// coarsen contracts a heavy-edge matching of g.
func coarsen(g *Graph, rng *rand.Rand) *coarse {
	n := g.NumVertices()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	var nc int32
	cmap := make([]int32, n)
	for _, vi := range order {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		// Heaviest unmatched neighbor.
		best, bestW := int32(-1), int32(-1)
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			u := g.Adjncy[k]
			if u != v && match[u] < 0 && g.edgeWeight(k) > bestW {
				best, bestW = u, g.edgeWeight(k)
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
			cmap[v] = nc
			cmap[best] = nc
		} else {
			match[v] = v
			cmap[v] = nc
		}
		nc++
	}

	// Build the contracted graph with summed weights.
	vertw := make([]int32, nc)
	type edge struct{ u, w int32 }
	adj := make([][]edge, nc)
	for v := int32(0); v < int32(n); v++ {
		cv := cmap[v]
		vertw[cv] += g.vertWeight(v)
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			cu := cmap[g.Adjncy[k]]
			if cu == cv {
				continue
			}
			merged := false
			for i := range adj[cv] {
				if adj[cv][i].u == cu {
					adj[cv][i].w += g.edgeWeight(k)
					merged = true
					break
				}
			}
			if !merged {
				adj[cv] = append(adj[cv], edge{cu, g.edgeWeight(k)})
			}
		}
	}
	xadj := make([]int32, nc+1)
	var adjncy, edgew []int32
	for v := int32(0); v < nc; v++ {
		for _, e := range adj[v] {
			adjncy = append(adjncy, e.u)
			edgew = append(edgew, e.w)
		}
		xadj[v+1] = int32(len(adjncy))
	}
	return &coarse{
		g:    &Graph{Xadj: xadj, Adjncy: adjncy, EdgeW: edgew, VertW: vertw},
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
func refineFM(g *Graph, side []int8, frac float64, maxPasses int) {
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
	for v := int32(0); v < int32(n); v++ {
		if side[v] == 0 {
			weight0 += int64(g.vertWeight(v))
		}
	}

	gain := func(v int32) int64 {
		var ext, intl int64
		for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
			if side[g.Adjncy[k]] != side[v] {
				ext += int64(g.edgeWeight(k))
			} else {
				intl += int64(g.edgeWeight(k))
			}
		}
		return ext - intl
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
			if side[v] != heavy {
				continue
			}
			onBoundary := false
			for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
				if side[g.Adjncy[k]] != heavy {
					onBoundary = true
					break
				}
			}
			if !onBoundary {
				continue
			}
			if gv := gain(v); gv > bestGain {
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
		side[best] = 1 - side[best]
	}

	for pass := 0; pass < maxPasses; pass++ {
		// Collect boundary vertices sorted by gain.
		var boundary []int32
		for v := int32(0); v < int32(n); v++ {
			for k := g.Xadj[v]; k < g.Xadj[v+1]; k++ {
				if side[g.Adjncy[k]] != side[v] {
					boundary = append(boundary, v)
					break
				}
			}
		}
		if len(boundary) == 0 {
			return
		}
		sort.Slice(boundary, func(i, j int) bool {
			return gain(boundary[i]) > gain(boundary[j])
		})
		improved := false
		for _, v := range boundary {
			gv := gain(v)
			if gv <= 0 {
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
			side[v] = 1 - side[v]
			weight0 = newW0
			improved = true
		}
		if !improved {
			return
		}
	}
}
