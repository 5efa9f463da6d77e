// Package mesh implements the unstructured icosahedral hexagonal C-grid on
// the sphere used by the GRIST dynamical core: an icosahedral triangulation
// refined by edge bisection, with model cells at the triangulation vertices
// (Voronoi hexagons plus 12 pentagons), dual vertices at the triangle
// circumcenters, and edges carrying the staggered normal velocities.
//
// The connectivity layout follows the paper's parallelization facilitation
// layer: indirect addressing through flat CSR-style index arrays, with an
// optional breadth-first-search renumbering that improves cache locality
// (§3.1.3 of the paper).
package mesh

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// EarthRadius is the mean Earth radius in meters ("rearth" in GRIST).
const EarthRadius = 6.37122e6

// Mesh is the hexagonal C-grid: cells (mass points), edges (normal
// velocity points), and dual vertices (vorticity points).
//
// Conventions:
//   - EdgeNormal[e] points from EdgeCell[e][0] toward EdgeCell[e][1].
//   - EdgeTangent[e] = LocalVertical x EdgeNormal (90° counterclockwise
//     from the normal, seen from outside the sphere); EdgeVert[e] is
//     ordered so the dual vertex displacement aligns with the tangent.
//   - Cell edge/vertex lists are counterclockwise; CellVert[c][k] lies
//     between CellEdge[c][k] and CellEdge[c][k+1].
type Mesh struct {
	Level  int     // icosahedral refinement level (G-level)
	Radius float64 // sphere radius in meters

	NCells, NEdges, NVerts int

	// Cell (hexagon/pentagon) data.
	CellPos  []Vec3    // unit-sphere cell centers
	CellLat  []float64 // radians
	CellLon  []float64 // radians
	CellArea []float64 // m^2

	// CSR connectivity around cells. Offsets have length NCells+1; the
	// k-th item of cell c lives at index CellOff[c]+k.
	CellOff      []int32
	CellEdge     []int32   // edges CCW around the cell
	CellCell     []int32   // neighbor across CellEdge at same position
	CellVert     []int32   // dual vertices CCW; item k between edges k, k+1
	CellEdgeSign []int8    // +1 where the edge normal is outward of the cell
	KiteFrac     []float64 // kite-area fraction R_{c,v}, aligned with CellVert

	// Edge data.
	EdgeCell    [][2]int32
	EdgeVert    [][2]int32
	EdgePos     []Vec3    // unit-sphere edge midpoints (between cell centers)
	EdgeLat     []float64 // radians, for the Coriolis parameter
	EdgeNormal  []Vec3
	EdgeTangent []Vec3
	DcEdge      []float64 // distance between the two cell centers (m)
	DvEdge      []float64 // distance between the two dual vertices (m)

	// Dual-vertex (triangle) data.
	VertPos      []Vec3
	VertArea     []float64
	VertCell     [][3]int32 // CCW corner cells
	VertEdge     [][3]int32 // VertEdge[v][k] joins VertCell[v][k] and [k+1]
	VertEdgeSign [][3]int8  // +1 where v == EdgeVert[edge][1]

	// TRiSK tangential-reconstruction stencil, CSR over edges:
	// tangential(e) = sum over k in [TrskOff[e], TrskOff[e+1]) of
	// TrskWeight[k] * normalVelocity[TrskEdge[k]].
	TrskOff    []int32
	TrskEdge   []int32
	TrskWeight []float64

	windOnce sync.Once
	wind     *WindBasis // built by WindBasis on first use
}

// CellEdges returns the CCW edge list of cell c.
func (m *Mesh) CellEdges(c int32) []int32 { return m.CellEdge[m.CellOff[c]:m.CellOff[c+1]] }

// CellCells returns the CCW neighbor list of cell c.
func (m *Mesh) CellCells(c int32) []int32 { return m.CellCell[m.CellOff[c]:m.CellOff[c+1]] }

// CellVerts returns the CCW dual-vertex list of cell c.
func (m *Mesh) CellVerts(c int32) []int32 { return m.CellVert[m.CellOff[c]:m.CellOff[c+1]] }

// CellDegree returns the number of edges of cell c (5 or 6).
func (m *Mesh) CellDegree(c int32) int { return int(m.CellOff[c+1] - m.CellOff[c]) }

// IdentityIDs returns the id list 0, 1, ..., n-1: "every entity" in the
// form the kernels take one rank's share of the mesh in.
func IdentityIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// Row is entity id's level run of a field laid out [id*n+k]. Every kernel
// takes the runs it reads once per entity, so the level loop indexes
// slices of one known length and carries no bounds checks.
func Row[E any](a []E, id int32, n int) []E { return a[int(id)*n:][:n] }

// ParallelFor is the one loop driver of the entity kernels (the dycore's
// and the tracer transport's): it hands body the id list in static chunks
// across workers goroutines, or whole and inline with workers <= 1 or a
// list too short to share out. This is the host-side analog of the
// paper's OpenMP parallelization inside each MPI rank: every loop is
// conflict-free per entity (§3.3.4 — "most of loops are conflict-free"),
// so the static chunking matches the "!$omp do" schedule.
func ParallelFor(workers int, ids []int32, body func(ids []int32)) {
	n := len(ids)
	if workers <= 1 || n < 4*workers {
		body(ids)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		part := ids[lo:min(lo+chunk, n)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(part)
		}()
	}
	wg.Wait()
}

// New builds the hexagonal C-grid at the given icosahedral level on a
// sphere of radius EarthRadius. Levels up to about 8 are practical in
// memory; use Census for the closed-form grid statistics of larger levels.
func New(level int) *Mesh {
	return NewWithRadius(level, EarthRadius)
}

// NewWithRadius builds the C-grid at the given level and sphere radius.
func NewWithRadius(level int, radius float64) *Mesh {
	tri := NewTriangulation(level)
	return FromTriangulation(tri, radius)
}

// FromTriangulation constructs the C-grid dual of an icosahedral
// triangulation. Every loop after the serial edge numbering runs through
// ParallelFor and writes only its own entity, so the mesh is bitwise the
// same at any GOMAXPROCS.
func FromTriangulation(tri *Triangulation, radius float64) *Mesh {
	nc := len(tri.Verts)
	nv := len(tri.Tris)
	workers := runtime.GOMAXPROCS(0)

	m := &Mesh{
		Level:   tri.Level,
		Radius:  radius,
		NCells:  nc,
		NVerts:  nv,
		CellPos: tri.Verts,
	}

	// --- Dual vertices: triangle circumcenters. ---
	m.VertPos = make([]Vec3, nv)
	m.VertCell = slices.Clone(tri.Tris)
	vertIDs := IdentityIDs(nv)
	ParallelFor(workers, vertIDs, func(ids []int32) {
		for _, t := range ids {
			tr := tri.Tris[t]
			m.VertPos[t] = Circumcenter(tri.Verts[tr[0]], tri.Verts[tr[1]], tri.Verts[tr[2]])
		}
	})

	// --- Edges: unique vertex pairs, numbered in triangle order. A cell
	// has as many edges as triangles, so CellOff spans both ascending
	// incidence lists: CellEdge (an edge is found again in its lower
	// cell's) and vertInc, the cells' dual vertices. ---
	m.CellOff = make([]int32, nc+1)
	for _, tr := range tri.Tris {
		for _, c := range tr {
			m.CellOff[c+1]++
		}
	}
	for c := 0; c < nc; c++ {
		m.CellOff[c+1] += m.CellOff[c]
	}
	total := int(m.CellOff[nc])
	m.CellEdge = make([]int32, total)
	vertInc := make([]int32, total)
	edgeFill := slices.Clone(m.CellOff[:nc])
	vertFill := slices.Clone(m.CellOff[:nc])
	edgeCell := make([][2]int32, 0, total/2)
	edgeTris := make([][2]int32, 0, total/2)
	m.VertEdge = make([][3]int32, nv)
	for t, tr := range tri.Tris {
		for k := 0; k < 3; k++ {
			a, b := tr[k], tr[(k+1)%3]
			if a > b {
				a, b = b, a
			}
			id := int32(-1)
			for _, e := range m.CellEdge[m.CellOff[a]:edgeFill[a]] {
				if edgeCell[e] == [2]int32{a, b} {
					id = e
					break
				}
			}
			if id < 0 {
				id = int32(len(edgeCell))
				edgeCell = append(edgeCell, [2]int32{a, b})
				edgeTris = append(edgeTris, [2]int32{int32(t), -1})
				m.CellEdge[edgeFill[a]], m.CellEdge[edgeFill[b]] = id, id
				edgeFill[a]++
				edgeFill[b]++
			} else {
				edgeTris[id][1] = int32(t)
			}
			m.VertEdge[t][k] = id
		}
		for _, c := range tr {
			vertInc[vertFill[c]] = int32(t)
			vertFill[c]++
		}
	}
	ne := len(edgeCell)
	m.NEdges = ne
	m.EdgeCell = edgeCell
	m.EdgeVert = edgeTris

	// --- Edge geometry and orientation. ---
	m.EdgePos = make([]Vec3, ne)
	m.EdgeLat = make([]float64, ne)
	m.EdgeNormal = make([]Vec3, ne)
	m.EdgeTangent = make([]Vec3, ne)
	m.DcEdge = make([]float64, ne)
	m.DvEdge = make([]float64, ne)
	edgeIDs := IdentityIDs(ne)
	ParallelFor(workers, edgeIDs, func(ids []int32) {
		for _, e := range ids {
			c0 := m.CellPos[m.EdgeCell[e][0]]
			c1 := m.CellPos[m.EdgeCell[e][1]]
			pos := Midpoint(c0, c1)
			m.EdgePos[e] = pos
			m.EdgeLat[e], _ = pos.LatLon()
			up := LocalVertical(pos)
			n := c1.Sub(c0)
			n = n.Sub(up.Scale(n.Dot(up))).Normalize()
			m.EdgeNormal[e] = n
			m.EdgeTangent[e] = up.Cross(n)
			m.DcEdge[e] = radius * ArcLength(c0, c1)

			v0, v1 := m.EdgeVert[e][0], m.EdgeVert[e][1]
			if v1 < 0 {
				panic(fmt.Sprintf("mesh: edge %d has a single adjacent triangle", e))
			}
			// Order dual vertices along the tangent.
			if m.VertPos[v1].Sub(m.VertPos[v0]).Dot(m.EdgeTangent[e]) < 0 {
				m.EdgeVert[e][0], m.EdgeVert[e][1] = v1, v0
			}
			m.DvEdge[e] = radius * ArcLength(m.VertPos[m.EdgeVert[e][0]], m.VertPos[m.EdgeVert[e][1]])
		}
	})

	// --- Cell connectivity: sort each cell's incidence lists CCW. ---
	m.CellCell = make([]int32, total)
	m.CellVert = make([]int32, total)
	m.CellEdgeSign = make([]int8, total)
	m.CellLat = make([]float64, nc)
	m.CellLon = make([]float64, nc)
	m.CellArea = make([]float64, nc)
	cellIDs := IdentityIDs(nc)
	ParallelFor(workers, cellIDs, func(ids []int32) {
		var eAngle, vAngle []float64
		var poly []Vec3
		for _, c := range ids {
			center := m.CellPos[c]
			m.CellLat[c], m.CellLon[c] = center.LatLon()
			east, north := TangentBasis(center)
			angleOf := func(p Vec3) float64 {
				d := p.Sub(center)
				return math.Atan2(d.Dot(north), d.Dot(east))
			}
			base, end := m.CellOff[c], m.CellOff[c+1]
			edges := m.CellEdge[base:end]
			eAngle = eAngle[:0]
			for _, e := range edges {
				eAngle = append(eAngle, angleOf(m.EdgePos[e]))
			}
			sort.Sort(byAngle{edges, eAngle})
			verts := vertInc[base:end]
			vAngle = vAngle[:0]
			for _, v := range verts {
				vAngle = append(vAngle, angleOf(m.VertPos[v]))
			}
			sort.Sort(byAngle{verts, vAngle})
			// Rotate the vertex list so vertex k sits between edges k and
			// k+1: vertex 0 is the first vertex CCW after edge 0.
			ref := eAngle[0]
			rot, best := 0, math.MaxFloat64
			for i := range verts {
				a := vAngle[i] - ref
				for a < 0 {
					a += 2 * math.Pi
				}
				if a < best {
					best, rot = a, i
				}
			}
			deg := len(edges)
			poly = poly[:0]
			for k, e := range edges {
				if m.EdgeCell[e][0] == c {
					m.CellCell[base+int32(k)] = m.EdgeCell[e][1]
					m.CellEdgeSign[base+int32(k)] = 1
				} else {
					m.CellCell[base+int32(k)] = m.EdgeCell[e][0]
					m.CellEdgeSign[base+int32(k)] = -1
				}
				v := verts[(rot+k)%deg]
				m.CellVert[base+int32(k)] = v
				poly = append(poly, m.VertPos[v])
			}
			// Cell area from the CCW dual-vertex polygon.
			m.CellArea[c] = radius * radius * SphericalPolygonArea(poly)
		}
	})

	// --- Dual-vertex areas and edge signs. ---
	m.VertArea = make([]float64, nv)
	m.VertEdgeSign = make([][3]int8, nv)
	ParallelFor(workers, vertIDs, func(ids []int32) {
		for _, v := range ids {
			tr := m.VertCell[v]
			m.VertArea[v] = radius * radius * SphericalTriangleArea(
				m.CellPos[tr[0]], m.CellPos[tr[1]], m.CellPos[tr[2]])
			for k, e := range m.VertEdge[v] {
				if m.EdgeVert[e][1] == v {
					m.VertEdgeSign[v][k] = 1
				} else {
					m.VertEdgeSign[v][k] = -1
				}
			}
		}
	})

	m.computeKites(workers, cellIDs)
	m.computeTrskWeights(workers, edgeIDs)
	return m
}

// computeKites fills KiteFrac: for each cell corner (cell c, dual vertex v
// between edges eA and eB), the spherical area of the kite
// (cell center, midpoint of eA, v, midpoint of eB) divided by the cell
// area. The fractions of each cell sum to ~1.
func (m *Mesh) computeKites(workers int, cellIDs []int32) {
	m.KiteFrac = make([]float64, len(m.CellVert))
	ParallelFor(workers, cellIDs, func(ids []int32) {
		var kite [4]Vec3
		for _, c := range ids {
			base := m.CellOff[c]
			deg := m.CellDegree(c)
			var sum float64
			for k := 0; k < deg; k++ {
				eA := m.CellEdge[base+int32(k)]
				eB := m.CellEdge[base+int32((k+1)%deg)]
				v := m.CellVert[base+int32(k)]
				kite = [4]Vec3{m.CellPos[c], m.EdgePos[eA], m.VertPos[v], m.EdgePos[eB]}
				area := m.Radius * m.Radius * SphericalPolygonArea(kite[:])
				m.KiteFrac[base+int32(k)] = area
				sum += area
			}
			for k := 0; k < deg; k++ {
				m.KiteFrac[base+int32(k)] /= sum
			}
		}
	})
}

// computeTrskWeights builds the TRiSK tangential-velocity reconstruction
// stencil (Thuburn et al. 2009; Ringler et al. 2010). For edge e the
// tangential velocity is reconstructed from the normal velocities of the
// edges of the two cells sharing e:
//
//	v_e = sum_{c in EdgeCell[e]} sum_{j=1..deg(c)-1}
//	      t(e,c) * (sum_{i<j} R_{c,v_i} - 1/2) * (Dv_{f_j}/Dc_e) * n(f_j,c) * u_{f_j}
//
// where f_j is the j-th edge counterclockwise from e around c, R are the
// kite fractions, n(f,c) = +1 if f's normal is outward of c, and
// t(e,c) = +1 if the CCW traversal of c crosses e along its tangent
// (true for c == EdgeCell[e][0]).
func (m *Mesh) computeTrskWeights(workers int, edgeIDs []int32) {
	ne := m.NEdges
	m.TrskOff = make([]int32, ne+1)
	// Count stencil sizes first: (deg(c0)-1) + (deg(c1)-1).
	for e := 0; e < ne; e++ {
		n := m.CellDegree(m.EdgeCell[e][0]) + m.CellDegree(m.EdgeCell[e][1]) - 2
		m.TrskOff[e+1] = m.TrskOff[e] + int32(n)
	}
	m.TrskEdge = make([]int32, m.TrskOff[ne])
	m.TrskWeight = make([]float64, m.TrskOff[ne])

	ParallelFor(workers, edgeIDs, func(ids []int32) {
		for _, e := range ids {
			pos := m.TrskOff[e]
			for side := 0; side < 2; side++ {
				c := m.EdgeCell[e][side]
				tsign := 1.0
				if side == 1 {
					tsign = -1.0
				}
				base := m.CellOff[c]
				deg := m.CellDegree(c)
				// Locate e within the cell's CCW edge list.
				k0 := -1
				for k := 0; k < deg; k++ {
					if m.CellEdge[base+int32(k)] == e {
						k0 = k
						break
					}
				}
				if k0 < 0 {
					panic("mesh: edge not found in its cell's edge list")
				}
				accum := 0.0
				for j := 1; j < deg; j++ {
					accum += m.KiteFrac[base+int32((k0+j-1)%deg)]
					f := m.CellEdge[base+int32((k0+j)%deg)]
					nsign := float64(m.CellEdgeSign[base+int32((k0+j)%deg)])
					w := tsign * (0.5 - accum) * (m.DvEdge[f] / m.DcEdge[e]) * nsign
					m.TrskEdge[pos] = f
					m.TrskWeight[pos] = w
					pos++
				}
			}
		}
	})
}

// TangentialVelocity reconstructs the tangential velocity at every edge
// from the edge-normal velocity field using the TRiSK stencil. dst and u
// must each have length NEdges; dst may alias a scratch buffer but not u.
func (m *Mesh) TangentialVelocity(dst, u []float64) {
	for e := 0; e < m.NEdges; e++ {
		var s float64
		for k := m.TrskOff[e]; k < m.TrskOff[e+1]; k++ {
			s += m.TrskWeight[k] * u[m.TrskEdge[k]]
		}
		dst[e] = s
	}
}

// byAngle sorts ids by ascending angle, each angle computed once and
// moved with its id.
type byAngle struct {
	ids    []int32
	angles []float64
}

func (s byAngle) Len() int           { return len(s.ids) }
func (s byAngle) Less(i, j int) bool { return s.angles[i] < s.angles[j] }
func (s byAngle) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.angles[i], s.angles[j] = s.angles[j], s.angles[i]
}
