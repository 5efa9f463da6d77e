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
	"sort"
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
// triangulation.
func FromTriangulation(tri *Triangulation, radius float64) *Mesh {
	nc := len(tri.Verts)
	nv := len(tri.Tris)

	m := &Mesh{
		Level:   tri.Level,
		Radius:  radius,
		NCells:  nc,
		NVerts:  nv,
		CellPos: tri.Verts,
	}

	// --- Dual vertices: triangle circumcenters. ---
	m.VertPos = make([]Vec3, nv)
	m.VertCell = make([][3]int32, nv)
	for t, tr := range tri.Tris {
		m.VertPos[t] = Circumcenter(tri.Verts[tr[0]], tri.Verts[tr[1]], tri.Verts[tr[2]])
		m.VertCell[t] = tr
	}

	// --- Edges: unique vertex pairs of the triangulation. ---
	type edgeKey struct{ a, b int32 }
	edgeID := make(map[edgeKey]int32, 3*nv/2)
	var edgeCell [][2]int32
	var edgeTris [][2]int32
	for t, tr := range tri.Tris {
		for k := 0; k < 3; k++ {
			a, b := tr[k], tr[(k+1)%3]
			key := edgeKey{a, b}
			if a > b {
				key = edgeKey{b, a}
			}
			id, ok := edgeID[key]
			if !ok {
				id = int32(len(edgeCell))
				edgeID[key] = id
				edgeCell = append(edgeCell, [2]int32{key.a, key.b})
				edgeTris = append(edgeTris, [2]int32{-1, -1})
			}
			if edgeTris[id][0] < 0 {
				edgeTris[id][0] = int32(t)
			} else {
				edgeTris[id][1] = int32(t)
			}
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
	for e := 0; e < ne; e++ {
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

	// --- Cell connectivity: collect incident edges, sort CCW. ---
	incident := make([][]int32, nc)
	for e := 0; e < ne; e++ {
		incident[m.EdgeCell[e][0]] = append(incident[m.EdgeCell[e][0]], int32(e))
		incident[m.EdgeCell[e][1]] = append(incident[m.EdgeCell[e][1]], int32(e))
	}
	vincident := make([][]int32, nc)
	for v := 0; v < nv; v++ {
		for _, c := range m.VertCell[v] {
			vincident[c] = append(vincident[c], int32(v))
		}
	}

	m.CellOff = make([]int32, nc+1)
	for c := 0; c < nc; c++ {
		m.CellOff[c+1] = m.CellOff[c] + int32(len(incident[c]))
	}
	total := int(m.CellOff[nc])
	m.CellEdge = make([]int32, total)
	m.CellCell = make([]int32, total)
	m.CellVert = make([]int32, total)
	m.CellEdgeSign = make([]int8, total)
	m.CellLat = make([]float64, nc)
	m.CellLon = make([]float64, nc)
	m.CellArea = make([]float64, nc)

	for c := int32(0); c < int32(nc); c++ {
		center := m.CellPos[c]
		m.CellLat[c], m.CellLon[c] = center.LatLon()
		east, north := TangentBasis(center)
		angleOf := func(p Vec3) float64 {
			d := p.Sub(center)
			return math.Atan2(d.Dot(north), d.Dot(east))
		}
		edges := incident[c]
		sort.Slice(edges, func(i, j int) bool {
			return angleOf(m.EdgePos[edges[i]]) < angleOf(m.EdgePos[edges[j]])
		})
		verts := vincident[c]
		sort.Slice(verts, func(i, j int) bool {
			return angleOf(m.VertPos[verts[i]]) < angleOf(m.VertPos[verts[j]])
		})
		// Rotate the vertex list so vertex k sits between edges k and k+1:
		// vertex 0 is the first vertex CCW after edge 0.
		ref := angleOf(m.EdgePos[edges[0]])
		rot, best := 0, math.MaxFloat64
		for i, v := range verts {
			a := angleOf(m.VertPos[v]) - ref
			for a < 0 {
				a += 2 * math.Pi
			}
			if a < best {
				best, rot = a, i
			}
		}
		base := m.CellOff[c]
		deg := len(edges)
		for k := 0; k < deg; k++ {
			e := edges[k]
			m.CellEdge[base+int32(k)] = e
			if m.EdgeCell[e][0] == c {
				m.CellCell[base+int32(k)] = m.EdgeCell[e][1]
				m.CellEdgeSign[base+int32(k)] = 1
			} else {
				m.CellCell[base+int32(k)] = m.EdgeCell[e][0]
				m.CellEdgeSign[base+int32(k)] = -1
			}
			m.CellVert[base+int32(k)] = verts[(rot+k)%deg]
		}
		// Cell area from the CCW dual-vertex polygon.
		poly := make([]Vec3, deg)
		for k := 0; k < deg; k++ {
			poly[k] = m.VertPos[m.CellVert[base+int32(k)]]
		}
		m.CellArea[c] = radius * radius * SphericalPolygonArea(poly)
	}

	// --- Dual-vertex connectivity and areas. ---
	m.VertArea = make([]float64, nv)
	m.VertEdge = make([][3]int32, nv)
	m.VertEdgeSign = make([][3]int8, nv)
	for v := 0; v < nv; v++ {
		tr := m.VertCell[v]
		m.VertArea[v] = radius * radius * SphericalTriangleArea(
			m.CellPos[tr[0]], m.CellPos[tr[1]], m.CellPos[tr[2]])
		for k := 0; k < 3; k++ {
			a, b := tr[k], tr[(k+1)%3]
			key := edgeKey{a, b}
			if a > b {
				key = edgeKey{b, a}
			}
			e := edgeID[key]
			m.VertEdge[v][k] = e
			if m.EdgeVert[e][1] == int32(v) {
				m.VertEdgeSign[v][k] = 1
			} else {
				m.VertEdgeSign[v][k] = -1
			}
		}
	}

	m.computeKites()
	m.computeTrskWeights()
	return m
}

// computeKites fills KiteFrac: for each cell corner (cell c, dual vertex v
// between edges eA and eB), the spherical area of the kite
// (cell center, midpoint of eA, v, midpoint of eB) divided by the cell
// area. The fractions of each cell sum to ~1.
func (m *Mesh) computeKites() {
	m.KiteFrac = make([]float64, len(m.CellVert))
	for c := int32(0); c < int32(m.NCells); c++ {
		base := m.CellOff[c]
		deg := m.CellDegree(c)
		var sum float64
		for k := 0; k < deg; k++ {
			eA := m.CellEdge[base+int32(k)]
			eB := m.CellEdge[base+int32((k+1)%deg)]
			v := m.CellVert[base+int32(k)]
			area := m.Radius * m.Radius * SphericalPolygonArea([]Vec3{
				m.CellPos[c], m.EdgePos[eA], m.VertPos[v], m.EdgePos[eB],
			})
			m.KiteFrac[base+int32(k)] = area
			sum += area
		}
		for k := 0; k < deg; k++ {
			m.KiteFrac[base+int32(k)] /= sum
		}
	}
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
func (m *Mesh) computeTrskWeights() {
	ne := m.NEdges
	m.TrskOff = make([]int32, ne+1)
	// Count stencil sizes first: (deg(c0)-1) + (deg(c1)-1).
	for e := 0; e < ne; e++ {
		n := m.CellDegree(m.EdgeCell[e][0]) + m.CellDegree(m.EdgeCell[e][1]) - 2
		m.TrskOff[e+1] = m.TrskOff[e] + int32(n)
	}
	m.TrskEdge = make([]int32, m.TrskOff[ne])
	m.TrskWeight = make([]float64, m.TrskOff[ne])

	for e := int32(0); e < int32(ne); e++ {
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
