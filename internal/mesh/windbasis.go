package mesh

import "runtime"

// WindBasis is the mesh-only half of reconstructing a cell's (east,
// north) wind from its edge-normal winds by per-cell least squares: for
// every CellEdge slot the edge normal's components in the cell's
// tangent basis, and per cell the 2x2 normal matrix a11, a12, a22 and
// its determinant. Only the right-hand side depends on the winds.
type WindBasis struct {
	Proj [][2]float64 // per CellEdge slot: (normal . east, normal . north)
	Norm [][4]float64 // per cell: a11, a12, a22, a11*a22 - a12*a12
}

// WindBasis returns the mesh's least-squares wind geometry, built on the
// first call (on every core) and kept with the mesh. Safe for
// concurrent callers.
func (m *Mesh) WindBasis() *WindBasis {
	m.windOnce.Do(func() {
		w := &WindBasis{Proj: make([][2]float64, len(m.CellEdge)), Norm: make([][4]float64, m.NCells)}
		ParallelFor(runtime.GOMAXPROCS(0), IdentityIDs(m.NCells), func(ids []int32) {
			for _, c := range ids {
				east, north := TangentBasis(m.CellPos[c])
				var a11, a12, a22 float64
				for j := m.CellOff[c]; j < m.CellOff[c+1]; j++ {
					n := m.EdgeNormal[m.CellEdge[j]]
					pe, pn := n.Dot(east), n.Dot(north)
					w.Proj[j] = [2]float64{pe, pn}
					a11 += pe * pe
					a12 += pe * pn
					a22 += pn * pn
				}
				w.Norm[c] = [4]float64{a11, a12, a22, a11*a22 - a12*a12}
			}
		})
		m.wind = w
	})
	return m.wind
}
