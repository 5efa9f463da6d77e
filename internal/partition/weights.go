package partition

// CostWeights converts agreed per-part costs (arbitrary nonnegative
// units: seconds of leg wall time, seconds of span-attributed compute)
// into the per-cell integer load weights DecomposeWeighted consumes.
// Each part's cost is spread uniformly over its current cells and the
// per-cell rates are normalized to [1, 1000], so the next decomposition
// shrinks the regions that measured expensive and grows the cheap ones.
//
// Pure function of (part map, costs): every rank holding the same
// agreed inputs computes the identical weight vector, which keeps the
// weighted repartition agreement-free — the property the elastic
// membership protocol relies on.
func CostWeights(part []int32, nparts int, cost []float64) []int32 {
	ncells := make([]int, nparts)
	for _, p := range part {
		if int(p) < nparts {
			ncells[p]++
		}
	}
	perCell := make([]float64, nparts)
	maxW := 0.0
	for p := 0; p < nparts; p++ {
		if ncells[p] == 0 || p >= len(cost) || cost[p] <= 0 {
			continue
		}
		w := cost[p] / float64(ncells[p])
		perCell[p] = w
		if w > maxW {
			maxW = w
		}
	}
	out := make([]int32, len(part))
	for c := range out {
		w := int32(1)
		if maxW > 0 {
			w = 1 + int32(perCell[part[c]]/maxW*999)
		}
		out[c] = w
	}
	return out
}
