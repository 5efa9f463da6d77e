package comm

import (
	"sort"
	"testing"

	"gristgo/internal/mesh"
	"gristgo/internal/partition"
	"gristgo/internal/precision"
)

// cellLayout builds rank p's single-set halo layout from a decomposition
// with global cell ids as the entity indices (the elastic runners'
// convention: fields are full-mesh arrays, so no local renumbering is
// needed when the decomposition changes).
func cellLayout(d *partition.Decomposition, p int) *Layout {
	var peers []int
	for q := range d.Peers[p] {
		peers = append(peers, int(q))
	}
	sort.Ints(peers)
	set := IndexSet{Send: make([][]int32, len(peers)), Recv: make([][]int32, len(peers))}
	for i, q := range peers {
		set.Recv[i] = d.Peers[p][int32(q)]
		set.Send[i] = d.Peers[q][int32(p)]
	}
	return &Layout{Peers: peers, Sets: []IndexSet{set}}
}

// TestSwapLayoutRebindsDecomposition drives one exchanger through two
// decomposition epochs: rounds under the epoch-0 layout must mirror the
// epoch-0 owners, and after SwapLayout (new peers, new index sets, same
// registered field) rounds must mirror the epoch-1 owners — without
// rebuilding the exchanger or re-registering anything.
func TestSwapLayoutRebindsDecomposition(t *testing.T) {
	m := mesh.New(3)
	const nparts, nlev = 3, 2
	d0 := partition.MustDecompose(m, nparts, partition.EpochSeed(11, 0))
	d1, err := partition.DecomposeWeighted(m, nparts, partition.EpochSeed(11, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	d1.Epoch = 1

	check := func(r *Rank, d *partition.Decomposition, q []float64, round int) {
		t.Helper()
		p := r.ID()
		for _, h := range d.Halo[p] {
			owner := d.Part[h]
			for k := 0; k < nlev; k++ {
				want := float64(h)*100 + float64(owner)*10 + float64(k) + float64(round)
				if got := q[int(h)*nlev+k]; got != want {
					t.Errorf("rank %d epoch %d: halo cell %d lev %d = %v, want %v", p, d.Epoch, h, k, got, want)
					return
				}
			}
		}
	}
	fill := func(d *partition.Decomposition, p int, q []float64, round int) {
		for _, c := range d.Owned[p] {
			for k := 0; k < nlev; k++ {
				q[int(c)*nlev+k] = float64(c)*100 + float64(p)*10 + float64(k) + float64(round)
			}
		}
	}

	Run(nparts, func(r *Rank) {
		p := r.ID()
		q := make([]float64, m.NCells*nlev)
		ex := NewExchangerWithLayout(r, precision.DP, cellLayout(d0, p))
		ex.RegisterSlice("q", q, nlev, 0, true)

		for round := 0; round < 2; round++ {
			fill(d0, p, q, round)
			ex.Exchange()
			check(r, d0, q, round)
		}

		// Epoch switch: every rank swaps between rounds, then the same
		// field exchanges under the new ownership.
		ex.SwapLayout(cellLayout(d1, p))
		for round := 2; round < 4; round++ {
			fill(d1, p, q, round)
			ex.Start()
			ex.Finish()
			check(r, d1, q, round)
		}
		if st := ex.Stats(); st.Rounds != 4 {
			t.Errorf("rank %d: %d rounds survived the swap, want 4", p, st.Rounds)
		}
	})
}

// TestSwapLayoutGuards: swapping mid-round or with a different set count
// is a programming error and must panic before corrupting a round.
func TestSwapLayoutGuards(t *testing.T) {
	m := mesh.New(2)
	d := partition.MustDecompose(m, 2, 1)
	Run(2, func(r *Rank) {
		p := r.ID()
		q := make([]float64, m.NCells)
		l := cellLayout(d, p)
		ex := NewExchangerWithLayout(r, precision.DP, l)
		ex.RegisterSlice("q", q, 1, 0, true)

		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: set-count mismatch did not panic", p)
				}
			}()
			ex.SwapLayout(&Layout{Peers: l.Peers, Sets: append(l.Sets, l.Sets[0])})
		}()

		ex.Start()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: in-flight swap did not panic", p)
				}
			}()
			ex.SwapLayout(l)
		}()
		ex.Finish()
	})
}
