package comm

import (
	"testing"

	"gristgo/internal/mesh"
	"gristgo/internal/partition"
	"gristgo/internal/telemetry"
)

// TestStatsAccumulatesRounds: every completed round adds one to Rounds
// and exactly BytesPerExchange to BytesSent.
func TestStatsAccumulatesRounds(t *testing.T) {
	m := mesh.New(3)
	d := partition.MustDecompose(m, 2, 1)
	Run(2, func(r *Rank) {
		dom := NewDomain(m, d, r.ID())
		f := dom.NewField("x", 2)
		h := NewHaloExchanger(dom, r)
		h.Register(f)

		h.Exchange()
		h.Exchange()
		h.Exchange()
		perRound := h.BytesPerExchange()

		st := h.Stats()
		if st.Rounds != 3 {
			t.Errorf("Rounds = %d, want 3", st.Rounds)
		}
		if st.BytesSent != 3*perRound {
			t.Errorf("BytesSent = %d, want %d", st.BytesSent, 3*perRound)
		}
		if st.Wait < 0 {
			t.Errorf("Wait = %v", st.Wait)
		}
	})
}

// TestExchangerTelemetrySpans: with a recorder attached, each round
// leaves pack, wait and unpack spans attributed to the given rank.
func TestExchangerTelemetrySpans(t *testing.T) {
	m := mesh.New(3)
	d := partition.MustDecompose(m, 2, 1)
	recs := [2]*telemetry.Recorder{telemetry.NewRecorder(64), telemetry.NewRecorder(64)}
	Run(2, func(r *Rank) {
		dom := NewDomain(m, d, r.ID())
		f := dom.NewField("x", 1)
		h := NewHaloExchanger(dom, r)
		h.Register(f)
		h.SetTelemetry(recs[r.ID()], int32(r.ID()))
		h.Exchange()
	})
	for rank, rec := range recs {
		seen := map[string]int{}
		for _, ev := range rec.Snapshot() {
			if ev.Rank != int32(rank) {
				t.Errorf("rank %d recorder holds span for rank %d", rank, ev.Rank)
			}
			seen[ev.Name]++
		}
		for _, want := range []string{"halo_pack", "halo_wait", "halo_unpack"} {
			if seen[want] != 1 {
				t.Errorf("rank %d: span %q recorded %d times, want 1", rank, want, seen[want])
			}
		}
	}
}
