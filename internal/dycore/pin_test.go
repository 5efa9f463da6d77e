package dycore

import (
	"fmt"
	"testing"

	"gristgo/internal/mesh"
	"gristgo/internal/pintest"
	"gristgo/internal/precision"
)

// pinFields lists the prognostic fields in pin-file order. W is bounded
// looser than the rest: it is a small difference of large terms (max |w|
// ~ 2e-3 m/s at G2), so rounding noise is a larger share of its maximum.
func pinFields(s *State, bound, boundW float64) []pintest.Field {
	return []pintest.Field{
		{Name: "DryMass", Data: s.DryMass, Bound: bound},
		{Name: "ThetaM", Data: s.ThetaM, Bound: bound},
		{Name: "U", Data: s.U, Bound: bound},
		{Name: "W", Data: s.W, Bound: boundW},
		{Name: "Phi", Data: s.Phi, Bound: bound},
	}
}

// TestPinnedTrajectories holds the serial kernels to the trajectories in
// testdata/pin: every idealized case in both precision modes at G2 x 6,
// the initial state bitwise and the state after ten steps to rounding.
// Every other oracle of this package compares the dycore with itself run
// another way (distributed, overlapped, host-parallel, mixed), so a change
// shared by both legs passes them all; this one does not move unless
// `make pin-update` moves it.
func TestPinnedTrajectories(t *testing.T) {
	m := mesh.New(2).ReorderBFS()
	for _, c := range AllIdealizedCases() {
		initial := NewState(m, 6)
		initial.InitIdealized(c)
		pintest.Check(t, fmt.Sprintf("testdata/pin/%s_init.f64", c), pinFields(initial, 0, 0))
		for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
			eng := NewFromState(initial.Clone(), mode)
			for i := 0; i < 10; i++ {
				eng.Step(90)
			}
			pintest.Check(t, fmt.Sprintf("testdata/pin/%s_%s_step10.f64", c, mode), pinFields(eng.State(), 1e-12, 1e-9))
		}
	}
}
