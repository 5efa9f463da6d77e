// Fixture for precisioncheck: a miniature mixed-precision kernel with
// one violation per rule and the sanctioned idioms that must stay quiet.
// A structural twin of precision.Real is declared locally so the fixture
// type-checks standalone; the analyzer recognizes the constraint by
// shape, not by import path.
package fixture

type Real interface{ ~float32 | ~float64 }

type state struct {
	Phi  []float64 // FP64-pinned: geopotential
	pres []float64 // FP64-pinned: pressure
	vel  []float64
}

func kernel[T Real](s *state, u []T) {
	// R1: arithmetic forced through fixed float64, converted straight
	// back to the working precision.
	x := T(float64(u[0]) * 2.0) // want `round-trips through float64`
	_ = x

	// R2: pinned fields demoted inside a conversion expression.
	y := float32(s.Phi[0]) // want `FP64-pinned field "Phi"`
	_ = y
	z := T(s.pres[0]) // want `FP64-pinned field "pres"`
	_ = z

	// R3: untyped float literal defaults to float64, then gets squeezed
	// into the working precision after the fact.
	c := 10.0
	w := T(c) // want `untyped float literal`
	_ = w

	// R4: inline storage rounding instead of precision.Round32.
	r := float64(float32(s.vel[0])) // want `precision.Round32`
	_ = r

	// Sanctioned: promotion to float64 alone (e.g. accumulating into a
	// pinned accumulator) never loses information.
	acc := float64(u[0])
	_ = acc

	// Sanctioned: demotion of a pinned-derived value through a named
	// float64 intermediate — the precision decision is visible at dphi's
	// declaration.
	dphi := s.Phi[1] - s.Phi[0]
	ok := T(dphi)
	_ = ok

	// A declared-float32 wire format is a finding like any other: nothing
	// suppresses one.
	wire := float32(s.Phi[2]) // want `FP64-pinned field "Phi" flows into a float32 conversion`
	_ = wire
}
