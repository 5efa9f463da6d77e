package dycore

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

// bigRef evaluates e^x and ln x in math/big at prec bits, by tabExp's
// reduction with every constant computed at that precision.
type bigRef struct {
	prec       uint
	ln2N       *big.Float      // ln2/128
	pow2       [128]*big.Float // 2^(j/128)
	coef       []*big.Float    // 1/i!, the Taylor coefficients of e^r
	r, p, q, e *big.Float      // scratch
}

func (b *bigRef) new() *big.Float { return new(big.Float).SetPrec(b.prec) }

func newBigRef(prec uint) *bigRef {
	b := &bigRef{prec: prec}
	b.ln2N, b.r, b.p, b.q, b.e = b.new(), b.new(), b.new(), b.new(), b.new()
	// ln 2 = 2 atanh(1/3) = sum over k of 2 / ((2k+1) 3^(2k+1)).
	p3 := b.new().SetInt64(3)
	for k := int64(0); k < int64(prec)/3+2; k++ {
		term := b.new().SetInt64(2*k + 1)
		term.Quo(b.new().SetInt64(2), term.Mul(term, p3))
		b.ln2N.Add(b.ln2N, term)
		p3.Mul(p3, b.new().SetInt64(9))
	}
	b.ln2N.SetMantExp(b.ln2N, -7)
	// 2^(j/128): seven square roots of 2^j.
	for j := range b.pow2 {
		v := b.new().SetMantExp(b.new().SetInt64(1), j)
		for i := 0; i < 7; i++ {
			v.Sqrt(v)
		}
		b.pow2[j] = v
	}
	// |r| <= ln2/256 < 2^-8, so r^i/i! < 2^-8i/i!: the terms up to the
	// first whose bound is below 2^-(prec+8).
	fact := b.new().SetInt64(1)
	for i := 0; ; i++ {
		if i > 0 {
			fact.Mul(fact, b.new().SetInt64(int64(i)))
		}
		b.coef = append(b.coef, b.new().Quo(b.new().SetInt64(1), fact))
		if f, _ := fact.Float64(); math.Ldexp(1/f, -8*i) < math.Ldexp(1, -int(prec)-8) {
			return b
		}
	}
}

// exp sets dst to e^x and returns it.
func (b *bigRef) exp(dst, x *big.Float) *big.Float {
	xf, _ := x.Float64()
	n := int(math.Round(xf * 128 / math.Ln2))
	b.r.Sub(x, b.p.Mul(b.ln2N, b.q.SetInt64(int64(n))))
	b.p.Set(b.coef[len(b.coef)-1])
	for i := len(b.coef) - 2; i >= 0; i-- {
		b.p.Add(b.q.Mul(b.p, b.r), b.coef[i])
	}
	dst.Mul(b.p, b.pow2[n&127])
	return dst.SetMantExp(dst, n>>7)
}

// log sets dst to ln x and returns it: Newton steps y += x/e^y - 1 from
// math.Log(x), each of which squares the relative error.
func (b *bigRef) log(dst, x *big.Float, steps int) *big.Float {
	xf, _ := x.Float64()
	dst.SetFloat64(math.Log(xf))
	for i := 0; i < steps; i++ {
		b.exp(b.e, dst)
		b.p.Sub(b.q.Quo(x, b.e), b.coef[0])
		dst.Add(dst, b.p)
	}
	return dst
}

// genExpTab builds expTab from the reference.
func genExpTab(b *bigRef) (tab [128][2]uint64) {
	for j, v := range b.pow2 {
		scale, _ := v.Float64()
		tail, _ := b.new().Quo(b.new().Sub(v, b.new().SetFloat64(scale)), b.new().SetFloat64(scale)).Float64()
		tab[j] = [2]uint64{math.Float64bits(tail), math.Float64bits(scale) - uint64(j)<<45}
	}
	return tab
}

// genLogTab builds logTab from the reference: c is the center of the
// interval of z whose top seven mantissa bits are i (relative to logOff).
func genLogTab(b *bigRef) (tab [128][3]uint64) {
	for i := range tab {
		lo := math.Float64frombits(logOff + uint64(i)<<45)
		hi := math.Float64frombits(logOff + uint64(i+1)<<45)
		c := b.new().SetFloat64((lo + hi) / 2) // exact: a few bits
		invc, _ := new(big.Float).SetPrec(53).Quo(b.new().SetInt64(1), c).Float64()
		l := b.log(b.new(), b.new().SetFloat64(invc), 2)
		l.Neg(l)
		logc, _ := l.Float64()
		logcLo, _ := l.Sub(l, b.new().SetFloat64(logc)).Float64()
		tab[i] = [3]uint64{math.Float64bits(invc), math.Float64bits(logc), math.Float64bits(logcLo)}
	}
	return tab
}

// formatTab prints a table of 128 entries of w words as the Go literal
// explog.go holds, two entries a line.
func formatTab(name string, w int, entry func(i int) []uint64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "var %s = [128][%d]uint64{\n", name, w)
	for i := 0; i < 128; i++ {
		sb.WriteString([]string{"\t{", " {"}[i%2])
		for j, v := range entry(i) {
			sb.WriteString([]string{"", ", "}[min(j, 1)])
			fmt.Fprintf(&sb, "0x%016x", v)
		}
		sb.WriteString([]string{"},", "},\n"}[i%2])
	}
	sb.WriteString("}\n")
	return sb.String()
}

// TestExpLogTablesMatchBig regenerates both checked-in tables from math/big
// and compares them bit for bit.
func TestExpLogTablesMatchBig(t *testing.T) {
	b := newBigRef(128)
	if got := genExpTab(b); got != expTab {
		t.Errorf("expTab differs from its math/big regeneration:\n%s", formatTab("expTab", 2, func(i int) []uint64 { return got[i][:] }))
	}
	if got := genLogTab(b); got != logTab {
		t.Errorf("logTab differs from its math/big regeneration:\n%s", formatTab("logTab", 3, func(i int) []uint64 { return got[i][:] }))
	}
}

// refPrec is the precision of the accuracy test's reference: 2^-64 per
// operation, so each measured error is good to about 0.01 ulp.
const refPrec = 64

// errMeter measures a float64 result against a math/big reference.
type errMeter struct{ got, diff *big.Float }

// ulps returns |got - ref| in units of the last place of ref.
func (m *errMeter) ulps(got float64, ref *big.Float) float64 {
	d, _ := m.diff.Sub(m.got.SetFloat64(got), ref).Float64()
	return math.Abs(d) / math.Ldexp(1, ref.MantExp(nil)-53)
}

// abs returns |got - ref|.
func (m *errMeter) abs(got float64, ref *big.Float) float64 {
	d, _ := m.diff.Sub(m.got.SetFloat64(got), ref).Float64()
	return math.Abs(d)
}

// TestExpLogAccuracy measures tabExp and tabLog against the math/big
// reference over 10^6 seeded samples (10^5
// with -short, which the race detector runs): the x = Rd*rho*theta/P0
// range of TestEOSMatchesPowSpelling (log x, and exp of the Rd/Cv*log x
// eos takes), refPhi's P0/pi in [1, P0/PTop], and a dense band around
// x = 1. Exp must be within 1 ulp everywhere, log within 1 ulp for
// |x-1| >= 1/16; nearer 1, where ln x is small and only its absolute error
// reaches eos and refPhi, log must be no worse in absolute error than
// math.Log.
func TestExpLogAccuracy(t *testing.T) {
	n := 1000000
	if testing.Short() {
		n = 100000
	}
	b := newBigRef(refPrec)
	m := &errMeter{b.new(), b.new()}
	x, ref := b.new(), b.new()
	var expTabUlp, logTabUlp, nearTab, nearMath float64
	rng := rand.New(rand.NewSource(1))
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*math.Log(hi/lo))
	}
	for i := 0; i < n; i++ {
		var v float64
		switch i % 20 {
		case 0:
			v = 1 + (2*rng.Float64()-1)/16
		case 1, 3, 5, 7, 9, 11, 13, 15, 17, 19:
			v = logUniform(1e-3, 3)
			y := Rd / Cv * tabLog(v)
			b.exp(ref, x.SetFloat64(y))
			expTabUlp = max(expTabUlp, m.ulps(tabExp(y), ref))
		default:
			v = P0 / logUniform(PTop, P0)
		}
		b.log(ref, x.SetFloat64(v), 1)
		if math.Abs(v-1) >= 1.0/16 {
			logTabUlp = max(logTabUlp, m.ulps(tabLog(v), ref))
		} else {
			nearTab = max(nearTab, m.abs(tabLog(v), ref))
			nearMath = max(nearMath, m.abs(math.Log(v), ref))
		}
	}
	t.Logf("exp: tabExp %.3f ulp", expTabUlp)
	t.Logf("log, |x-1| >= 1/16: tabLog %.3f ulp", logTabUlp)
	t.Logf("log, |x-1| < 1/16: tabLog %.3g absolute, math.Log %.3g", nearTab, nearMath)
	if expTabUlp > 1 {
		t.Errorf("tabExp is %.3f ulp from e^x; the limit is 1", expTabUlp)
	}
	if logTabUlp > 1 {
		t.Errorf("tabLog is %.3f ulp from ln x for |x-1| >= 1/16; the limit is 1", logTabUlp)
	}
	if nearTab > nearMath {
		t.Errorf("tabLog's absolute error near 1 is %.3g, math.Log's %.3g", nearTab, nearMath)
	}
}

// TestExpLogSpecialInputs: every input off the table paths returns
// math.Exp's or math.Log's bits, so NaN and ±Inf propagate as before.
func TestExpLogSpecialInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	sub := []float64{5e-324, -5e-324, 0x1p-1023, -0x1p-1023, 0x1.fffffffffffffp-1023}
	for _, x := range append([]float64{nan, inf, -inf, 0, math.Copysign(0, -1), 512, -512, 600, -745, 709.9, -1e300, 1e300}, sub...) {
		if got, want := tabExp(x), math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("tabExp(%v) = %v (%#x), math.Exp gives %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, x := range append([]float64{nan, inf, -inf, 0, math.Copysign(0, -1), -1, -0x1p-1022, -1e300}, sub...) {
		if got, want := tabLog(x), math.Log(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("tabLog(%v) = %v (%#x), math.Log gives %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
