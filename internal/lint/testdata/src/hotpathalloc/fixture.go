// Fixture for hotpathalloc: an annotated step kernel containing every
// forbidden construct, the sanctioned loop-driver and panic idioms, a
// same-package callee the check must propagate into, and an unannotated
// cold function that must stay unflagged.
package fixture

import "fmt"

type engine struct {
	buf []float64
}

// parallelFor is the fixture's stand-in for the dycore loop driver.
func (e *engine) parallelFor(ids []int32, body func(ids []int32)) {
	body(ids)
}

//grist:hotpath
func (e *engine) step(n int) {
	tmp := make([]float64, n) // want `make in hot path`
	_ = tmp
	x := new(float64) // want `new in hot path`
	_ = x
	e.buf = append(e.buf, 1) // want `append in hot path`
	s := []float64{1, 2}     // want `slice literal`
	_ = s
	m := map[int]int{1: 2} // want `map literal`
	_ = m
	p := &engine{} // want `composite literal`
	_ = p
	fmt.Println(n)   // want `fmt call`
	go e.helper(n)   // want `goroutine launch`
	bad := func() {} // want `closure created`
	bad()

	// Sanctioned: a closure handed directly to the loop driver is the
	// repo's iteration idiom — but its body holds the per-entity loop and
	// is checked.
	e.parallelFor(nil, func(ids []int32) {
		for _, i := range ids {
			e.buf[i] += 1
			q := make([]float64, 1) // want `make in hot path`
			_ = q
		}
	})

	// Sanctioned: panic arguments are a cold path.
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n))
	}

	e.helper(n) // propagates the check into helper
}

// helper is hot only because step calls it.
func (e *engine) helper(n int) {
	t := make([]float64, n) // want `make in hot path`
	_ = t
}

// cold is neither annotated nor reachable from an annotated function,
// so it may allocate freely.
func cold(n int) []float64 {
	return make([]float64, n)
}
