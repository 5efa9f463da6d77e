package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest value with at least p% of the
// samples at or below it. An empty slice yields NaN.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// sortedCopy returns vals ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank p50 of an unsorted sample.
func median(vals []float64) float64 { return percentile(sortedCopy(vals), 50) }

// tailCandidates are the percentiles a tail may be reported at. The list
// stops at p99: a tail metric that floated higher on a longer run would
// not compare between runs.
var tailCandidates = []float64{50, 66, 75, 90, 95, 99}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it in a sample of n, so the reported tail
// is never set by a handful of outliers. Fewer than twenty samples
// resolve no tail at all and the answer is the median.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailCandidates {
		if n-rankOf(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// timed is one open-loop sample: when the request was due, relative to
// the start of the phase, and how long after that its answer was
// complete. A failed or refused request carries +Inf.
type timed struct {
	dueS, latencyMS float64
}

// segmentPercentiles cuts a phase into nseg windows of segS seconds by
// due time and returns the p-th percentile of each window's latencies.
// The phase metric is the median of these, so one bad second moves it
// by at most one rank. A window with no samples reports +Inf: nothing
// was served in it.
func segmentPercentiles(samples []timed, segS float64, nseg int, p float64) []float64 {
	segs := make([][]float64, nseg)
	for _, s := range samples {
		i := int(s.dueS / segS)
		if i < 0 || i >= nseg {
			continue
		}
		segs[i] = append(segs[i], s.latencyMS)
	}
	out := make([]float64, nseg)
	for i, seg := range segs {
		if len(seg) == 0 {
			out[i] = math.Inf(1)
			continue
		}
		sort.Float64s(seg)
		out[i] = percentile(seg, p)
	}
	return out
}

// quietQuartile reduces a phase's readings — one per unit of work, or one
// per window of a serve phase — to the level the program sustains in the
// quieter quarter of them: the upper quartile of rates, the lower
// quartile of latencies. On a shared two-core guest the disturbance is
// one-sided (a neighbour or the hypervisor can only take time away) and
// lasts whole seconds, so a median of a dozen readings still moves with
// it; a quartile needs only a quarter of them undisturbed. Over ten runs
// on a loaded host the quartile's spread was about half the median's.
// What it cannot see is a stall the program itself causes in fewer than
// three readings out of four.
func quietQuartile(readings []float64, higherBetter bool) float64 {
	if len(readings) == 0 {
		return math.NaN()
	}
	s := sortedCopy(readings)
	r := rankOf(len(s), 25)
	if higherBetter {
		return s[len(s)-r] // nearest rank from the top: the mirror image of p25
	}
	return s[r-1]
}

// worseBy is how much worse b reads than a, as a share of a: positive
// when b is lower on a higher-is-better metric or higher on a
// lower-is-better one.
func worseBy(a, b float64, higherBetter bool) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if higherBetter {
		d = -d
	}
	return d
}

// agree reports whether two readings of one metric lie within bound of
// each other in both directions — the -sets repeatability rule.
func agree(a, b, bound float64) bool {
	return worseBy(a, b, true) <= bound && worseBy(a, b, false) <= bound
}
