package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone int64 counter. All operations are atomic.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value float64 metric. All operations are atomic.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value (zero until first Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of log2-spaced histogram buckets. Bucket i
// counts observations in [2^(i-histBias), 2^(i-histBias+1)); bucket 0
// additionally absorbs non-positive values. With bias 33 the resolved
// range spans ~0.1 ns to ~2e9 s — every latency this model produces.
const (
	histBuckets = 64
	histBias    = 33
)

// Histogram accumulates float64 observations into log2-spaced buckets
// and keeps count, sum, extrema and an exponentially weighted moving
// average (EWMA). Quantiles are approximate (one bucket of resolution,
// i.e. within a factor of two). Safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	ewma    float64
	primed  bool
	alpha   float64
	buckets [histBuckets]int64

	// exemplars holds the most recent exemplar label (a trace id) per
	// bucket, so "what request landed in the p99 bucket?" has an answer
	// one can paste into /debug/query/{id}. Fixed storage; overwritten
	// in place, never allocated per observation.
	exemplars [histBuckets]string
}

// ewmaAlpha is the default EWMA smoothing factor: each observation
// contributes 10%, so the average reflects roughly the last ~20 samples.
const ewmaAlpha = 0.1

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar records one value and attaches an exemplar label (a
// trace id) to the bucket it lands in, replacing the bucket's previous
// exemplar. Allocation-free apart from the caller's label.
func (h *Histogram) ObserveExemplar(v float64, exemplar string) {
	h.mu.Lock()
	if h.alpha == 0 {
		h.alpha = ewmaAlpha
	}
	h.count++
	h.sum += v
	if !h.primed {
		h.min, h.max, h.ewma = v, v, v
		h.primed = true
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
		h.ewma += h.alpha * (v - h.ewma)
	}
	b := bucketOf(v)
	h.buckets[b]++
	if exemplar != "" {
		h.exemplars[b] = exemplar
	}
	h.mu.Unlock()
}

// ExemplarNear returns the exemplar of the bucket holding the
// q-quantile observation, falling back to the nearest lower bucket
// carrying one ("" when no exemplar has been recorded at or below the
// quantile). The p99 exemplar is the usual question: which request was
// the slow one.
func (h *Histogram) ExemplarNear(q float64) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return ""
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	qb := histBuckets - 1
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i]
		if cum >= target {
			qb = i
			break
		}
	}
	for i := qb; i >= 0; i-- {
		if h.exemplars[i] != "" {
			return h.exemplars[i]
		}
	}
	return ""
}

// bucketOf maps a value to its log2 bucket index.
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	i := int(math.Floor(math.Log2(v))) + histBias
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketMid returns the representative value of bucket i (the geometric
// midpoint of its range).
func bucketMid(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Ldexp(1.5, i-histBias)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// EWMA returns the exponentially weighted moving average of the
// observations (zero before the first).
func (h *Histogram) EWMA() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ewma
}

// Mean returns the arithmetic mean of all observations.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the approximate q-quantile (0 <= q <= 1): the
// representative value of the bucket containing the q-th ranked
// observation. Exact min/max are returned at the extremes.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := int64(math.Ceil(q * float64(h.count)))
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i]
		if cum >= target {
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// metricKind tags a registry entry's type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered instrument plus its identity.
type metric struct {
	name   string
	labels string // pre-rendered `{k="v",...}` or ""
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// key returns the unique registry key.
func (m *metric) key() string { return m.name + m.labels }

// Registry is a concurrency-safe collection of named metrics. Lookup is
// get-or-create: two callers asking for the same (name, labels) share
// one instrument, so component counters aggregate naturally. Handles
// returned by Counter/Gauge/Histogram are stable; hot paths resolve them
// once and then operate lock-free (atomics) or under a per-instrument
// mutex (histograms).
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*metric{}}
}

// renderLabels serializes k/v pairs into the canonical `{k="v",...}`
// form, sorted by key for deterministic export.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key/value pairs")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup returns the metric under (name, labels), creating it with mk
// when absent; it panics when the existing entry has a different kind.
func (r *Registry) lookup(name string, labels []string, kind metricKind) *metric {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[name+ls]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %s%s registered as %v, requested as %v",
				name, ls, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, labels: ls, kind: kind}
	switch kind {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	case kindHistogram:
		m.h = &Histogram{alpha: ewmaAlpha}
	}
	r.byKey[m.key()] = m
	return m
}

// Counter returns the counter under (name, labels...), creating it on
// first use. labels are alternating key/value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, labels, kindCounter).c
}

// Gauge returns the gauge under (name, labels...), creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, labels, kindGauge).g
}

// Histogram returns the histogram under (name, labels...), creating it
// on first use.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	return r.lookup(name, labels, kindHistogram).h
}

// sorted returns the registered metrics ordered by (name, labels) for
// deterministic export.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.byKey))
	for _, m := range r.byKey {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}
