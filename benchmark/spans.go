package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval: a call into one layer, the span that
// caused it, and the workload it belongs to. Times are nanoseconds
// since the recorder was created.
type span struct {
	Name     string
	Workload string
	Start    int64
	End      int64
	Parent   int // index into recorder.spans, -1 for a root
	Lane     int // goroutine lane, the Chrome trace tid
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing switched off: every method is a no-op, so the untraced run
// pays one nil check per call site.
type recorder struct {
	mu       sync.Mutex
	spans    []span
	workload string
	now      func() int64
}

func newRecorder() *recorder {
	epoch := time.Now()
	return &recorder{now: func() int64 { return int64(time.Since(epoch)) }}
}

// noSpan is the id begin returns when tracing is off.
const noSpan = -1

// setWorkload names the workload that subsequently begun spans belong to.
func (r *recorder) setWorkload(w string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.workload = w
	r.mu.Unlock()
}

// begin opens a span under parent (noSpan for a root) and returns its id.
func (r *recorder) begin(name string, parent, lane int) int {
	if r == nil {
		return noSpan
	}
	t := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Workload: r.workload, Start: t, Parent: parent, Lane: lane})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// replay records a span whose duration was measured elsewhere (a
// component timer inside the program) as a child of parent, laid end to
// end from cursor. It returns the new cursor.
func (r *recorder) replay(name string, parent, lane int, cursor int64, d time.Duration) int64 {
	if r == nil || d <= 0 {
		return cursor
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Workload: r.workload, Start: cursor, End: cursor + int64(d), Parent: parent, Lane: lane})
	r.mu.Unlock()
	return cursor + int64(d)
}

// startOf returns when span id began (0 when tracing is off).
func (r *recorder) startOf(id int) int64 {
	if r == nil || id < 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].Start
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerOf is the module a span is charged to: the part of its name
// before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerShares sums self time by layer over the spans of one workload and
// returns each layer's share of the total.
func layerShares(spans []span, workload string) map[string]float64 {
	self := selfTimes(spans)
	byLayer := map[string]int64{}
	var total int64
	for i, s := range spans {
		if s.Workload != workload {
			continue
		}
		byLayer[layerOf(s.Name)] += self[i]
		total += self[i]
	}
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	for l, v := range byLayer {
		out[l] = float64(v) / float64(total)
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// "X" events, microsecond timestamps), one event per line.
func (r *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range r.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.Name)
		cat, _ := json.Marshal(s.Workload)
		fmt.Fprintf(w, "\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
			name, cat, s.Lane, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, i, s.Parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
