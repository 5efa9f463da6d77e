package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteChromeTrace writes the recorder's held spans as Chrome
// trace_event JSON (the "X" complete-event form), loadable in
// chrome://tracing and https://ui.perfetto.dev: pid 0 is the model
// process, tid the MPI rank (one row per rank, nested spans stacking
// within it), ts/dur microseconds since the recorder epoch, args.step
// the model step. Events go out in (start, longer-first) order, which
// the viewers require for correct nesting of equal-start spans.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	var evs []ChromeEvent
	for _, ev := range r.Snapshot() {
		evs = append(evs, ChromeEvent{Event: ev})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].Dur > evs[j].Dur
	})
	return EncodeChromeTrace(w, evs)
}

// ChromeEvent is a span on timeline row (Pid, Rank); Crit adds
// args.crit=1 beside args.step.
type ChromeEvent struct {
	Event
	Pid  int
	Crit bool
}

// EncodeChromeTrace writes evs, in the order given, as Chrome
// trace_event JSON with ts/dur in microseconds.
func EncodeChromeTrace(w io.Writer, evs []ChromeEvent) error {
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	sep := ""
	for _, ev := range evs {
		mark := ""
		if ev.Crit {
			mark = `,"crit":1`
		}
		if _, err := fmt.Fprintf(w,
			"%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"step\":%d%s}}",
			sep, strconv.Quote(ev.Name), ev.Pid, ev.Rank, micros(ev.Start), micros(ev.Dur), ev.Step, mark); err != nil {
			return err
		}
		sep = ","
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// micros renders nanoseconds as decimal microseconds with nanosecond
// resolution preserved (integer math; no float wobble in goldens).
func micros(ns int64) string {
	sign := ""
	if ns < 0 {
		sign = "-"
		ns = -ns
	}
	return fmt.Sprintf("%s%d.%03d", sign, ns/1000, ns%1000)
}
