package obs

import (
	"io"
	"sort"

	"gristgo/internal/telemetry"
)

// WriteChromeTrace writes the merged timeline as Chrome trace_event
// JSON (chrome://tracing, Perfetto) through telemetry's encoder.
// Mapping:
//
//   - pid is the source ring index (one process per ring), tid the
//     rank, so each rank gets its own row grouped under its process;
//   - ts/dur are microseconds since the ring's first retained span
//     (per-ring normalization — cross-ring horizontal alignment is
//     approximate; the step arg is the global alignment key);
//   - args.step is the model step; spans on their step's critical path
//     (per pm) additionally carry args.crit=1, so the binding chain can
//     be highlighted in the viewer. Pass a nil pm to skip marking.
//
// Output is deterministic for a given timeline: spans are ordered by
// (ring, rank, start, longer-first), the per-row order the viewers
// require for correct nesting.
func (t *Timeline) WriteChromeTrace(w io.Writer, pm *Postmortem) error {
	type critKey struct {
		step  int64
		rank  int32
		name  string
		index int
	}
	crit := make(map[critKey]bool)
	if pm != nil {
		for _, rep := range pm.Steps {
			for _, h := range rep.CriticalPath {
				crit[critKey{rep.Step, h.Rank, h.Name, h.Index}] = true
			}
		}
	}
	var evs []telemetry.ChromeEvent
	for _, st := range t.Steps {
		for _, rs := range st.Ranks {
			for _, sp := range rs.Spans {
				evs = append(evs, telemetry.ChromeEvent{
					Event: telemetry.Event{Name: sp.Name, Rank: sp.Rank, Step: sp.Step, Start: sp.Start, Dur: sp.Dur},
					Pid:   sp.Ring,
					Crit:  crit[critKey{sp.Step, sp.Rank, sp.Name, sp.Index}],
				})
			}
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Pid != evs[j].Pid {
			return evs[i].Pid < evs[j].Pid
		}
		if evs[i].Rank != evs[j].Rank {
			return evs[i].Rank < evs[j].Rank
		}
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].Dur > evs[j].Dur
	})
	return telemetry.EncodeChromeTrace(w, evs)
}
