package comm

// Deadline-bounded waits. Every blocking primitive of the transport has
// a timeout variant here, so a dead or stalled rank surfaces as a typed
// error naming exactly which peers delivered and which never arrived,
// instead of hanging the binary. The distributed runner (core.Run, when
// its spec has an Injector, Dir or Monitor) treats these errors as
// rank-failure detections and rolls back to the last checkpoint epoch.

import (
	"fmt"
	"time"
)

// TimeoutError reports a deadline-bounded wait that expired: the
// operation, the waiting rank, and the split of peers into those whose
// messages (or barrier arrivals) were observed and those still missing.
type TimeoutError struct {
	Op      string // "barrier", "wait_all", "halo_finish"
	Rank    int
	Wait    time.Duration
	Arrived []int
	Missing []int
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("comm: rank %d %s timed out after %v: arrived %v, missing %v",
		e.Rank, e.Op, e.Wait, e.Arrived, e.Missing)
}

// waitTimer completes the request like Wait but gives up at deadline,
// reporting whether the message arrived. t must be a stopped/drained
// timer owned by the caller; it is reset here and left stopped, so one
// timer serves a whole request slice without per-wait allocations.
func (q *Request) waitTimer(t *time.Timer, deadline time.Time) bool {
	if !q.pending {
		return true
	}
	r := q.rank
	d := time.Until(deadline)
	if d <= 0 {
		return false
	}
	t.Reset(d)
	select {
	case m := <-r.w.boxes[r.id][q.from]:
		if !t.Stop() {
			<-t.C
		}
		q.complete(m)
		return true
	case <-t.C:
		return false
	}
}

// newWaitTimer returns a stopped, drained timer for waitTimer. Cold
// path: call once and reuse.
func newWaitTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}

// WaitAllDeadline completes every request in the slice but gives up d
// after the call, returning a *TimeoutError naming the source ranks
// whose messages arrived and those that never delivered. Requests still
// pending after an error may be completed later with Wait; the
// resilience layer instead abandons the whole world.
func (r *Rank) WaitAllDeadline(reqs []Request, d time.Duration) error {
	t := newWaitTimer()
	defer t.Stop()
	deadline := time.Now().Add(d)
	timedOut := false
	for i := range reqs {
		if !reqs[i].waitTimer(t, deadline) {
			timedOut = true
		}
	}
	if !timedOut {
		return nil
	}
	return waitAllTimeoutError(r.id, "wait_all", d, reqs)
}

// waitAllTimeoutError snapshots the arrival state of a request slice
// into a TimeoutError.
func waitAllTimeoutError(rank int, op string, d time.Duration, reqs []Request) *TimeoutError {
	err := &TimeoutError{Op: op, Rank: rank, Wait: d}
	for i := range reqs {
		if reqs[i].rank == nil {
			continue // completed-at-post send handles carry no source
		}
		if reqs[i].pending {
			err.Missing = append(err.Missing, reqs[i].from)
		} else {
			err.Arrived = append(err.Arrived, reqs[i].from)
		}
	}
	return err
}

// SetDeadline bounds every subsequent Finish: if a peer's halo message
// has not arrived d after the wait begins, Finish panics with a
// *TimeoutError naming the peers that delivered and those that did not.
// The resilient runner recovers the panic and turns it into a rollback;
// an unattended run gets the rank dump in the crash report instead of a
// silent hang. d <= 0 restores unbounded waits.
func (h *HaloExchanger) SetDeadline(d time.Duration) {
	if d <= 0 {
		h.deadline = 0
		return
	}
	h.deadline = d
	if h.dlTimer == nil {
		h.dlTimer = newWaitTimer()
	}
	// Timeout escalation lives behind a function value so the hot-path
	// allocation lint does not charge the (cold, terminal) error
	// construction to Finish.
	h.onTimeout = func() {
		panic(waitAllTimeoutError(h.rank.id, "halo_finish", h.deadline, h.recvReqs))
	}
}

// waitAllDeadline is Finish's deadline-bounded wait leg: completes the
// posted receives, escalating through onTimeout when a peer never
// delivers within the configured deadline.
func (h *HaloExchanger) waitAllDeadline() {
	deadline := time.Now().Add(h.deadline)
	for i := range h.recvReqs {
		if !h.recvReqs[i].waitTimer(h.dlTimer, deadline) {
			h.onTimeout()
		}
	}
}
