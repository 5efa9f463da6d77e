package obs

// Critical-path reconstruction over one step's merged timeline.
//
// The dependency model mirrors the dynamics step's actual structure:
//
//   - Intra-rank: a rank executes its leaf spans sequentially, so each
//     leaf depends on the previous leaf of the same rank (ring order is
//     completion order, which for sequential leaves is chronological).
//     Containers (dyn_step, halo_start, ...) are excluded — their time
//     is their leaves' time.
//
//   - Cross-rank: the k-th halo_wait of a rank cannot complete before
//     the k-th halo_pack of its peers has completed — the wait is, by
//     construction, the receiver blocking until senders have produced
//     and posted their halos. The merged ring carries no neighbor
//     topology, so the edge set is conservatively all-peers; for the
//     lat-band decomposition every rank really does exchange with its
//     neighbors each round, and the longest-path selection picks the
//     binding sender anyway.
//
// Path length is the sum of *work* along the chain — and crucially,
// wait spans contribute zero weight. A halo_wait is idle time whose
// duration is an effect of its dependencies, not a cause: under
// lockstep synchronization every rank's wall equalizes because the
// peers absorb a straggler's excess as wait, so a path metric that
// counted wait duration as work would rate the waiter's chain exactly
// as long as the straggler's and never localize the bottleneck. With
// waits weightless, the longest chain of actual work respecting the
// dependency edges is the straggler's compute chain — the spans that,
// if sped up, would actually speed up the step. Everything off the
// path had slack.

// PathSpan is one hop of a step's critical path, most-upstream first.
// (Rank, Name, Index) identifies the span in the merged timeline; Index
// is the occurrence number within the rank's step (see Span.Index).
// DurNS is the measured duration — for a halo_wait hop this is the
// observed idle time, which the path traverses but does not count as
// work (see the package comment on path length).
type PathSpan struct {
	Rank  int32  `json:"rank"`
	Name  string `json:"name"`
	Index int    `json:"index"`
	DurNS int64  `json:"dur_ns"`
}

// CriticalPath computes the deterministic longest work chain through
// one step and its total work (nanoseconds of non-wait span time on the
// path). Ties are broken toward the earliest (rank, ring-position)
// span, so replays over the same timeline return identical paths.
func CriticalPath(st *StepTimeline) ([]PathSpan, int64) {
	type node struct {
		rank int // index into st.Ranks
		span Span
		prev int // same-rank predecessor node id, -1 for the first leaf
		wait int // k for the k-th halo_wait of this rank, else -1
	}
	var nodes []node
	packs := make([][]int, len(st.Ranks)) // packs[r][k] = node id of rank r's k-th halo_pack
	for ri, rs := range st.Ranks {
		last := -1
		nwait := 0
		for _, sp := range rs.Spans {
			if PhaseOf(sp.Name) == PhaseContainer {
				continue
			}
			n := node{rank: ri, span: sp, prev: last, wait: -1}
			if sp.Name == "halo_wait" {
				n.wait = nwait
				nwait++
			}
			if sp.Name == "halo_pack" {
				packs[ri] = append(packs[ri], len(nodes))
			}
			nodes = append(nodes, n)
			last = len(nodes) - 1
		}
	}
	if len(nodes) == 0 {
		return nil, 0
	}

	// Memoized longest-path DP. Once a flight ring wraps, a rank's k-th
	// wait can meet a peer's k-th pack from a later exchange, which
	// cannot have fed it; so a wait -> pack edge is taken only when the
	// pack started before the wait ended. That keeps the graph acyclic:
	// a cycle would run wait W1 -> pack K2 -> (prev edges back through
	// rank 2) -> wait W2 -> pack K3 -> ... -> W1, and on each rank the
	// wait ends before the pack after it starts, so end(W2) <= start(K2)
	// < end(W1), and so on around the cycle to end(W1) < end(W1).
	dist := make([]int64, len(nodes))
	pred := make([]int, len(nodes))
	done := make([]bool, len(nodes))
	var longest func(i int) int64
	longest = func(i int) int64 {
		if done[i] {
			return dist[i]
		}
		n := &nodes[i]
		best, bp := int64(0), -1
		relax := func(j int) {
			// Strictly-greater keeps the first candidate on ties: the
			// same-rank predecessor, then peers in rank order.
			if d := longest(j); d > best {
				best, bp = d, j
			}
		}
		if n.prev >= 0 {
			relax(n.prev)
		}
		if n.wait >= 0 {
			for ri := range packs {
				if ri == n.rank || n.wait >= len(packs[ri]) {
					continue
				}
				if pk := packs[ri][n.wait]; nodes[pk].span.Start < n.span.Start+n.span.Dur {
					relax(pk)
				}
			}
		}
		work := n.span.Dur
		if n.wait >= 0 {
			work = 0 // waiting is not work; see the file comment
		}
		dist[i] = best + work
		pred[i] = bp
		done[i] = true
		return dist[i]
	}

	end, endDist := 0, int64(-1)
	for i := range nodes {
		// Node ids follow (rank, ring-position) order, so strictly-greater
		// keeps the earliest endpoint on ties.
		if d := longest(i); d > endDist {
			end, endDist = i, d
		}
	}

	var rev []PathSpan
	for i := end; i >= 0; i = pred[i] {
		sp := nodes[i].span
		rev = append(rev, PathSpan{Rank: sp.Rank, Name: sp.Name, Index: sp.Index, DurNS: sp.Dur})
	}
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev, endDist
}
