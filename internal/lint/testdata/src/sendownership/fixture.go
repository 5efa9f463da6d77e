// Fixture for sendownership: buffers touched after being handed to the
// transport, plus the three release paths (synchronization, whole-
// variable rebinding, untrackable call-result payloads).
package fixture

type Rank struct{}

func (r *Rank) ISend(to, tag int, data []byte)  {}
func (r *Rank) Send(to, tag int, data []byte)   {}
func (r *Rank) IRecv(from, tag int, dst []byte) {}
func (r *Rank) WaitAll()                        {}

// HaloExchanger mirrors the comm exchanger: Start/Finish bracket a
// round; SwapLayout rebinds the index sets to a new decomposition.
type HaloExchanger struct{}

func (h *HaloExchanger) Start()           {}
func (h *HaloExchanger) Finish()          {}
func (h *HaloExchanger) Exchange()        {}
func (h *HaloExchanger) SwapLayout(l int) {}

func writeAfterISend(r *Rank, buf []byte) {
	r.ISend(1, 2, buf)
	buf[0] = 9 // want `transport-owned after ISend`
}

func readAfterIRecv(r *Rank, dst []byte) {
	r.IRecv(1, 2, dst)
	_ = dst[0] // want `transport-owned after IRecv`
}

func reuseAfterSend(r *Rank, buf []byte, n int) {
	r.Send(1, 2, buf)
	for i := 0; i < n; i++ {
		buf[i] = 0 // want `transport-owned after Send`
	}
}

func insideLoop(r *Rank, bufs [][]byte) {
	for i := range bufs {
		r.ISend(i, 0, bufs[i])
		bufs[i][0] = 1 // want `transport-owned after ISend`
	}
}

func synchronized(r *Rank, buf []byte) {
	r.ISend(1, 2, buf)
	r.WaitAll()
	buf[0] = 9 // the round completed: ownership is back
}

func rebound(r *Rank, buf []byte) {
	r.ISend(1, 2, buf)
	buf = make([]byte, 8) // rebinding drops the alias to the sent memory
	buf[0] = 1
}

func callResult(r *Rank, pack func() []byte) {
	r.ISend(1, 2, pack()) // payload has no name; nothing to misuse
}

// guardClause is the collective/IO idiom: a non-root branch sends and
// returns, so the fall-through path never aliases an in-flight buffer.
func guardClause(r *Rank, root bool, buf []byte) []byte {
	if !root {
		r.Send(0, 1, buf)
		return nil
	}
	buf[0] = 1
	return buf
}

func swapMidRound(h *HaloExchanger, l int) {
	h.Start()
	h.SwapLayout(l) // want `mutates the halo layout of an in-flight round`
	h.Finish()
}

func swapBetweenRounds(h *HaloExchanger, l int) {
	h.Start()
	h.Finish()
	h.SwapLayout(l) // the round completed: repartitioning is safe here
	h.Start()
	h.Finish()
}

func swapAfterBlockingRound(h *HaloExchanger, l int) {
	h.Exchange()
	h.SwapLayout(l) // blocking rounds complete inline; never in flight
}

// swapOtherExchanger: a different exchanger's round is not ours.
func swapOtherExchanger(a, b *HaloExchanger, l int) {
	a.Start()
	b.SwapLayout(l)
	a.Finish()
}

func swapInLoop(h *HaloExchanger, layouts []int) {
	for _, l := range layouts {
		h.Start()
		h.SwapLayout(l) // want `mutates the halo layout of an in-flight round`
		h.Finish()
	}
}

// labeledLoop: a labeled statement's body is a statement list like any
// other.
func labeledLoop(r *Rank, bufs [][]byte) {
outer:
	for i := range bufs {
		r.ISend(i, 0, bufs[i])
		bufs[i][0] = 1 // want `transport-owned after ISend`
		if i > 3 {
			break outer
		}
	}
}
