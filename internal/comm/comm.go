// Package comm provides the message-passing runtime of the model: an
// MPI-like world of SPMD ranks (goroutines in this in-process
// reproduction), point-to-point sends/receives, collectives, and the
// paper's parallelization facilitation layer — halo exchange in which all
// registered variables are gathered through a linked list and exchanged
// with a single call per peer (§3.1.3).
//
// The transport moves raw bytes: word size is a property of the packer
// (the halo layer ships FP32 payloads for precision-insensitive fields
// under the Mixed mode), not of the channel. Payload buffers are owned
// by the transport — a send copies the caller's data into a recycled
// per-channel buffer, so callers may reuse their pack buffers
// immediately — and recycled buffers make the steady state of a
// repeated exchange allocation-free. TestSendCopiesData and
// TestStartSealsPayload hold this copy contract; any other transport
// must pass them.
package comm

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"
)

// message is a tagged payload between two ranks. data is transport-owned
// and returns to the channel's free list once the receiver copies it out.
type message struct {
	tag  int
	data []byte
}

// World is a communicator connecting n SPMD ranks.
type World struct {
	n     int
	boxes [][]chan message // boxes[to][from]
	free  [][]chan []byte  // recycled payload buffers per (to, from)

	inj Injector // nil outside fault-injection runs

	barrier *barrier

	reduceMu  sync.Mutex
	reduceBuf []float64
	reduceN   int
	reduceGen int
	reduceC   *sync.Cond
}

// Injector intercepts every delivery attempt of a World for seeded,
// deterministic fault injection (see internal/fault). OnSend may mutate
// data in place (bit-flip corruption), delay the sender (the returned
// duration is slept before delivery, preserving per-channel FIFO order),
// or drop the attempt. A dropped attempt models a lossy link, not a
// guaranteed loss: the transport retries with bounded exponential
// backoff and only discards the message after maxSendAttempts drops.
// Implementations must be safe for concurrent use by all ranks.
type Injector interface {
	OnSend(from, to, tag, attempt int, data []byte) (drop bool, delay time.Duration)
}

// SetInjector installs (or, with nil, removes) the world's fault
// injector. Call before the ranks start communicating; the delivery path
// reads the field without synchronization.
func (w *World) SetInjector(inj Injector) { w.inj = inj }

// Delivery-retry policy for messages an injector reports as dropped:
// the first redelivery waits retryBackoffBase and each further one
// doubles it up to retryBackoffCap; after maxSendAttempts verdicts the
// message is discarded for good.
const (
	maxSendAttempts  = 7
	retryBackoffBase = 50 * time.Microsecond
	retryBackoffCap  = 5 * time.Millisecond
)

// post delivers a transport-owned buffer to boxes[to][from], consulting
// the injector when one is installed. The buffer of a message lost after
// all retries is recycled. Blocking the sender in-line for delays and
// retries keeps each (to, from) channel strictly FIFO, which the
// tag-matched Wait protocol requires.
func (w *World) post(to, from, tag int, buf []byte) {
	if w.inj != nil && !w.admit(to, from, tag, buf) {
		w.putBuf(to, from, buf)
		return
	}
	w.boxes[to][from] <- message{tag: tag, data: buf}
}

// admit runs the injector's verdicts for one message, sleeping through
// injected delays and retry backoff. Returns false when every attempt
// was dropped and the message is lost.
func (w *World) admit(to, from, tag int, buf []byte) bool {
	backoff := retryBackoffBase
	for attempt := 0; attempt < maxSendAttempts; attempt++ {
		drop, delay := w.inj.OnSend(from, to, tag, attempt, buf)
		if delay > 0 {
			time.Sleep(delay)
		}
		if !drop {
			return true
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > retryBackoffCap {
			backoff = retryBackoffCap
		}
	}
	return false
}

// NewWorld creates a communicator for n ranks.
func NewWorld(n int) *World {
	w := &World{n: n, boxes: make([][]chan message, n), free: make([][]chan []byte, n), barrier: newBarrier(n)}
	for to := 0; to < n; to++ {
		w.boxes[to] = make([]chan message, n)
		w.free[to] = make([]chan []byte, n)
		for from := 0; from < n; from++ {
			w.boxes[to][from] = make(chan message, 16)
			w.free[to][from] = make(chan []byte, 16)
		}
	}
	w.reduceC = sync.NewCond(&w.reduceMu)
	return w
}

// getBuf returns a transport-owned buffer of length n for the (to, from)
// channel, recycling a previously delivered one when possible. Message
// sizes on a channel are stable across exchange rounds, so the steady
// state allocates nothing.
func (w *World) getBuf(to, from, n int) []byte {
	select {
	case buf := <-w.free[to][from]:
		if cap(buf) >= n {
			return buf[:n]
		}
	default:
	}
	// Cold start and size growth only: putBuf recycles the buffer every
	// steady-state round.
	return make([]byte, n)
}

// putBuf returns a delivered buffer to its channel's free list (dropped
// if the list is full).
func (w *World) putBuf(to, from int, buf []byte) {
	select {
	case w.free[to][from] <- buf:
	default:
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// Run executes body once per rank, concurrently, and waits for all ranks
// to return.
func Run(n int, body func(r *Rank)) {
	RunOn(NewWorld(n), body)
}

// RunOn executes body once per rank of an existing world, concurrently,
// and waits for all ranks to return. Use it when the world needs
// pre-run configuration (SetInjector) that must be in place before the
// first message. Each rank goroutine carries a pprof label
// (grist_rank), so CPU profiles of a distributed run segment by rank —
// the profiler-side counterpart of the flight recorder's per-rank span
// attribution.
func RunOn(w *World, body func(r *Rank)) {
	var wg sync.WaitGroup
	wg.Add(w.n)
	for id := 0; id < w.n; id++ {
		go func(id int) {
			defer wg.Done()
			labels := pprof.Labels("grist_rank", strconv.Itoa(id), "grist_phase", "distributed_run")
			pprof.Do(context.Background(), labels, func(context.Context) {
				body(&Rank{id: id, w: w})
			})
		}(id)
	}
	wg.Wait()
}

// Rank is one SPMD process within a World.
type Rank struct {
	id int
	w  *World
}

// ID returns this rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.w.n }

// Request is the handle of a nonblocking operation. Sends complete at
// post time (the payload is copied into a transport-owned buffer);
// receives complete in Wait, which drains the channel and copies the
// payload into the destination buffer.
type Request struct {
	rank    *Rank
	from    int
	tag     int
	dst     []byte
	pending bool
}

// ISend posts data to the destination rank under the given tag. The
// payload is copied into a transport-owned buffer before the call
// returns, so the caller keeps ownership of data and may overwrite it
// immediately (no aliasing with in-flight messages). The returned
// request is already complete.
func (r *Rank) ISend(to, tag int, data []byte) Request {
	buf := r.w.getBuf(to, r.id, len(data))
	copy(buf, data)
	r.w.post(to, r.id, tag, buf)
	return Request{}
}

// IRecv posts a receive of the next message from the source rank into
// dst. The matching message may arrive (and sit buffered in the channel)
// while the caller computes; Wait completes the transfer. dst must be
// exactly the message length.
func (r *Rank) IRecv(from, tag int, dst []byte) Request {
	return Request{rank: r, from: from, tag: tag, dst: dst, pending: true}
}

// Wait completes the request. Our exchange protocols are deterministic,
// so a tag or size mismatch is a program error and panics.
func (q *Request) Wait() {
	if !q.pending {
		return
	}
	r := q.rank
	q.complete(<-r.w.boxes[r.id][q.from])
}

// complete validates a delivered message against the posted receive and
// copies the payload out, returning the transport buffer to the free
// list.
func (q *Request) complete(m message) {
	r := q.rank
	if m.tag != q.tag {
		panic(fmt.Sprintf("comm: rank %d expected tag %d from %d, got %d", r.id, q.tag, q.from, m.tag))
	}
	if len(m.data) != len(q.dst) {
		panic(fmt.Sprintf("comm: rank %d expected %d bytes from %d, got %d", r.id, len(q.dst), q.from, len(m.data)))
	}
	copy(q.dst, m.data)
	r.w.putBuf(r.id, q.from, m.data)
	q.pending = false
}

// WaitAll completes every request in the slice.
func (r *Rank) WaitAll(reqs []Request) {
	for i := range reqs {
		reqs[i].Wait()
	}
}

// Send delivers float64 data to the destination rank under the given
// tag. The data is copied into a transport-owned buffer; the caller
// keeps ownership of the slice.
func (r *Rank) Send(to, tag int, data []float64) {
	buf := r.w.getBuf(to, r.id, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	r.w.post(to, r.id, tag, buf)
}

// Recv receives the next message from the source rank, checks its tag,
// and returns a fresh float64 decode of the payload.
func (r *Rank) Recv(from, tag int) []float64 {
	m := <-r.w.boxes[r.id][from]
	if m.tag != tag {
		panic(fmt.Sprintf("comm: rank %d expected tag %d from %d, got %d", r.id, tag, from, m.tag))
	}
	out := make([]float64, len(m.data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(m.data[8*i:]))
	}
	r.w.putBuf(r.id, from, m.data)
	return out
}

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier() { r.w.barrier.await(r.id, 0) }

// BarrierTimeout enters the barrier but gives up after d, returning a
// *TimeoutError naming the ranks that had arrived and the ranks still
// missing — the diagnostic a hung collective needs instead of a
// deadlocked binary. A nil return means the barrier completed normally.
func (r *Rank) BarrierTimeout(d time.Duration) error {
	if err := r.w.barrier.await(r.id, d); err != nil {
		return err // typed-nil guard: only wrap a real timeout in the interface
	}
	return nil
}

// barrier is a reusable n-party barrier that tracks which ranks have
// arrived in the current generation, so a timed-out waiter can report
// exactly who is missing.
type barrier struct {
	mu      sync.Mutex
	n       int
	count   int
	arrived []bool
	done    chan struct{} // closed when the current generation completes
}

func newBarrier(n int) *barrier {
	return &barrier{n: n, arrived: make([]bool, n), done: make(chan struct{})}
}

// await enters the barrier as rank id. With d <= 0 it blocks until the
// generation completes; otherwise it gives up after d and returns a
// timeout error snapshotting the arrival set. A rank that timed out has
// still arrived: if the stragglers eventually show up the generation
// completes without it.
func (b *barrier) await(id int, d time.Duration) *TimeoutError {
	b.mu.Lock()
	b.arrived[id] = true
	b.count++
	if b.count == b.n {
		b.count = 0
		for i := range b.arrived {
			b.arrived[i] = false
		}
		close(b.done)
		b.done = make(chan struct{})
		b.mu.Unlock()
		return nil
	}
	done := b.done
	b.mu.Unlock()
	if d <= 0 {
		<-done
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-t.C:
	}
	// Timed out: re-check under the lock (the generation may have
	// completed while the timer fired) and snapshot the arrival set.
	select {
	case <-done:
		return nil
	default:
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if done != b.done {
		return nil // generation completed between the timer and the lock
	}
	err := &TimeoutError{Op: "barrier", Rank: id, Wait: d}
	for i, a := range b.arrived {
		if a {
			err.Arrived = append(err.Arrived, i)
		} else {
			err.Missing = append(err.Missing, i)
		}
	}
	return err
}

// AllReduceSum sums x element-wise across all ranks; every rank receives
// the same result (a new slice).
func (r *Rank) AllReduceSum(x []float64) []float64 {
	w := r.w
	w.reduceMu.Lock()
	if w.reduceBuf == nil {
		w.reduceBuf = make([]float64, len(x))
	}
	if len(w.reduceBuf) != len(x) {
		panic("comm: AllReduceSum length mismatch across ranks")
	}
	for i, v := range x {
		w.reduceBuf[i] += v
	}
	w.reduceN++
	gen := w.reduceGen
	if w.reduceN == w.n {
		w.reduceGen++
		w.reduceC.Broadcast()
	} else {
		for gen == w.reduceGen {
			w.reduceC.Wait()
		}
	}
	out := make([]float64, len(x))
	copy(out, w.reduceBuf)
	w.reduceN--
	if w.reduceN == 0 {
		w.reduceBuf = nil
	}
	w.reduceMu.Unlock()
	// Keep ranks in lockstep so the next reduction cannot overlap.
	r.Barrier()
	return out
}

// AllReduceMax returns the maximum of v across all ranks.
func (r *Rank) AllReduceMax(v float64) float64 {
	// Two-phase: gather to rank 0, broadcast the result.
	const tag = -7771
	if r.id == 0 {
		m := v
		for src := 1; src < r.w.n; src++ {
			x := r.Recv(src, tag)
			if x[0] > m {
				m = x[0]
			}
		}
		for dst := 1; dst < r.w.n; dst++ {
			r.Send(dst, tag, []float64{m})
		}
		return m
	}
	r.Send(0, tag, []float64{v})
	return r.Recv(0, tag)[0]
}
