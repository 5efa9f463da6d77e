package comm

import (
	"math"
	"sync/atomic"
	"testing"

	"gristgo/internal/mesh"
	"gristgo/internal/partition"
	"gristgo/internal/precision"
)

func TestSendRecv(t *testing.T) {
	Run(4, func(r *Rank) {
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		r.Send(next, 1, []float64{float64(r.ID())})
		got := r.Recv(prev, 1)
		if got[0] != float64(prev) {
			t.Errorf("rank %d: got %v from %d", r.ID(), got[0], prev)
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	var before, after int64
	Run(8, func(r *Rank) {
		atomic.AddInt64(&before, 1)
		r.Barrier()
		if n := atomic.LoadInt64(&before); n != 8 {
			t.Errorf("rank %d passed barrier with only %d arrivals", r.ID(), n)
		}
		atomic.AddInt64(&after, 1)
	})
	if after != 8 {
		t.Fatalf("after=%d", after)
	}
}

func TestAllReduceSum(t *testing.T) {
	n := 6
	Run(n, func(r *Rank) {
		x := []float64{float64(r.ID()), 1}
		got := r.AllReduceSum(x)
		wantFirst := float64(n * (n - 1) / 2)
		if got[0] != wantFirst || got[1] != float64(n) {
			t.Errorf("rank %d: got %v", r.ID(), got)
		}
		// Twice in a row must work (buffer lifecycle).
		got2 := r.AllReduceSum([]float64{2, 2})
		if got2[0] != float64(2*n) {
			t.Errorf("rank %d: second reduce got %v", r.ID(), got2)
		}
	})
}

func TestAllReduceMax(t *testing.T) {
	Run(5, func(r *Rank) {
		got := r.AllReduceMax(float64(r.ID() * r.ID()))
		if got != 16 {
			t.Errorf("rank %d: max=%v", r.ID(), got)
		}
	})
}

func TestHaloExchangeMirrorsOwners(t *testing.T) {
	m := mesh.New(3)
	nparts := 4
	d := partition.MustDecompose(m, nparts, 3)
	Run(nparts, func(r *Rank) {
		dom := NewDomain(m, d, r.ID())
		f := dom.NewField("q", 3)
		// Owner writes a value derived from the global cell id and level.
		for i, c := range dom.Owned {
			for lev := 0; lev < 3; lev++ {
				f.Set(lev, int32(i), float64(c)*10+float64(lev))
			}
		}
		h := NewHaloExchanger(dom, r)
		h.Register(f)
		h.Exchange()
		// Halo cells must now hold the owner's values.
		for i, c := range dom.Halo {
			li := int32(len(dom.Owned) + i)
			for lev := 0; lev < 3; lev++ {
				want := float64(c)*10 + float64(lev)
				if got := f.At(lev, li); got != want {
					t.Errorf("rank %d: halo cell %d lev %d = %v, want %v", r.ID(), c, lev, got, want)
				}
			}
		}
	})
}

func TestHaloExchangeMultipleVariablesOneCall(t *testing.T) {
	m := mesh.New(3)
	nparts := 3
	d := partition.MustDecompose(m, nparts, 9)
	Run(nparts, func(r *Rank) {
		dom := NewDomain(m, d, r.ID())
		h := NewHaloExchanger(dom, r)
		fields := make([]*Field, 5)
		for fi := range fields {
			fields[fi] = dom.NewField("v", 2)
			for i, c := range dom.Owned {
				for lev := 0; lev < 2; lev++ {
					fields[fi].Set(lev, int32(i), float64(c)+1000*float64(fi)+0.5*float64(lev))
				}
			}
			h.Register(fields[fi])
		}
		if h.NumRegistered() != 5 {
			t.Errorf("registered %d", h.NumRegistered())
		}
		h.Exchange()
		for fi, f := range fields {
			for i, c := range dom.Halo {
				li := int32(len(dom.Owned) + i)
				for lev := 0; lev < 2; lev++ {
					want := float64(c) + 1000*float64(fi) + 0.5*float64(lev)
					if f.At(lev, li) != want {
						t.Fatalf("rank %d field %d halo mismatch", r.ID(), fi)
					}
				}
			}
		}
	})
}

func TestHaloExchangeRepeatedRounds(t *testing.T) {
	m := mesh.New(3)
	nparts := 4
	d := partition.MustDecompose(m, nparts, 5)
	Run(nparts, func(r *Rank) {
		dom := NewDomain(m, d, r.ID())
		f := dom.NewField("x", 1)
		h := NewHaloExchanger(dom, r)
		h.Register(f)
		stale := false // report once, but keep every rank in step so none waits forever
		for round := 0; round < 10; round++ {
			for i := range dom.Owned {
				f.Set(0, int32(i), float64(round))
			}
			h.Exchange()
			for i := range dom.Halo {
				li := int32(len(dom.Owned) + i)
				if f.At(0, li) != float64(round) && !stale {
					stale = true
					t.Errorf("rank %d round %d: halo stale", r.ID(), round)
				}
			}
		}
	})
}

// TestBytesPerExchange checks the reported per-round byte count honors
// each field's wire word size and equals the bytes actually enqueued.
func TestBytesPerExchange(t *testing.T) {
	m := mesh.New(3)
	d := partition.MustDecompose(m, 2, 1)
	Run(2, func(r *Rank) {
		dom := NewDomain(m, d, r.ID())
		h := NewHaloExchanger(dom, r)
		sens := dom.NewField("a", 4)
		insens := dom.NewField("b", 3)
		h.Register(sens)
		h.RegisterInsensitive(insens)
		var sendCells int64
		for pi := range dom.PeerRanks {
			sendCells += int64(len(dom.SendIdx[pi]))
		}
		wantDP := sendCells * (4*8 + 3*8)
		if got := h.BytesPerExchange(); got != wantDP {
			t.Errorf("BytesPerExchange=%d want %d", got, wantDP)
		}
		h.Exchange()
		if got := h.Stats().BytesSent; got != wantDP {
			t.Errorf("enqueued %d bytes, reported %d", got, wantDP)
		}

		// Under Mixed the insensitive field travels FP32.
		h.SetMode(precision.Mixed)
		wantMixed := sendCells * (4*8 + 3*4)
		if got := h.BytesPerExchange(); got != wantMixed {
			t.Errorf("Mixed BytesPerExchange=%d want %d", got, wantMixed)
		}
		h.Exchange()
		if got := h.Stats().BytesSent - wantDP; got != wantMixed {
			t.Errorf("Mixed round enqueued %d bytes, reported %d", got, wantMixed)
		}
	})
}

// TestSendCopiesData: Send must copy the payload into a transport-owned
// buffer, so a caller overwriting its slice right after Send cannot
// corrupt the in-flight message.
func TestSendCopiesData(t *testing.T) {
	Run(2, func(r *Rank) {
		if r.ID() == 0 {
			buf := []float64{1, 2, 3}
			r.Send(1, 5, buf)
			buf[0], buf[1], buf[2] = -9, -9, -9
			r.Barrier()
			return
		}
		r.Barrier() // receive only after the sender scribbled over its slice
		got := r.Recv(0, 5)
		for i, want := range []float64{1, 2, 3} {
			if got[i] != want {
				t.Errorf("got[%d]=%v want %v (in-flight message aliased sender's buffer)", i, got[i], want)
			}
		}
	})
}

// TestStartSealsPayload holds the transport's copy contract: the
// outbound payload of a round is snapshotted at Start, so overlapped
// compute overwriting the registered arrays before Finish cannot change
// what peers receive — the property that makes Start/interior/Finish
// bit-identical to a blocking Exchange. Between Start and Finish every
// rank also NaN-fills its posted send and receive buffers, and every
// rank passes a barrier before any rank finishes: a transport that
// delivered the posted send buffer itself (zero-copy), or a Finish that
// unpacked before its receives completed, hands the poison to the halo.
// It runs in DP and in Mixed, where a second, insensitive field travels
// the FP32 wire.
func TestStartSealsPayload(t *testing.T) {
	m := mesh.New(3)
	nparts := 4
	d := partition.MustDecompose(m, nparts, 3)
	poison := func(bufs [][]byte) {
		for _, b := range bufs {
			for i := range b {
				b[i] = 0xff // a NaN in every FP64 and FP32 word
			}
		}
	}
	for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
		Run(nparts, func(r *Rank) {
			dom := NewDomain(m, d, r.ID())
			fields := []*Field{dom.NewField("q", 2), dom.NewField("s", 2)}
			h := NewHaloExchanger(dom, r)
			h.Register(fields[0])
			h.RegisterInsensitive(fields[1])
			h.SetMode(mode)
			// Every value is an integer plus a half, exact on the FP32 wire.
			value := func(fi int, c int32, round, lev int) float64 {
				return float64(c)*100 + float64(round)*10 + float64(lev) + 0.5*float64(fi)
			}
			failed := false // report once, but keep every rank in step so none waits forever
			for round := 0; round < 5; round++ {
				for fi, f := range fields {
					for i, c := range dom.Owned {
						for lev := 0; lev < 2; lev++ {
							f.Set(lev, int32(i), value(fi, c, round, lev))
						}
					}
				}
				h.Start()
				// Overlapped "compute": scribble over every owned value
				// and every posted buffer while the round is in flight.
				for _, f := range fields {
					for i := range dom.Owned {
						f.Set(0, int32(i), -1)
						f.Set(1, int32(i), -1)
					}
				}
				poison(h.sendBuf)
				poison(h.recvBuf)
				r.Barrier()
				h.Finish()
				for fi, f := range fields {
					for i, c := range dom.Halo {
						li := int32(len(dom.Owned) + i)
						for lev := 0; lev < 2; lev++ {
							want := value(fi, c, round, lev)
							if got := f.At(lev, li); got != want && !failed {
								failed = true
								t.Errorf("%s rank %d round %d: field %s halo cell %d lev %d = %v, want %v",
									mode, r.ID(), round, f.Name, c, lev, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestHaloExchangeSteadyStateAllocFree: after warmup, a full exchange
// round performs zero heap allocations on every rank (AllocsPerRun
// counts mallocs process-wide, so the peer rank's round is measured
// too) — in DP, and in Mixed with a second, insensitive field on the
// FP32 wire.
func TestHaloExchangeSteadyStateAllocFree(t *testing.T) {
	m := mesh.New(3)
	d := partition.MustDecompose(m, 2, 1)
	for _, mode := range []precision.Mode{precision.DP, precision.Mixed} {
		w := NewWorld(2)
		exchanger := func(id int) *HaloExchanger {
			dom := NewDomain(m, d, id)
			h := NewHaloExchanger(dom, &Rank{id: id, w: w})
			h.Register(dom.NewField("x", 3))
			if mode == precision.Mixed {
				h.RegisterInsensitive(dom.NewField("y", 2))
			}
			h.SetMode(mode)
			return h
		}
		start := make(chan struct{})
		done := make(chan struct{})
		go func() {
			h := exchanger(1)
			for range start {
				h.Exchange()
				done <- struct{}{}
			}
		}()
		h := exchanger(0)
		round := func() {
			start <- struct{}{}
			h.Exchange()
			<-done
		}
		// Warm up: build layouts and populate the transport free lists.
		for i := 0; i < 3; i++ {
			round()
		}
		avg := testing.AllocsPerRun(20, round)
		close(start)
		if avg != 0 {
			t.Errorf("%s: steady-state exchange allocates %.1f objects/round, want 0", mode, avg)
		}
	}
}

// TestDistributedSumMatchesSerial computes a global integral two ways.
func TestDistributedSumMatchesSerial(t *testing.T) {
	m := mesh.New(4)
	var serial float64
	for c := 0; c < m.NCells; c++ {
		serial += m.CellArea[c] * math.Sin(m.CellLat[c]+1)
	}
	nparts := 8
	d := partition.MustDecompose(m, nparts, 17)
	Run(nparts, func(r *Rank) {
		dom := NewDomain(m, d, r.ID())
		var local float64
		for _, c := range dom.Owned {
			local += m.CellArea[c] * math.Sin(m.CellLat[c]+1)
		}
		global := r.AllReduceSum([]float64{local})[0]
		if rel := math.Abs(global-serial) / math.Abs(serial); rel > 1e-12 {
			t.Errorf("rank %d: distributed sum off by %g", r.ID(), rel)
		}
	})
}

func TestRecvTagMismatchPanics(t *testing.T) {
	Run(2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, []float64{1})
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("tag mismatch did not panic")
			}
		}()
		r.Recv(0, 8)
	})
}

func TestWorldSize(t *testing.T) {
	if NewWorld(5).Size() != 5 {
		t.Error("world size")
	}
	Run(3, func(r *Rank) {
		if r.Size() != 3 {
			t.Error("rank's world size")
		}
	})
}
