package comm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gristgo/internal/fault"
	"gristgo/internal/mesh"
	"gristgo/internal/partition"
)

// BarrierTimeout on a barrier a rank never enters must report exactly
// which ranks arrived and which are missing, instead of hanging.
func TestBarrierTimeoutReportsMissing(t *testing.T) {
	w := NewWorld(3)
	var mu sync.Mutex
	var errs []error
	RunOn(w, func(r *Rank) {
		if r.ID() == 2 {
			return // the dead rank
		}
		err := r.BarrierTimeout(30 * time.Millisecond)
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	})
	if len(errs) != 2 {
		t.Fatalf("got %d results, want 2", len(errs))
	}
	for _, err := range errs {
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("got %v, want *TimeoutError", err)
		}
		if len(te.Missing) != 1 || te.Missing[0] != 2 {
			t.Fatalf("Missing = %v, want [2]", te.Missing)
		}
		if len(te.Arrived) != 2 {
			t.Fatalf("Arrived = %v, want both live ranks", te.Arrived)
		}
	}
}

// When everyone shows up, BarrierTimeout behaves exactly like Barrier
// and keeps working across generations.
func TestBarrierTimeoutCompletes(t *testing.T) {
	Run(4, func(r *Rank) {
		for round := 0; round < 5; round++ {
			if err := r.BarrierTimeout(time.Second); err != nil {
				t.Errorf("rank %d round %d: %v", r.ID(), round, err)
			}
		}
	})
}

// WaitAllDeadline must complete arrived messages, report the sources
// that never delivered, and leave their requests pending.
func TestWaitAllDeadlineReportsMissing(t *testing.T) {
	w := NewWorld(3)
	RunOn(w, func(r *Rank) {
		switch r.ID() {
		case 0:
			dst1 := make([]byte, 4)
			dst2 := make([]byte, 4)
			reqs := []Request{
				r.IRecv(1, 7, dst1),
				r.IRecv(2, 7, dst2),
			}
			err := r.WaitAllDeadline(reqs, 30*time.Millisecond)
			var te *TimeoutError
			if !errors.As(err, &te) {
				t.Errorf("got %v, want *TimeoutError", err)
				return
			}
			if len(te.Arrived) != 1 || te.Arrived[0] != 1 {
				t.Errorf("Arrived = %v, want [1]", te.Arrived)
			}
			if len(te.Missing) != 1 || te.Missing[0] != 2 {
				t.Errorf("Missing = %v, want [2]", te.Missing)
			}
			if dst1[0] != 9 {
				t.Errorf("arrived payload not unpacked: %v", dst1)
			}
		case 1:
			r.ISend(0, 7, []byte{9, 9, 9, 9})
		case 2:
			// Dead rank: sends nothing.
		}
	})
}

// With every peer delivering, WaitAllDeadline returns nil.
func TestWaitAllDeadlineCompletes(t *testing.T) {
	Run(4, func(r *Rank) {
		next := (r.ID() + 1) % r.Size()
		prev := (r.ID() + r.Size() - 1) % r.Size()
		r.ISend(next, 3, []byte{byte(r.ID())})
		dst := make([]byte, 1)
		reqs := []Request{r.IRecv(prev, 3, dst)}
		if err := r.WaitAllDeadline(reqs, time.Second); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		if dst[0] != byte(prev) {
			t.Errorf("rank %d: got %d from %d", r.ID(), dst[0], prev)
		}
	})
}

// A halo Finish whose peer died must panic with the rank dump rather
// than hang. Rank 1 starts its round (so rank 0's sends are absorbed)
// and then disappears without sending.
func TestHaloFinishDeadlinePanics(t *testing.T) {
	w := NewWorld(2)
	var caught error
	RunOn(w, func(r *Rank) {
		vals := []float64{1, 2, 3, 4}
		send := [][]int32{{0, 1}}
		recv := [][]int32{{2, 3}}
		if r.ID() == 1 {
			return // dies before its Start
		}
		h := NewExchangerWithLayout(r, 0, &Layout{Peers: []int{1}, Sets: []IndexSet{{Send: send, Recv: recv}}})
		h.RegisterSlice("q", vals, 1, 0, true)
		h.SetDeadline(30 * time.Millisecond)
		defer func() {
			if e := recover(); e != nil {
				if te, ok := e.(*TimeoutError); ok {
					caught = te
				} else {
					t.Errorf("panic value %v, want *TimeoutError", e)
				}
			}
		}()
		h.Exchange()
		t.Error("Finish returned despite a dead peer")
	})
	var te *TimeoutError
	if !errors.As(caught, &te) {
		t.Fatalf("caught %v, want *TimeoutError", caught)
	}
	if te.Op != "halo_finish" || len(te.Missing) != 1 || te.Missing[0] != 1 {
		t.Fatalf("bad dump: %v", te)
	}
}

// haloRun drives nrounds halo exchanges of one field over a G3 mesh and
// returns rank 0's final field data. Used to compare a fault-injected
// run against a clean one.
func haloRun(t *testing.T, nparts, nrounds int, inj Injector, deadline time.Duration) []float64 {
	t.Helper()
	m := mesh.New(3)
	d := partition.MustDecompose(m, nparts, 3)
	w := NewWorld(nparts)
	if inj != nil {
		w.SetInjector(inj)
	}
	var out []float64
	RunOn(w, func(r *Rank) {
		dom := NewDomain(m, d, r.ID())
		f := dom.NewField("q", 3)
		for i, c := range dom.Owned {
			for lev := 0; lev < 3; lev++ {
				f.Set(lev, int32(i), float64(c)*10+float64(lev))
			}
		}
		h := NewHaloExchanger(dom, r)
		h.Register(f)
		if deadline > 0 {
			h.SetDeadline(deadline)
		}
		for round := 0; round < nrounds; round++ {
			h.Start()
			// Owners keep evolving their cells between rounds.
			for i := range dom.Owned {
				for lev := 0; lev < 3; lev++ {
					f.Set(lev, int32(i), f.At(lev, int32(i))+1)
				}
			}
			h.Finish()
		}
		if r.ID() == 0 {
			out = append([]float64(nil), f.Data...)
		}
	})
	return out
}

// The satellite race-mode test: a HaloExchanger under injected delays
// (run this file with -race; make chaos does) must deliver bitwise the
// same halos as an undisturbed run — delays reorder wall-clock time,
// never data.
func TestHaloExchangeUnderInjectedDelays(t *testing.T) {
	prof, err := fault.ParseProfile("delay")
	if err != nil {
		t.Fatal(err)
	}
	clean := haloRun(t, 4, 6, nil, 0)
	delayed := haloRun(t, 4, 6, fault.NewPlan(11, prof), 2*time.Second)
	if len(clean) != len(delayed) {
		t.Fatalf("length mismatch %d vs %d", len(clean), len(delayed))
	}
	for i := range clean {
		if clean[i] != delayed[i] {
			t.Fatalf("value %d diverged under injected delays: %v vs %v", i, clean[i], delayed[i])
		}
	}
}

// Dropped attempts are retried with backoff: a lossy profile still
// delivers every message, and the plan records the drops it injected.
func TestInjectedDropsAreRetried(t *testing.T) {
	prof, err := fault.ParseProfile("drop")
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(23, prof)
	clean := haloRun(t, 4, 6, nil, 0)
	lossy := haloRun(t, 4, 6, plan, 2*time.Second)
	for i := range clean {
		if clean[i] != lossy[i] {
			t.Fatalf("value %d diverged under drops: %v vs %v", i, clean[i], lossy[i])
		}
	}
	events, _ := plan.Events()
	drops := 0
	for _, e := range events {
		if e.Kind == "drop" {
			drops++
		}
	}
	if drops == 0 {
		t.Fatal("drop profile injected no drops — the retry path was not exercised")
	}
}
