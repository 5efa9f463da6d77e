package dycore

import (
	"runtime"
	"sync"
)

// SetHostParallelism enables shared-memory parallel execution of the
// engine's entity loops across n host workers (0 or 1 restores serial
// execution; negative uses GOMAXPROCS). This is the host-side analog of
// the paper's OpenMP parallelization inside each MPI rank: every loop is
// conflict-free per entity (§3.3.4 — "most of loops are conflict-free"),
// so the static chunking matches the "!$omp do" schedule.
func (e *engine[T]) SetHostParallelism(n int) {
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.workers = n
}

// parallelFor is the one loop driver: it hands body the id list in static
// chunks across the configured workers, or whole and inline with
// workers <= 1 or a list too short to share out.
func (e *engine[T]) parallelFor(ids []int32, body func(ids []int32)) {
	w, n := e.workers, len(ids)
	if w <= 1 || n < 4*w {
		body(ids)
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(ids []int32) {
			defer wg.Done()
			body(ids)
		}(ids[lo:min(lo+chunk, n)])
	}
	wg.Wait()
}
