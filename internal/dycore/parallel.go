package dycore

import "runtime"

// SetHostParallelism enables shared-memory parallel execution of the
// engine's entity loops across n host workers (0 or 1 restores serial
// execution; negative uses GOMAXPROCS); every loop runs through
// mesh.ParallelFor.
func (e *engine[T]) SetHostParallelism(n int) {
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.workers = n
}
