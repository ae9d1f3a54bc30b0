package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment tables are grids of independent seeded sim.Build runs:
// every cell derives its seed from its own parameters, so cells can run in
// any order — and therefore in parallel — without changing a single byte of
// output. runCells is the bounded worker pool all sweeps go through; the
// per-cell seed derivation is untouched, so a parallel run is bit-identical
// to a sequential one (tests assert this).

// maxParallelCells caps the pool; 0 (the default) means GOMAXPROCS. The
// determinism regression tests set it to 1 to force sequential evaluation
// and compare the two modes.
var maxParallelCells atomic.Int32

func cellWorkers(n int) int {
	w := int(maxParallelCells.Load())
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runCells evaluates fn(0), …, fn(n-1) on a bounded worker pool. Cells must
// be independent and write their outputs by index. The lowest-index error is
// returned, matching what a sequential loop with early exit would report.
func runCells(n int, fn func(i int) error) error {
	if workers := cellWorkers(n); workers > 1 {
		errs := make([]error, n)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}
