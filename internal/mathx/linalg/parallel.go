package linalg

import (
	"runtime"
	"sync"
)

// parallelMinDim is the matrix dimension below which the parallel entry
// points fall back to the serial kernels: fan-out overhead beats the win.
const parallelMinDim = 128

// resolveWorkers maps the workers argument onto [1, GOMAXPROCS].
func resolveWorkers(workers int) int {
	max := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > max {
		return max
	}
	return workers
}

// parallelRanges splits [0, total) into one contiguous chunk per worker and
// runs fn on each concurrently. fn must write only to its own range.
func parallelRanges(total, workers int, fn func(lo, hi int)) {
	if total <= 0 {
		return
	}
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		fn(0, total)
		return
	}
	var wg sync.WaitGroup
	chunk := (total + workers - 1) / workers
	for lo := 0; lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// SolveLowerEach solves L·xᵢ = bᵢ for every row bᵢ of b, writing xᵢ into the
// corresponding row of dst, with the independent per-row solves fanned
// across up to workers goroutines (0 = GOMAXPROCS). dst and b must be r×n
// for an n×n factor; dst may alias b. Each row is solved with the exact
// serial SolveLowerInto arithmetic, so results are bit-identical at every
// worker count. This is the batched triangular solve behind the sparse GP's
// O(n·m²) whitening of the cross-kernel matrix.
func (c *Cholesky) SolveLowerEach(dst, b *Matrix, workers int) {
	n := c.L.R
	if b.C != n || dst.C != n || dst.R != b.R {
		panic("linalg: SolveLowerEach dimension mismatch")
	}
	rows := b.R
	if rows*n < parallelMinDim*parallelMinDim {
		workers = 1
	}
	parallelRanges(rows, resolveWorkers(workers), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c.SolveLowerInto(dst.Data[i*n:(i+1)*n], b.Data[i*n:(i+1)*n])
		}
	})
}
