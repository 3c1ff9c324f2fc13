package thermal

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel CG kernels. The hot loops of cg — the matrix-free apply
// stencil, the dot products and the axpy updates — are expressed over
// fixed row-slab chunks of the unknown vector. Chunk boundaries are a
// function of the problem size only (never of the worker count), and
// every reduction sums per-chunk partials in chunk order, so residuals,
// iterates and iteration counts are bitwise-identical no matter how many
// workers execute the chunks or in which order they finish. Workers
// claim chunks dynamically off an atomic counter: load balancing is
// free precisely because the chunk→output mapping is fixed.
const (
	// chunkCells is the fixed chunk width in cells. Small enough to
	// load-balance a 29-layer stack across many cores, large enough that
	// the per-chunk bookkeeping (one atomic add, one partial write) is
	// noise next to the ~10 flops/cell stencil.
	chunkCells = 8192
	// parallelMinCells is the serial fast path threshold: below it a
	// solve runs all chunks inline on the calling goroutine, because the
	// pool's wake/barrier latency (~µs per kernel, 4 kernels per CG
	// iteration) would exceed the arithmetic it hides. 24×24×29 ≈ 17k
	// cells stays serial; 64×64×29 ≈ 119k cells goes parallel.
	parallelMinCells = 32768
)

// numChunks returns the fixed chunk count for n cells.
func numChunks(n int) int { return (n + chunkCells - 1) / chunkCells }

// chunkBounds returns the half-open cell range [lo, hi) of chunk c.
func (s *Solver) chunkBounds(c int) (lo, hi int) {
	lo = c * chunkCells
	hi = lo + chunkCells
	if hi > s.n {
		hi = s.n
	}
	return lo, hi
}

// effectiveWorkers clamps the solver's Workers setting to the runnable
// parallelism of the process. On a single-CPU box (GOMAXPROCS=1) pool
// goroutines cannot overlap the calling goroutine, so a Workers>1
// setting would pay the chunk hand-off and wake/barrier latency for
// zero concurrency, which measured slower than serial on a 1-CPU box.
// Clamping here keeps every runChunks/runSpan call site honest and
// means single-core runs never start a pool at all. Results are
// bitwise-identical either way; only the schedule changes.
func (s *Solver) effectiveWorkers() int {
	w := s.Workers
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	return w
}

// runChunks executes f(c) for every chunk c — inline when the solve is
// below the parallel threshold or the solver has no extra workers, on
// the persistent pool otherwise. f must only write state owned by its
// chunk (slices indexed [lo, hi) plus partial[c]).
func (s *Solver) runChunks(f func(c int)) {
	nc := numChunks(s.n)
	if s.effectiveWorkers() > 1 && s.n >= parallelMinCells && nc > 1 {
		s.ensurePool()
		s.pool.run(f, nc)
		return
	}
	for c := 0; c < nc; c++ {
		f(c)
	}
}

// runSpan executes f(lo, hi) over fixed-width chunks of [0, items) —
// inline when the kernel's total cell count sits below the parallel
// threshold, on the persistent pool otherwise. The chunk grid depends
// only on (items, width), never on Workers, so any kernel whose chunks
// write disjoint state is bitwise-deterministic. The multigrid kernels
// run through this: cell-indexed ones with width chunkCells, the line
// smoother with a planar width (cells here is the level's cell count,
// which prices the work of one planar item as one column).
func (s *Solver) runSpan(items, width, cells int, f func(lo, hi int)) {
	nc := (items + width - 1) / width
	run := func(c int) {
		lo := c * width
		hi := lo + width
		if hi > items {
			hi = items
		}
		f(lo, hi)
	}
	if s.effectiveWorkers() > 1 && cells >= parallelMinCells && nc > 1 {
		s.ensurePool()
		s.pool.run(run, nc)
		return
	}
	for c := 0; c < nc; c++ {
		run(c)
	}
}

// sumPartials reduces the per-chunk partials in chunk order. The fixed
// order is what makes the result independent of worker scheduling.
func (s *Solver) sumPartials() float64 {
	acc := 0.0
	for _, p := range s.partial[:numChunks(s.n)] {
		acc += p
	}
	return acc
}

// ensurePool lazily starts the persistent worker pool. Solves below
// parallelMinCells never reach this, so throwaway solvers on small
// grids (e.g. per-call transient solvers in DTM migration) don't leak
// goroutines.
func (s *Solver) ensurePool() {
	if s.pool != nil {
		return
	}
	w := s.effectiveWorkers()
	if nc := numChunks(s.n); w > nc {
		w = nc
	}
	s.pool = newKernelPool(w)
}

// Close stops the kernel worker pool, if one was started. The solver
// stays usable — a later parallel solve restarts the pool. Solvers that
// never ran a parallel solve have nothing to close.
func (s *Solver) Close() {
	if s.pool != nil {
		s.pool.stop()
		s.pool = nil
	}
}

// kernelJob is one kernel dispatch: workers pull chunk indices from
// next until max, run f on each, then signal wg.
type kernelJob struct {
	f    func(c int)
	next *atomic.Int64
	max  int64
	wg   *sync.WaitGroup
}

// kernelPool is a persistent set of goroutines that execute kernel
// jobs. One pool per solver: a solver's scratch buffers are single-
// solve, so its kernels never overlap and the pool needs no per-job
// result routing.
type kernelPool struct {
	jobs    chan kernelJob
	workers int
}

func newKernelPool(workers int) *kernelPool {
	p := &kernelPool{jobs: make(chan kernelJob), workers: workers}
	for i := 0; i < workers; i++ {
		go func() {
			for j := range p.jobs {
				for {
					c := j.next.Add(1) - 1
					if c >= j.max {
						break
					}
					j.f(int(c))
				}
				j.wg.Done()
			}
		}()
	}
	return p
}

// run executes f over nchunks chunks and blocks until all are done.
func (p *kernelPool) run(f func(c int), nchunks int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	w := p.workers
	if w > nchunks {
		w = nchunks
	}
	wg.Add(w)
	j := kernelJob{f: f, next: &next, max: int64(nchunks), wg: &wg}
	for i := 0; i < w; i++ {
		p.jobs <- j
	}
	wg.Wait()
}

func (p *kernelPool) stop() { close(p.jobs) }
