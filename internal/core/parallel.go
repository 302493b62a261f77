package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelFor is a detection's one worker loop (the shard pool, the screening
// pool, the square rounds). It runs body on min(max(workers,1), ⌈n/grain⌉)
// workers, the calling goroutine one of them; each takes grains of [0,n) with
// (*worker).next and leases its scratch around that loop without defer, so a
// worker that panicked drops it. No worker outlives the call: a panic is
// recovered on its worker and, once all have joined, the lowest grain's panic
// is raised again on the caller, inside the stage detect.RunStage guards.
func parallelFor(ctx context.Context, n, workers, grain int, body func(w *worker)) {
	if n <= 0 {
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	ws := make([]worker, min(max(workers, 1), (n+grain-1)/grain))
	wg.Add(len(ws) - 1)
	for i := range ws {
		ws[i] = worker{ctx: ctx, cursor: &cursor, n: n, grain: grain, lo: -1}
		if i > 0 {
			go func() {
				defer wg.Done()
				ws[i].run(body)
			}()
		}
	}
	ws[0].run(body)
	wg.Wait()
	var first *worker
	for i := range ws {
		if w := &ws[i]; w.failure != nil && (first == nil || w.lo < first.lo) {
			first = w
		}
	}
	if first != nil {
		panic(first.failure)
	}
}

// worker is one worker of a parallelFor loop: [lo,hi) is the grain it took
// last, and failure the panic it raised in it.
type worker struct {
	ctx      context.Context
	cursor   *atomic.Int64 // shared by the loop's workers
	n, grain int
	lo, hi   int
	failure  any
}

func (w *worker) run(body func(w *worker)) {
	defer func() { w.failure = recover() }()
	body(w)
}

// next takes the worker's next grain from the shared cursor. It polls ctx
// first, so a cancelled loop stops within a grain per worker (the caller reads
// ctx to tell), and yields the processor after every grain, so a long loop
// does not starve goroutines serving other requests.
func (w *worker) next() bool {
	if w.lo >= 0 {
		runtime.Gosched()
	}
	if w.ctx.Err() != nil {
		return false
	}
	w.lo = int(w.cursor.Add(int64(w.grain))) - w.grain
	w.hi = min(w.lo+w.grain, w.n)
	return w.lo < w.n
}
