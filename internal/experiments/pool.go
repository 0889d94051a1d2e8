package experiments

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pase/internal/obs"
)

// Every simulation point is hermetic: RunPoint builds its own
// sim.Engine, RNG and topology and shares nothing with other points,
// so a figure's (variant × load × seed) grid can fan out across
// goroutines. The pool below is the one place that parallelism lives;
// results always come back in input order, so a figure assembled from
// pooled points is byte-identical to a serial run.

// forEachPoint runs fn(i, RunPoint(cfgs[i])) for every config across a
// bounded worker pool. fn is called concurrently from the workers but
// never twice for the same index. parallelism <= 0 means GOMAXPROCS
// workers; 1 runs everything inline with no goroutines. progress (if
// set) is called after each point completes, possibly from a worker
// goroutine.
func forEachPoint(cfgs []PointConfig, parallelism int, progress func(done, total int), fn func(i int, r PointResult)) {
	var done atomic.Int64
	total := len(cfgs)
	run := func(i int) {
		fn(i, RunPoint(cfgs[i]))
		if progress != nil {
			progress(int(done.Add(1)), total)
		}
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	if workers <= 1 {
		for i := range cfgs {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// RunPoints executes every config across the pool and returns the
// results in input order.
func RunPoints(cfgs []PointConfig, parallelism int, progress func(done, total int)) []PointResult {
	out := make([]PointResult, len(cfgs))
	forEachPoint(cfgs, parallelism, progress, func(i int, r PointResult) { out[i] = r })
	return out
}

// mapPoints runs every point through keep inside its worker, so the
// per-point Records/CDF payloads are released as soon as each point
// finishes instead of being retained for the whole grid, and totals
// the grid into res: point count, flow-count range, retransmissions,
// violations and the snapshots merged in input order (so independent
// of scheduling). Workers write disjoint indices; no locking needed.
func mapPoints(cfgs []PointConfig, parallelism int, progress func(done, total int), res *Result, keep func(i int, r PointResult)) {
	snaps := make([]*obs.Snapshot, len(cfgs))
	totals := make([][3]int64, len(cfgs))
	flows := make([]int, len(cfgs))
	forEachPoint(cfgs, parallelism, progress, func(i int, r PointResult) {
		keep(i, r)
		snaps[i], totals[i] = r.Obs, [3]int64{r.Retransmits, r.Timeouts, r.Violations}
		flows[i] = r.Flows
	})
	res.Obs, res.Points = obs.MergeAll(snaps), len(cfgs)
	for _, t := range totals {
		res.Retx, res.Timeouts, res.Violations = res.Retx+t[0], res.Timeouts+t[1], res.Violations+t[2]
	}
	res.MinFlows, res.MaxFlows = slices.Min(flows), slices.Max(flows)
}
