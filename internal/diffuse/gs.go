package diffuse

import (
	"sync/atomic"

	"diffusearch/internal/graph"
	"diffusearch/internal/vecmath"
)

// Multi-color Gauss–Seidel: the engine behind EngineParallelGS.
//
// The Parallel engine's frontier rounds are block Jacobi — every update in
// a round reads the previous round's values — so it pays Jacobi's sweep
// count for Jacobi's parallelism. Sequential Gauss–Seidel (the
// Asynchronous engine) converges in fewer sweeps because each update reads
// the freshest values, but its schedule is inherently serial. Multi-color
// GS splits the difference (the ordered-push observation of the PPR
// survey, arXiv 2403.05198): the graph is colored so no class contains an
// edge (graph.Transition.Coloring), and one sweep processes the classes in
// fixed ascending order with a barrier between them. Within a class no
// node reads another — every input was fixed at the class barrier — so
// workers can split the class arbitrarily and the result is deterministic
// for every worker count; across classes updates see the freshest values,
// recovering Gauss–Seidel's sweep count.

// ParallelGSColumns diffuses a column block with the deterministic
// multi-color Gauss–Seidel engine: per sweep, each color class is updated
// in parallel (in place, like the Asynchronous engine), per-column
// residuals are tracked across the whole sweep, and columns retire the
// sweep their residual first drops to tol. Results are identical for
// every worker count, and the engine honors the Stop/Observe contracts of
// the other column kernels.
func ParallelGSColumns(tr *graph.Transition, sig *Signal, p Params) (*Signal, Stats, error) {
	n, cols, err := checkSignal(tr, sig, p)
	if err != nil {
		return nil, Stats{}, err
	}
	if n == 0 || cols == 0 {
		return emptyRun(n, cols)
	}
	tol, maxSweeps := p.controls()
	workers := p.workers(n)
	// Unlike the other kernels, auto (ColTile 0) runs wide GS batches as
	// one tile: the in-place update already runs the affine kernel at full
	// width, so column tiles add bookkeeping without a kernel upgrade and
	// measure slower on the recorded hardware. An explicit positive
	// ColTile still tiles — bit-identically, as everywhere.
	widths := []int{cols}
	if p.ColTile > 0 {
		widths = planTiles(n, cols, p.ColTile)
	}
	ts := newTileSet(sig, widths, false)
	live := make([]*colTile, 0, len(ts.tiles))
	offs := make([]int, len(ts.tiles))
	global := make([]float64, cols)
	classes := tr.Coloring().Classes()

	shards := make([]parShard, workers)
	scratch := make([][]float64, workers)
	for w := range shards {
		shards[w].colRes = make([]float64, cols)
		scratch[w] = make([]float64, ts.capWidth)
	}
	pool := newWorkerPool(workers)
	defer pool.close()
	var (
		cursor atomic.Int64
		cum    [2]int // claim range: {0, len(class)}
		class  []graph.NodeID
		nt     int // live tiles this sweep
	)
	// One closure for every class of every sweep: it reads the current
	// class and tiles through its captures, so a class allocates nothing.
	update := func(id int) {
		sh := &shards[id]
		sc := scratch[id]
		forEachClaimed(&cursor, cum[:], func(_, lo, hi int) {
			for _, u := range class[lo:hi] {
				for ti := 0; ti < nt; ti++ {
					t := live[ti]
					tw := t.width()
					tr.ApplyRowAffine(sc[:tw], u, 1-p.Alpha, t.cur, p.Alpha, t.e0row(u))
					cr := sh.colRes[offs[ti] : offs[ti]+tw]
					vecmath.ResidMaxCopy(cr, t.cur.Row(u), sc[:tw])
				}
			}
		})
	}
	var st Stats
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		live = ts.live(live)
		w := 0
		for ti, t := range live {
			offs[ti] = w
			w += t.width()
		}
		nt = len(live)
		for _, class = range classes {
			cum[1] = len(class)
			cursor.Store(0)
			pool.run(update)
		}
		cr := global[:w]
		vecmath.Zero(cr)
		for id := range shards {
			sh := &shards[id]
			for j, v := range sh.colRes[:w] {
				if v > cr[j] {
					cr[j] = v
				}
			}
			vecmath.Zero(sh.colRes[:w])
		}
		if ts.endSweep(&st, p, tr.Graph(), live, cr, tol, sweep) {
			return ts.signal(&st), st, nil
		}
	}
	return ts.exhausted(&st, maxSweeps, "sweeps")
}
