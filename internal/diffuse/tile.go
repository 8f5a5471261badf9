package diffuse

import (
	"fmt"

	"diffusearch/internal/graph"
	"diffusearch/internal/vecmath"
)

// Column tiling: every single-CSR column kernel runs its sweep tile by
// tile over a tileSet. A tile is a slice of the batch held in its own
// matrices; the untiled layout is simply one tile spanning the batch.
// Wide signals (B ≥ wideTileMin) are split into tiles of T columns, which
// pays for itself twice:
//
//   - The per-tile iterate (n×T) fits in L2 next to the streamed CSR row
//     data, where the full n×B iterate of a wide batch does not, so the
//     gathered source rows of the affine kernel stop missing to outer
//     cache levels.
//   - Each tile's rows feed the affine kernel
//     (graph.Transition.ApplyRowAffine) at a width its SIMD body runs
//     well at.
//
// Tiling is a pure loop-order change: per-column trajectories, residuals,
// retirement sweeps (Stats.ColumnSweeps), and Observer sweep aggregates
// are bit-for-bit identical whatever the tile plan. Params.ColTile
// selects the plan: 0 auto-tiles wide signals with a width from the cache
// model below, a negative value runs one tile, and a positive value
// forces that tile width at any batch width.
const (
	// wideTileMin is the batch width at which auto-tiling engages. Below
	// it the whole iterate comfortably fits cache and one tile
	// already saturates the CPU.
	wideTileMin = 256
	// tileL2Bytes is the cache model's per-core L2 budget for one tile of
	// the source iterate; the CSR row stream is sequential and prefetched,
	// so it needs no residency of its own. The committed bench snapshot
	// records the hardware this default was tuned on; hosts with other
	// cache sizes can override per request via ColTile.
	tileL2Bytes = 2 << 20
	// tileMinWidth floors the auto-picked width: below it the per-tile CSR
	// restream dominates the cache win.
	tileMinWidth = 16
)

// tileWidths plans the column tile widths for a batch of cols columns
// over an n-node graph. nil means one tile spanning the batch.
func tileWidths(n, cols, colTile int) []int {
	t := 0
	switch {
	case colTile < 0:
		return nil
	case colTile > 0:
		t = colTile
	default:
		if cols < wideTileMin || n == 0 {
			return nil
		}
		// Tile fits L2 alongside the CSR row stream: T ≈ L2 / (8n),
		// rounded down to a multiple of 8 for row alignment.
		t = tileL2Bytes / (8 * n) &^ 7
		if t < tileMinWidth {
			t = tileMinWidth
		}
	}
	if t >= cols || t <= 0 {
		return nil
	}
	widths := make([]int, 0, (cols+t-1)/t)
	for rem := cols; rem > 0; rem -= t {
		w := t
		if rem < t {
			w = rem // ragged final tile
		}
		widths = append(widths, w)
	}
	return widths
}

// planTiles is tileWidths with the one-tile plan spelled out.
func planTiles(n, cols, colTile int) []int {
	if w := tileWidths(n, cols, colTile); w != nil {
		return w
	}
	return []int{cols}
}

// AutoTileWidth reports the tile width the auto policy (ColTile 0) picks
// for a cols-wide batch on an n-node graph; 0 means auto runs one tile.
// Exported so benchmarks and admin surfaces can report the realized width
// without re-deriving the cache model.
func AutoTileWidth(n, cols int) int {
	w := tileWidths(n, cols, 0)
	if w == nil {
		return 0
	}
	return w[0]
}

// colTile is one column tile of a run: a private slice of the batch
// with its own compact active block (cb.act is tile-local; out and sweeps
// are shared across tiles through the embedded colBlock), iterate
// matrices, and residual scratch. Tiles only ever shrink — retirement
// repacks within a tile, never rebalances across tiles.
type colTile struct {
	cb  colBlock
	cur *vecmath.Matrix
	// The tile's personalization columns are served one of two ways: as a
	// contiguous row slice of the input matrix (e0v/e0lo — free to set up,
	// valid while the tile's active slots are still the original column
	// range) or as a materialized compact matrix (e0c). Every tile starts
	// on the view; the first retirement compaction materializes, since the
	// surviving columns stop being contiguous in the input.
	e0c  *vecmath.Matrix // compact personalization; nil while the view serves
	e0v  *vecmath.Matrix // input matrix backing the view
	e0lo int             // first input column of the view
	next *vecmath.Matrix // nil for the in-place engines
}

// width returns the tile's current active width.
func (t *colTile) width() int { return len(t.cb.act) }

// e0row returns the tile's personalization row for node u, width() wide.
func (t *colTile) e0row(u int) []float64 {
	if t.e0c != nil {
		return t.e0c.Row(u)
	}
	return t.e0v.Row(u)[t.e0lo : t.e0lo+len(t.cb.act)]
}

// retireSweep retires the tile's converged/stopped slots and repacks its
// matrices. cr must be the tile's residuals for the sweep.
func (t *colTile) retireSweep(cr []float64, thresh float64, stop []bool, sweep int) {
	keep, _ := t.cb.retireSweep(cr, thresh, stop, sweep, t.cur)
	if keep == nil {
		return
	}
	t.cur = vecmath.SelectColumns(t.cur, keep)
	if t.e0c != nil {
		t.e0c = vecmath.SelectColumns(t.e0c, keep)
	} else {
		idx := make([]int, len(keep))
		for k, slot := range keep {
			idx[k] = t.e0lo + slot
		}
		t.e0c = vecmath.SelectColumns(t.e0v, idx)
		t.e0v = nil
	}
	if t.next != nil {
		t.next = vecmath.NewMatrix(t.cur.Rows(), len(keep))
	}
}

// tileSet is the shared state of one run: the finalized output and
// per-column sweep counts (shared by every tile's colBlock) plus the
// tiles in column order.
type tileSet struct {
	out    *vecmath.Matrix
	sweeps []int
	tiles  []*colTile
	// capWidth is the widest planned tile: the coalescing target. As
	// retirement shrinks tiles, consecutive tiles whose combined active
	// width fits capWidth are merged back into one, so the late sweeps of
	// a run pay one affine-kernel call per node instead of one per
	// skinny leftover tile.
	capWidth int
}

// newTileSet splits sig into tiles of the planned widths. needNext
// allocates the double-buffer matrices used by the barrier engines; the
// in-place engines pass false.
func newTileSet(sig *Signal, widths []int, needNext bool) *tileSet {
	n, cols := sig.mat.Rows(), sig.mat.Cols()
	ts := &tileSet{
		out:      vecmath.NewMatrix(n, cols),
		sweeps:   make([]int, cols),
		tiles:    make([]*colTile, 0, len(widths)),
		capWidth: maxWidth(widths),
	}
	lo := 0
	for _, w := range widths {
		act := make([]int, w)
		for k := 0; k < w; k++ {
			act[k] = lo + k
		}
		cur := vecmath.NewMatrix(n, w)
		for u := 0; u < n; u++ {
			copy(cur.Row(u), sig.mat.Row(u)[lo:lo+w])
		}
		t := &colTile{
			cb:   colBlock{act: act, out: ts.out, sweeps: ts.sweeps},
			cur:  cur,
			e0v:  sig.mat,
			e0lo: lo,
		}
		if needNext {
			t.next = vecmath.NewMatrix(n, w)
		}
		ts.tiles = append(ts.tiles, t)
		lo += w
	}
	return ts
}

// live appends the tiles that still have active columns to dst (reused
// across sweeps) and returns it. Consecutive shrunken tiles are first
// coalesced whenever their combined width fits capWidth: tiles are
// ordered partitions of the batch, and every engine's per-column work is
// independent of how active columns are grouped into tiles, so merging
// preserves bit-identity (the concatenated compact order — the order the
// observer sees — is unchanged) while restoring full
// kernel widths for the tail of the run.
func (ts *tileSet) live(dst []*colTile) []*colTile {
	dst = dst[:0]
	for _, t := range ts.tiles {
		if t.width() > 0 {
			dst = append(dst, t)
		}
	}
	merge := false
	for i := 1; i < len(dst); i++ {
		if dst[i-1].width()+dst[i].width() <= ts.capWidth {
			merge = true
			break
		}
	}
	if !merge {
		return dst
	}
	out := make([]*colTile, 0, len(dst))
	for lo := 0; lo < len(dst); {
		hi, w := lo+1, dst[lo].width()
		for hi < len(dst) && w+dst[hi].width() <= ts.capWidth {
			w += dst[hi].width()
			hi++
		}
		if hi-lo > 1 {
			out = append(out, coalesceTiles(dst[lo:hi], w))
		} else {
			out = append(out, dst[lo])
		}
		lo = hi
	}
	ts.tiles = append(ts.tiles[:0], out...)
	return out
}

// coalesceTiles merges consecutive live tiles of combined active width w
// into one tile, concatenating their active blocks and column data in
// order. The merged tile shares the run's out/sweeps state like every
// tile.
func coalesceTiles(group []*colTile, w int) *colTile {
	n := group[0].cur.Rows()
	m := &colTile{
		cb:  colBlock{act: make([]int, 0, w), out: group[0].cb.out, sweeps: group[0].cb.sweeps},
		cur: vecmath.NewMatrix(n, w),
		e0c: vecmath.NewMatrix(n, w),
	}
	if group[0].next != nil {
		m.next = vecmath.NewMatrix(n, w)
	}
	off := 0
	for _, t := range group {
		m.cb.act = append(m.cb.act, t.cb.act...)
		tw := t.width()
		for u := 0; u < n; u++ {
			copy(m.cur.Row(u)[off:off+tw], t.cur.Row(u))
			copy(m.e0c.Row(u)[off:off+tw], t.e0row(u))
		}
		off += tw
	}
	return m
}

// activeWidth returns the total active columns across all tiles.
func (ts *tileSet) activeWidth() int {
	w := 0
	for _, t := range ts.tiles {
		w += t.width()
	}
	return w
}

// retireAll finalizes every still-active column of every tile at sweep.
func (ts *tileSet) retireAll(sweep int) {
	for _, t := range ts.tiles {
		if t.width() > 0 {
			t.cb.retireAll(sweep, t.cur)
		}
	}
}

// signal assembles the run's output Signal and stamps ColumnSweeps, like
// colBlock.signal.
func (ts *tileSet) signal(st *Stats) *Signal {
	st.ColumnSweeps = ts.sweeps
	return &Signal{mat: ts.out}
}

// retire retires each live tile's columns whose residual in cr (live
// tiles concatenated in order) dropped to thresh, plus every column the
// stop predicate flags (one Stop call per live tile), and reports whether
// no column is left active.
func (ts *tileSet) retire(live []*colTile, cr []float64, thresh float64, stop StopPredicate, sweep int) bool {
	off := 0
	for _, t := range live {
		w := t.width()
		var flags []bool
		if stop != nil {
			flags = stop.Stop(sweep, t.cb.act, t.cur)
		}
		t.retireSweep(cr[off:off+w], thresh, flags, sweep)
		off += w
	}
	return ts.activeWidth() == 0
}

// endSweep closes one whole-graph sweep of the dense kernels (sync, async,
// GS): it accounts the sweep in st (every node updated once, one value
// pulled per directed edge), reports it to the observer, and retires
// columns as retire does. cr holds the sweep's per-column residuals, live
// tiles concatenated in order. It reports whether every column has
// retired, and then marks st converged.
func (ts *tileSet) endSweep(st *Stats, p Params, g *graph.Graph, live []*colTile, cr []float64, tol float64, sweep int) bool {
	msgs := 2 * int64(g.NumEdges())
	st.Sweeps = sweep
	st.Updates += int64(g.NumNodes())
	st.Messages += msgs
	st.Residual = maxOf(cr)
	if p.Observe != nil {
		p.Observe.ObserveSweep(SweepStat{
			Sweep: sweep, ActiveNodes: g.NumNodes(), ActiveColumns: len(cr),
			Residual: st.Residual, ResidualL1: sumOf(cr), Messages: msgs,
		})
	}
	st.Converged = ts.retire(live, cr, tol, p.Stop, sweep)
	return st.Converged
}

// exhausted finalizes a run that spent its budget of max sweeps (unit
// names them in the error) with columns still active.
func (ts *tileSet) exhausted(st *Stats, max int, unit string) (*Signal, Stats, error) {
	ts.retireAll(max)
	sig := ts.signal(st)
	return sig, *st, fmt.Errorf("%w after %d %s (residual %g)", ErrNoConvergence, max, unit, st.Residual)
}

// maxWidth returns the largest planned tile width.
func maxWidth(widths []int) int {
	m := 0
	for _, w := range widths {
		if w > m {
			m = w
		}
	}
	return m
}
