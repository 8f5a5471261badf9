package diffuse

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/vecmath"
)

// Signal is an n×B column block of B independent scalar node signals
// diffused together — everything the engines diffuse. Column j holds one
// signal over the graph: for batch scoring the per-node query relevances
// x_j[v] = e_qj · E0[v] of one query, for embedding diffusion (Run) one
// dimension of E0. All engines diffuse the block column-blocked: one fused
// CSR pass per node streams the row once and advances every column, so the
// per-edge cost is amortized across the batch instead of paid per column.
//
// Because the PPR filter is linear and columns never mix, each column
// converges on its own trajectory. The column kernels therefore track
// residuals per column and retire a column from the active working block
// as soon as it individually converges (per-column early termination);
// retired columns stop costing compute while slower columns finish. The
// sweep at which each column retired is reported in Stats.ColumnSweeps.
type Signal struct {
	mat *vecmath.Matrix
}

// NewSignal wraps an n×B matrix (one node per row, one signal per column)
// as a diffusion signal. The matrix is not copied; the engines treat it as
// read-only input.
func NewSignal(m *vecmath.Matrix) *Signal {
	if m == nil {
		panic("diffuse: nil signal matrix")
	}
	return &Signal{mat: m}
}

// Matrix returns the underlying n×B matrix. It aliases Signal storage.
func (s *Signal) Matrix() *vecmath.Matrix { return s.mat }

// Nodes returns n, the per-column signal length.
func (s *Signal) Nodes() int { return s.mat.Rows() }

// Columns returns B, the batch width.
func (s *Signal) Columns() int { return s.mat.Cols() }

// Column returns an owned copy of column j — one per-node score slice.
func (s *Signal) Column(j int) []float64 { return s.mat.Column(j) }

// colBlock tracks the active compact column block of one column-blocked
// run: which original column each compact slot maps to, the finalized
// output, and the per-column sweep counts.
type colBlock struct {
	act    []int           // compact slot -> original column
	out    *vecmath.Matrix // n×B finalized values
	sweeps []int           // per original column: sweeps spent active
}

func newColBlock(n, cols int) *colBlock {
	act := make([]int, cols)
	for j := range act {
		act[j] = j
	}
	return &colBlock{act: act, out: vecmath.NewMatrix(n, cols), sweeps: make([]int, cols)}
}

// retire finalizes every compact slot marked in frozen: the slot's column
// of cur becomes the output value and its sweep count is recorded. It
// returns the compact indices that stay active (for repacking via
// vecmath.SelectColumns) and shrinks the slot→column map accordingly.
func (cb *colBlock) retire(frozen []bool, sweep int, cur *vecmath.Matrix) (keep []int) {
	keep = make([]int, 0, len(cb.act))
	kept := make([]int, 0, len(cb.act))
	for k, orig := range cb.act {
		if frozen[k] {
			cb.out.SetColumn(orig, cur.Column(k))
			cb.sweeps[orig] = sweep
		} else {
			keep = append(keep, k)
			kept = append(kept, orig)
		}
	}
	cb.act = kept
	return keep
}

// retireAll finalizes every still-active column at the given sweep.
func (cb *colBlock) retireAll(sweep int, cur *vecmath.Matrix) {
	frozen := make([]bool, len(cb.act))
	for k := range frozen {
		frozen[k] = true
	}
	cb.retire(frozen, sweep, cur)
}

// retireSweep is the shared per-sweep retirement step of every column
// kernel: it retires each active slot whose residual in cr dropped to
// thresh, plus every slot flagged by stop (a StopPredicate's early
// terminations; nil means none). It returns the still-active compact
// indices for repacking via vecmath.SelectColumns — nil when nothing
// retired (callers skip the repack) — and whether the whole block is now
// done.
func (cb *colBlock) retireSweep(cr []float64, thresh float64, stop []bool, sweep int, cur *vecmath.Matrix) (keep []int, done bool) {
	frozen := make([]bool, len(cr))
	any := false
	for j, v := range cr {
		frozen[j] = v <= thresh || (stop != nil && stop[j])
		any = any || frozen[j]
	}
	if !any {
		return nil, false
	}
	keep = cb.retire(frozen, sweep, cur)
	return keep, len(keep) == 0
}

func (cb *colBlock) signal(st *Stats) *Signal {
	st.ColumnSweeps = cb.sweeps
	return &Signal{mat: cb.out}
}

// checkSignal validates the common engine preconditions.
func checkSignal(tr *graph.Transition, sig *Signal, p Params) (n, cols int, err error) {
	if err := p.validate(); err != nil {
		return 0, 0, err
	}
	n = tr.Graph().NumNodes()
	if sig.mat.Rows() != n {
		return 0, 0, fmt.Errorf("diffuse: signal has %d rows, graph has %d nodes", sig.mat.Rows(), n)
	}
	return n, sig.mat.Cols(), nil
}

// emptyRun is the trivially converged result of a run over no nodes or no
// columns.
func emptyRun(n, cols int) (*Signal, Stats, error) {
	st := Stats{Converged: true}
	return newColBlock(n, cols).signal(&st), st, nil
}

// SynchronousColumns diffuses a column block with the synchronous engine:
// full eq. 7 sweeps over every node, per-column residuals, and columns
// retired the sweep their residual first drops to tol. It keeps the unfused
// Zero+ApplyRow+AXPY sequence rather than the fused affine kernel, so a
// single-column Signal is bit-for-bit identical to the historical
// ppr.PPRFilter path on the same input.
func SynchronousColumns(tr *graph.Transition, sig *Signal, p Params) (*Signal, Stats, error) {
	n, cols, err := checkSignal(tr, sig, p)
	if err != nil {
		return nil, Stats{}, err
	}
	if n == 0 || cols == 0 {
		return emptyRun(n, cols)
	}
	tol, maxSweeps := p.syncControls()
	ts := newTileSet(sig, planTiles(n, cols, p.ColTile), true)
	live := make([]*colTile, 0, len(ts.tiles))
	colRes := make([]float64, cols)
	var st Stats
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		live = ts.live(live)
		off := 0
		for _, t := range live {
			cr := colRes[off : off+t.width()]
			vecmath.Zero(cr)
			for u := 0; u < n; u++ {
				row := t.next.Row(u)
				vecmath.Zero(row)
				tr.ApplyRow(row, u, 1-p.Alpha, t.cur)
				vecmath.AXPY(row, p.Alpha, t.e0row(u))
				vecmath.ResidMax(cr, t.cur.Row(u), row)
			}
			t.cur, t.next = t.next, t.cur
			off += len(cr)
		}
		if ts.endSweep(&st, p, tr.Graph(), live, colRes[:off], tol, sweep) {
			return ts.signal(&st), st, nil
		}
	}
	return ts.exhausted(&st, maxSweeps, "sweeps")
}

// AsynchronousColumns diffuses a column block with the asynchronous engine:
// seeded randomized single-node Gauss–Seidel updates, per-column sweep
// residuals, and columns retired the sweep their residual first drops to
// tol. One node permutation is drawn per sweep and shared by every tile, so
// each column's update schedule — and with it its trajectory and
// retirement sweep — is bit-identical to diffusing that column alone.
func AsynchronousColumns(tr *graph.Transition, sig *Signal, p Params, r *randx.Rand) (*Signal, Stats, error) {
	n, cols, err := checkSignal(tr, sig, p)
	if err != nil {
		return nil, Stats{}, err
	}
	if n == 0 || cols == 0 {
		return emptyRun(n, cols)
	}
	tol, maxSweeps := p.controls()
	ts := newTileSet(sig, planTiles(n, cols, p.ColTile), false)
	live := make([]*colTile, 0, len(ts.tiles))
	colRes := make([]float64, cols)
	scratch := make([]float64, ts.capWidth)
	var st Stats
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		live = ts.live(live)
		perm := r.Perm(n)
		off := 0
		for _, t := range live {
			cr := colRes[off : off+t.width()]
			vecmath.Zero(cr)
			sc := scratch[:len(cr)]
			for _, u := range perm {
				tr.ApplyRowAffine(sc, u, 1-p.Alpha, t.cur, p.Alpha, t.e0row(u))
				vecmath.ResidMaxCopy(cr, t.cur.Row(u), sc)
			}
			off += len(cr)
		}
		if ts.endSweep(&st, p, tr.Graph(), live, colRes[:off], tol, sweep) {
			return ts.signal(&st), st, nil
		}
	}
	return ts.exhausted(&st, maxSweeps, "sweeps")
}

// ParallelColumns diffuses a column block with the residual-driven frontier
// engine: instead of sweeping every node, it maintains an active frontier
// of nodes with significant unseen incoming change (the Gauss–Southwell
// selection rule, per the PowerWalk observation that converged regions of
// the graph need no further work). A node sends on an edge once the change
// accumulated since that edge's last send exceeds a receiver-aware
// threshold derived from pushTol = tol/4 (see pushState). Each round
// recomputes the whole frontier from the previous round's values (block
// Jacobi on the active set), so the result is deterministic regardless of
// scheduling or worker count. The frontier is processed by a fixed pool of
// p.Workers goroutines (default GOMAXPROCS).
//
// Scheduling is shared across the block: a frontier node's residual is
// its largest change over every tile's columns, and one per-edge staleness
// accumulator gates sends for the whole block (a send carries every active
// column, so firing an edge resets the staleness of all columns at once —
// each column's individual unseen influence per receiver therefore stays
// within the tol/4 budget). Tiling changes only where each tile's compute
// pass reads from, never the frontier, the messages, or the retirements.
//
// Per-column early termination: a column whose largest change over the
// round's frontier falls to retireTol — pushTol, scaled down by the
// operator's largest weighted in-degree — is retired, since every
// receiver's pending change in it is then within tol/2. Global quiescence
// (no node re-queued) retires every remaining column.
//
// Stats.Messages counts one transfer per edge send plus the initial
// neighbourhood announcement, the same gossip accounting as a real
// deployment.
func ParallelColumns(tr *graph.Transition, sig *Signal, p Params) (*Signal, Stats, error) {
	n, cols, err := checkSignal(tr, sig, p)
	if err != nil {
		return nil, Stats{}, err
	}
	if n == 0 || cols == 0 {
		return emptyRun(n, cols)
	}
	tol, maxRounds := p.controls()
	pushTol := tol / 4
	retire := retireTol(tr, pushTol, p.Alpha)
	workers := p.workers(n)
	ts := newTileSet(sig, planTiles(n, cols, p.ColTile), true)
	live := make([]*colTile, 0, len(ts.tiles))
	offs := make([]int, len(ts.tiles))
	g := tr.Graph()
	resid := make([]float64, n)
	queued := make([]atomic.Bool, n)
	frontier := make([]graph.NodeID, n)
	for u := range frontier {
		frontier[u] = u
	}
	edgeOff, edgeThr, edgeStale := pushState(tr, pushTol, p.Alpha)

	shards := make([]parShard, workers)
	for w := range shards {
		shards[w].colRes = make([]float64, cols)
	}
	pool := newWorkerPool(workers)
	defer pool.close()
	var cursor atomic.Int64
	colRound := make([]float64, cols)
	var obsMsgs int64 // last Messages total handed to the observer
	var st Stats

	// Bootstrap accounting: every node announces its signal to its
	// neighbourhood so the first round has inputs to read (Σ deg(u) = 2|E|).
	st.Messages = 2 * int64(g.NumEdges())

	// The phase closures and the commit context are built once and read
	// each round's frontier and live tiles through their captures, so a
	// round allocates nothing of its own.
	var (
		nt     int    // live tiles this round
		cum    [2]int // claim range for forEachClaimed: {0, len(frontier)}
		commit = commitCtx{
			tr: tr, resid: resid,
			edgeOff: edgeOff, edgeThr: edgeThr, edgeStale: edgeStale,
			queued: queued, cursor: &cursor,
		}
	)
	// Compute phase: per frontier node, one fused CSR pass per tile
	// advances its active columns; per-column maxima feed retirement and
	// the per-node max feeds the shared push scheduling. Writes touch only
	// next rows and resid slots of frontier nodes, reads only cur — no
	// write conflicts.
	compute := func(id int) {
		sh := &shards[id]
		forEachClaimed(&cursor, cum[:], func(_, lo, hi int) {
			for _, u := range frontier[lo:hi] {
				var nodeRes float64
				for ti := 0; ti < nt; ti++ {
					t := live[ti]
					row := t.next.Row(u)
					tr.ApplyRowAffine(row, u, 1-p.Alpha, t.cur, p.Alpha, t.e0row(u))
					cr := sh.colRes[offs[ti] : offs[ti]+len(row)]
					if d := vecmath.ResidMax(cr, t.cur.Row(u), row); d > nodeRes {
						nodeRes = d
					}
				}
				resid[u] = nodeRes
				sh.updates++
			}
		})
	}
	// Commit phase: publish the new values and mark every neighbour of a
	// significantly changed node for the next round. When the frontier
	// covers every node the row copies are replaced by one buffer swap per
	// tile after the phase.
	publish := func(id int) { commit.work(&shards[id]) }
	for round := 1; round <= maxRounds; round++ {
		live = ts.live(live)
		w := 0
		for ti, t := range live {
			offs[ti] = w
			w += t.width()
		}
		nt = len(live)
		cum[1] = len(frontier)
		cursor.Store(0)
		pool.run(compute)
		commit.frontier, commit.tiles, commit.cum = frontier, live, cum
		commit.fullRound = len(frontier) == n
		cursor.Store(0)
		pool.run(publish)
		if commit.fullRound {
			for _, t := range live {
				t.cur, t.next = t.next, t.cur
			}
		}
		st.Sweeps = round
		var roundResid float64
		total := 0
		cr := colRound[:w]
		vecmath.Zero(cr)
		for id := range shards {
			sh := &shards[id]
			st.Updates += sh.updates
			st.Messages += sh.messages
			if sh.maxResid > roundResid {
				roundResid = sh.maxResid
			}
			for j, v := range sh.colRes[:w] {
				if v > cr[j] {
					cr[j] = v
				}
			}
			vecmath.Zero(sh.colRes[:w])
			sh.updates, sh.messages, sh.maxResid = 0, 0, 0
			total += len(sh.next)
		}
		st.Residual = roundResid
		if p.Observe != nil {
			p.Observe.ObserveSweep(SweepStat{
				Sweep: round, ActiveNodes: len(frontier), ActiveColumns: w,
				Residual: roundResid, ResidualL1: sumOf(cr),
				Messages: st.Messages - obsMsgs,
			})
			obsMsgs = st.Messages
		}
		if total == 0 {
			// Global quiescence: every receiver's pending incoming
			// influence is below tol/4 for every column (per-column
			// staleness never exceeds the shared accumulator). All
			// remaining columns retire.
			ts.retireAll(round)
			st.Converged = true
			return ts.signal(&st), st, nil
		}
		frontier = rebuildFrontier(shards, queued, frontier)
		if ts.retire(live, cr, retire, p.Stop, round) {
			st.Converged = true
			return ts.signal(&st), st, nil
		}
	}
	return ts.exhausted(&st, maxRounds, "rounds")
}

// workers resolves the pool size of the parallel engines for an n-node
// graph: Params.Workers, defaulting to GOMAXPROCS, never more than n.
func (p Params) workers(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n && n > 0 {
		w = n
	}
	return w
}

// maxOf returns the largest value of v (0 for an empty slice).
func maxOf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
