package core

import (
	"fmt"

	"diffusearch/internal/diffuse"
	"diffusearch/internal/graph"
	"diffusearch/internal/ppr"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
)

// DefaultScoreTol is the per-column convergence tolerance ScoreBatch uses
// when the request leaves Tol zero. Scoring keeps the precision of the
// synchronous reference filter (ppr.DefaultTol, the single authoritative
// constant) on every engine, so switching engines never loosens query
// relevances silently.
const DefaultScoreTol = ppr.DefaultTol

// ServeClass is the scheduling class a serving-layer request belongs to.
// Interactive queries want low tail latency (they jump into the next
// dispatching batch); Bulk queries — prewarms, re-embedding sweeps,
// analytics — trade latency for batch width. The diffusion engines ignore
// the class; the serve layer stamps it on every dispatched request so
// stats and traces identify what a batch was dispatched for.
type ServeClass uint8

const (
	// ClassInteractive is the zero value: latency-sensitive traffic.
	ClassInteractive ServeClass = iota
	// ClassBulk marks width-filling background traffic.
	ClassBulk
	// NumServeClasses bounds per-class arrays (histograms, quantiles).
	NumServeClasses = iota
)

// String renders the class for logs and flags.
func (c ServeClass) String() string {
	switch c {
	case ClassInteractive:
		return "interactive"
	case ClassBulk:
		return "bulk"
	}
	return fmt.Sprintf("ServeClass(%d)", uint8(c))
}

// DiffusionRequest is the single dispatch struct behind every diffusion on
// a Network: embedding diffusion (Run) and batch query scoring
// (ScoreBatch).
type DiffusionRequest struct {
	// Engine selects the diffusion driver; the zero value selects
	// diffuse.EngineParallel, the fast path for serving.
	Engine diffuse.Engine
	// Alpha is the PPR teleport probability (required, in (0,1]).
	Alpha float64
	// Tol is the max-norm convergence tolerance; 0 selects the engine
	// default in Run (sync 1e-8, async/parallel 1e-6) and DefaultScoreTol
	// in ScoreBatch.
	Tol float64
	// MaxSweeps bounds sweeps/rounds; 0 selects the engine default.
	MaxSweeps int
	// Workers sizes the Parallel and ParallelGS engines' pools; 0 means
	// GOMAXPROCS.
	Workers int
	// ColTile controls column tiling of wide batch diffusions: 0 (the
	// default) auto-tiles batches of 256+ columns with a tile width from
	// the engine's L2 cache model, < 0 disables tiling, > 0 forces that
	// tile width. Tiled runs produce bit-identical scores — the knob
	// trades only throughput — so it is safe to leave on auto everywhere;
	// override it when profiling shows the default tile misfits the
	// host's cache. Sharded scoring backends ignore it.
	ColTile int
	// Seed drives the Asynchronous engine's update schedule; the other
	// engines are schedule-independent and ignore it.
	Seed uint64
	// Filter, when non-nil, overrides Engine with an arbitrary low-pass
	// graph filter (§II-C; e.g. ppr.HeatKernelFilter). Filter runs have no
	// per-column early termination and do not record Alpha on the network.
	// Filters always run on the network's full CSR: they are defined over
	// the whole operator, so a sharded scoring backend does not apply.
	Filter ppr.Filter
	// Tenant names the graph this request targets in a multi-tenant serve
	// deployment. The diffusion engines ignore it; the serve layer's
	// per-tenant scheduler registry (serve.Multi) stamps it on every
	// dispatched request so stats and traces identify which tenant a batch
	// belonged to.
	Tenant string
	// Class tags the scheduling class of a serving-layer dispatch: the
	// serve.Scheduler stamps ClassBulk on batches whose every column is
	// width-filling background work (prewarms, analytics) and
	// ClassInteractive otherwise. The engines ignore it, like Tenant.
	Class ServeClass
	// TopK, when > 0, asks for the k best-scoring document-host nodes
	// instead of the full per-node score vector. ScoreBatchTopK serves it —
	// through the bidirectional ranker when one is attached (internal/topk:
	// reverse-push bounds let the forward diffusion stop as soon as the
	// top-k set is provably stable), through a full-vector diffusion plus
	// ranking otherwise. Run and ScoreBatch ignore it, like Tenant and
	// Class: a full-vector entry point always returns the full vector.
	TopK int
	// Observer, when non-nil, taps the convergence profile: the column
	// kernels behind Run, ScoreBatch, and ScoreBatchTopK deliver one
	// diffuse.SweepStat per sweep (frontier size, residual mass,
	// per-sweep message traffic) to it. Strictly read-only — an observed
	// run is bit-identical to an unobserved one — and threaded through
	// every scoring backend, so walk-index residual finishes and top-k
	// certified stops report the same way plain CSR diffusions do.
	Observer diffuse.Observer
}

// engine resolves the default driver.
func (r DiffusionRequest) engine() diffuse.Engine {
	if r.Engine == 0 {
		return diffuse.EngineParallel
	}
	return r.Engine
}

// params converts the request to engine parameters.
func (r DiffusionRequest) params() diffuse.Params {
	return diffuse.Params{Alpha: r.Alpha, Tol: r.Tol, MaxSweeps: r.MaxSweeps, Workers: r.Workers, ColTile: r.ColTile, Observe: r.Observer}
}

// projectQueries builds the n×B relevance signal x_j[v] = e_qj · E0[v] that
// both ScoreBatch and ScoreBatchTopK diffuse (see ScoreBatch). Requires
// the DotProduct scorer and computed personalization.
func (n *Network) projectQueries(queries [][]float64) (*vecmath.Matrix, error) {
	if n.perso == nil {
		return nil, ErrNoPersonalization
	}
	if n.scorer != retrieval.DotProduct {
		return nil, fmt.Errorf("core: fast scoring requires the dot-product scorer, have %v", n.scorer)
	}
	dim := n.vocab.Dim()
	for j, q := range queries {
		if len(q) != dim {
			return nil, fmt.Errorf("core: query %d has %d dims, vocabulary has %d", j, len(q), dim)
		}
	}
	nn := n.g.NumNodes()
	x := vecmath.NewMatrix(nn, len(queries))
	for u := 0; u < nn; u++ {
		vecmath.DotColumns(x.Row(u), queries, n.perso.Row(u))
	}
	return x, nil
}

// filterStats maps filter iteration statistics onto the engine Stats shape
// (a synchronous filter iteration is one sweep per iteration).
func filterStats(st ppr.Stats) diffuse.Stats {
	return diffuse.Stats{Sweeps: st.Iterations, Residual: st.Residual, Converged: st.Converged}
}

// EngineFilter adapts a DiffusionRequest to the ppr.Filter interface, so
// engine-backed diffusion can be handed to any code that composes graph
// filters. The adapter direction lives here (not in ppr) because ppr must
// not import diffuse.
func EngineFilter(req DiffusionRequest) ppr.Filter {
	return ppr.FilterFunc(func(tr *graph.Transition, e0 *vecmath.Matrix) (*vecmath.Matrix, ppr.Stats, error) {
		out, st, err := diffuse.Run(req.engine(), tr, e0, req.params(), req.Seed)
		return out, ppr.Stats{Iterations: st.Sweeps, Residual: st.Residual, Converged: st.Converged}, err
	})
}

// Run executes one embedding diffusion described by req and stores the
// diffused embeddings: the network's E0 personalization matrix is smoothed
// by the selected engine (or req.Filter) and subsequent NodeScores /
// RunQuery calls read the result. Alpha is recorded for fast scoring
// unless a Filter ran.
func (n *Network) Run(req DiffusionRequest) (diffuse.Stats, error) {
	if n.perso == nil {
		return diffuse.Stats{}, ErrNoPersonalization
	}
	if req.Filter != nil {
		emb, pst, err := req.Filter.Apply(n.tr, n.perso)
		if err != nil {
			return filterStats(pst), err
		}
		n.emb = emb
		return filterStats(pst), nil
	}
	emb, st, err := n.scoring.DiffuseSignal(diffuse.NewSignal(n.perso), req.engine(), req.params(), req.Seed)
	if err != nil {
		return st, err
	}
	n.emb = emb.Matrix()
	n.alpha = req.Alpha
	return st, nil
}

// ScoreBatch scores every node for a batch of B queries in one diffusion,
// the same scores NodeScores reads off diffused embeddings but without
// materializing them. With the dot-product scorer, linearity gives
//
//	s[u] = e_q · (H·E0)[u] = (H·x)[u]  where  x[v] = e_q · E0[v],
//
// so ScoreBatch projects the personalization matrix onto each query,
// assembles the n×B relevance Signal, diffuses it column-blocked on the
// selected engine (default Parallel), and returns one per-node score slice
// per query. Each CSR row streams once per node per batch instead of once
// per query, and early-terminated columns (see Stats.ColumnSweeps) stop
// costing work while slower ones finish. On EngineSync a one-query batch
// is bit-compatible with the historical ppr.PPRFilter path.
//
// Requires the DotProduct scorer and computed personalization. Tol 0
// selects DefaultScoreTol on every engine.
func (n *Network) ScoreBatch(queries [][]float64, req DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	x, err := n.projectQueries(queries)
	if err != nil {
		return nil, diffuse.Stats{}, err
	}
	nn := n.g.NumNodes()
	b := len(queries)
	if req.Tol <= 0 {
		req.Tol = DefaultScoreTol
	}
	var (
		out *vecmath.Matrix
		st  diffuse.Stats
	)
	if req.Filter != nil {
		var pst ppr.Stats
		out, pst, err = req.Filter.Apply(n.tr, x)
		st = filterStats(pst)
	} else {
		var sig *diffuse.Signal
		sig, st, err = n.scoring.DiffuseSignal(diffuse.NewSignal(x), req.engine(), req.params(), req.Seed)
		if sig != nil {
			out = sig.Matrix()
		}
	}
	if err != nil {
		return nil, st, err
	}
	scores := make([][]float64, b)
	for j := range scores {
		scores[j] = make([]float64, nn)
	}
	for u := 0; u < nn; u++ {
		row := out.Row(u)
		for j, v := range row {
			scores[j][u] = v
		}
	}
	return scores, st, nil
}
