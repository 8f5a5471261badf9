package diffuse

import (
	"fmt"

	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/vecmath"
)

// Engine selects a diffusion driver. The engines reach the same PPR fixed
// point (within tolerance); they differ in scheduling and cost model.
type Engine int

const (
	// EngineAsynchronous is the deterministic sequential reference: seeded
	// randomized single-node updates, bit-for-bit reproducible.
	EngineAsynchronous Engine = iota + 1
	// EngineParallel is the residual-driven frontier engine on a fixed
	// worker pool — the fast path for large graphs and live serving.
	EngineParallel
	// EngineSync is the synchronous fixed-point iteration of eq. 7 (every
	// node per sweep, one global barrier). It is bit-for-bit compatible
	// with the historical ppr.PPRFilter path and keeps that path's tighter
	// default tolerance, so it is the scoring-grade reference engine.
	EngineSync
	// EngineParallelGS is the deterministic multi-color Gauss–Seidel
	// engine: one sweep updates the graph's color classes in fixed order
	// (no class contains an edge, so each class parallelizes freely), so
	// updates read the freshest cross-class values like the Asynchronous
	// engine while results stay identical across worker counts. Fewer
	// sweeps than EngineParallel's block-Jacobi rounds at equal tolerance,
	// at the cost of one barrier per color class per sweep.
	EngineParallelGS
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineAsynchronous:
		return "async"
	case EngineParallel:
		return "parallel"
	case EngineSync:
		return "sync"
	case EngineParallelGS:
		return "gs"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Valid reports whether e is a known engine.
func (e Engine) Valid() bool {
	return e == EngineAsynchronous || e == EngineParallel || e == EngineSync || e == EngineParallelGS
}

// ParseEngine maps a command-line name to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "async", "asynchronous":
		return EngineAsynchronous, nil
	case "parallel":
		return EngineParallel, nil
	case "sync", "synchronous":
		return EngineSync, nil
	case "gs", "parallel-gs", "gauss-seidel":
		return EngineParallelGS, nil
	}
	return 0, fmt.Errorf("diffuse: unknown engine %q (want async|parallel|sync|gs)", s)
}

// Run diffuses an n×d matrix — the §IV-B embedding diffusion — on the
// selected engine. The matrix is a d-column Signal, so Run is RunSignal on
// NewSignal(e0): every column retires the sweep it individually converges
// (see Stats.ColumnSweeps). The returned matrix holds one diffused row per
// node; e0 is not modified.
func Run(e Engine, tr *graph.Transition, e0 *vecmath.Matrix, p Params, seed uint64) (*vecmath.Matrix, Stats, error) {
	sig, st, err := RunSignal(e, tr, NewSignal(e0), p, seed)
	if sig == nil {
		return nil, st, err
	}
	return sig.Matrix(), st, err
}

// RunSignal dispatches one column-blocked diffusion of a Signal to the
// selected engine. The engines track residuals per column and retire
// columns from the working block as soon as they individually converge
// (see Signal). seed feeds the Asynchronous engine's update schedule and
// is ignored by the schedule-independent engines. Batch results are
// bit-identical to diffusing each column as its own single-column Signal
// on the sync, async, and GS engines, and EngineSync on one column is
// bit-identical to ppr.PPRFilter. Wide batches run column-tiled per
// Params.ColTile — bit-identical to one tile on every engine, just faster.
func RunSignal(e Engine, tr *graph.Transition, sig *Signal, p Params, seed uint64) (*Signal, Stats, error) {
	switch e {
	case EngineAsynchronous:
		return AsynchronousColumns(tr, sig, p, randx.Derive(seed, "diffuse", "async"))
	case EngineParallel:
		return ParallelColumns(tr, sig, p)
	case EngineSync:
		return SynchronousColumns(tr, sig, p)
	case EngineParallelGS:
		return ParallelGSColumns(tr, sig, p)
	}
	return nil, Stats{}, fmt.Errorf("diffuse: unknown engine %d", int(e))
}
