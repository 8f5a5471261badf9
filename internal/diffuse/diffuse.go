// Package diffuse implements the decentralized embedding diffusion of
// §IV-B: node pairs exchange embeddings and locally apply the update
// e_u ← (1−a)·Σ_v A[u][v]·ê_v + a·e0_u until the network reaches the PPR
// fixed point of eq. 6. Per p2pgnn [34], asynchronous updates converge to
// the synchronous solution provided no node starves.
//
// Everything diffused is a Signal: an n×B column block whose columns are
// independent scalar signals — B batched query relevances for scoring, or
// the d dimensions of the embedding matrix for Run. Four engines (see
// Engine) are schedules of the same linear system, each written once as a
// column kernel over column tiles:
//
//   - Sync: full eq. 7 sweeps; the scoring-grade reference, bit-compatible
//     with ppr.PPRFilter.
//   - Async: a deterministic, seeded replay of randomized single-node
//     updates (the Gauss–Seidel async model).
//   - Parallel: a residual-driven active-frontier engine (Gauss–Southwell
//     style) on a fixed worker pool. Only nodes with significant unseen
//     incoming change are re-queued, so work and the Messages bandwidth
//     proxy drop sharply once the diffusion localizes.
//   - GS: multi-color Gauss–Seidel, parallel within a color class and
//     deterministic for every worker count.
//
// Every kernel tracks residuals per column and retires a column as soon as
// it converges. RunSharded runs the sync and parallel schedules over
// partitioned CSRs.
package diffuse

import (
	"errors"
	"fmt"

	"diffusearch/internal/ppr"
)

// Default convergence controls.
const (
	DefaultTol       = 1e-6
	DefaultMaxSweeps = 500
)

// ErrNoConvergence is returned when the diffusion does not settle within
// its sweep budget.
var ErrNoConvergence = errors.New("diffuse: diffusion did not converge")

// Stats describes one diffusion run. Messages counts row transfers between
// distinct nodes (the bandwidth proxy: each message carries one value per
// active column).
type Stats struct {
	Updates   int64 // local recomputations performed
	Messages  int64 // embedding vectors sent across edges
	Sweeps    int   // full passes (Sync/Async/GS) or frontier rounds (Parallel)
	Residual  float64
	Converged bool

	// ColumnSweeps records per original column how many sweeps/rounds the
	// column stayed in the active block before its per-column residual
	// dropped below the engine's retirement threshold. Early-terminated
	// columns show smaller counts than Sweeps.
	ColumnSweeps []int

	// CrossMessages, set only by the sharded kernels (RunSharded), counts
	// the subset of Messages whose sender and receiver live in different
	// shards — the residual traffic a distributed deployment would put on
	// the wire. Always ≤ Messages; 0 for single-shard or unsharded runs.
	CrossMessages int64
}

// Params configure a diffusion run.
type Params struct {
	Alpha     float64 // PPR teleport probability
	Tol       float64 // max-norm convergence tolerance; 0 means DefaultTol
	MaxSweeps int     // sweep/round budget; 0 means DefaultMaxSweeps
	Workers   int     // Parallel and GS engines only: pool size; 0 means GOMAXPROCS

	// ColTile controls column tiling of the single-CSR kernels (see
	// tile.go): 0 auto-tiles wide batches (B ≥ 256) with a width from the
	// L2 cache model, < 0 runs one tile spanning the batch, > 0 forces
	// that tile width at any batch width. Every plan is bit-identical —
	// the knob trades only speed. The sharded kernels ignore it.
	ColTile int

	// Stop, when non-nil, lets the kernels retire columns before their
	// residual converges (see StopPredicate).
	Stop StopPredicate

	// Observe, when non-nil, receives one SweepStat per sweep/round (see
	// Observer) — a read-only tap on the convergence profile that can
	// never change the result.
	Observe Observer
}

func (p Params) controls() (tol float64, maxSweeps int) {
	tol, maxSweeps = p.Tol, p.MaxSweeps
	if tol <= 0 {
		tol = DefaultTol
	}
	if maxSweeps <= 0 {
		maxSweeps = DefaultMaxSweeps
	}
	return tol, maxSweeps
}

// Synchronous-engine convergence controls. The synchronous iteration is the
// scoring-grade reference (eq. 7 applied to every node per sweep), so its
// defaults alias the authoritative ppr.PPRFilter controls rather than the
// looser gossip-engine defaults: callers that relied on
// ppr.PPRFilter{Tol: 0} keep bit-identical behaviour through EngineSync.
const (
	DefaultSyncTol       = ppr.DefaultTol
	DefaultSyncMaxSweeps = ppr.DefaultMaxIter
)

// syncControls resolves the zero-value defaults for the synchronous engine.
func (p Params) syncControls() (tol float64, maxSweeps int) {
	tol, maxSweeps = p.Tol, p.MaxSweeps
	if tol <= 0 {
		tol = DefaultSyncTol
	}
	if maxSweeps <= 0 {
		maxSweeps = DefaultSyncMaxSweeps
	}
	return tol, maxSweeps
}

func (p Params) validate() error {
	if p.Alpha <= 0 || p.Alpha > 1 {
		return fmt.Errorf("diffuse: teleport probability %v out of (0,1]", p.Alpha)
	}
	return nil
}
