package core

import (
	"fmt"

	"diffusearch/internal/diffuse"
	"diffusearch/internal/graph"
)

// Scorer is the diffusion backend behind a Network's Run and ScoreBatch:
// given the resolved engine and parameters of a DiffusionRequest, it
// diffuses an n×B column-blocked signal — the n×d embedding matrix for
// Run, the batched scalar query relevances for ScoreBatch — with
// per-column early termination over some representation of the topology.
// The default backend diffuses the network's single CSR; internal/shard
// provides a partitioned implementation that diffuses per-shard CSRs
// concurrently on a shared worker pool, so one process can serve many
// tenant graphs. Swapping the backend changes where the diffusion runs,
// never the request API — every entry point keeps going through
// DiffusionRequest.
type Scorer interface {
	DiffuseSignal(sig *diffuse.Signal, engine diffuse.Engine, p diffuse.Params, seed uint64) (*diffuse.Signal, diffuse.Stats, error)
}

// csrScorer is the default single-CSR backend: it dispatches to the engine
// implementations directly.
type csrScorer struct {
	tr *graph.Transition
}

func (s *csrScorer) DiffuseSignal(sig *diffuse.Signal, engine diffuse.Engine, p diffuse.Params, seed uint64) (*diffuse.Signal, diffuse.Stats, error) {
	return diffuse.RunSignal(engine, s.tr, sig, p, seed)
}

// SetScorer installs a custom diffusion backend (e.g. the sharded backend
// of internal/shard). Passing nil restores the single-CSR default over the
// network's current transition operator. The backend must diffuse over the
// same topology the network was built on — scores and embeddings are
// indexed by this network's node ids.
func (n *Network) SetScorer(s Scorer) {
	if s == nil {
		s = &csrScorer{tr: n.tr}
	}
	n.scoring = s
}

// ScoringBackend returns the active diffusion backend.
func (n *Network) ScoringBackend() Scorer { return n.scoring }

// ScorerKind names a scoring backend for command-line selection
// (peerd -scorer): the single-CSR default, the partitioned backend of
// internal/shard, or the precomputed walk index of internal/walkindex.
type ScorerKind int

const (
	ScorerCSR ScorerKind = iota + 1
	ScorerSharded
	ScorerWalkIndex
)

// String returns the flag spelling ParseScorer accepts.
func (k ScorerKind) String() string {
	switch k {
	case ScorerCSR:
		return "csr"
	case ScorerSharded:
		return "sharded"
	case ScorerWalkIndex:
		return "walkindex"
	}
	return fmt.Sprintf("ScorerKind(%d)", int(k))
}

// ParseScorer maps a command-line name to a backend kind. The empty
// string selects the CSR default, and an unknown name's error lists the
// accepted spellings (flag typos must not surface as bare errors).
func ParseScorer(s string) (ScorerKind, error) {
	switch s {
	case "", "csr":
		return ScorerCSR, nil
	case "sharded":
		return ScorerSharded, nil
	case "walkindex":
		return ScorerWalkIndex, nil
	}
	return 0, fmt.Errorf("core: unknown scorer %q (want csr|sharded|walkindex)", s)
}
