// Package shard hosts partitioned multi-graph environments: the overlay's
// transition operator is split into several per-shard CSRs
// (graph.ShardSet) that diffuse concurrently with residual hand-off across
// boundary edges, behind a backend that satisfies core.Scorer — so a
// ShardedNetwork answers the exact same DiffusionRequest API
// (Run/ScoreBatch) as a single-CSR core.Network. PowerWalk-style
// vertex-centric decomposition is the scaling path for PPR at production
// size; partition-aware diffusion keeps most pushes shard-local while the
// boundary mailboxes carry the rest.
//
// Sharding changes where the diffusion runs, never what it computes: the
// sharded parallel and sync kernels are bit-for-bit identical to their
// single-CSR counterparts (asserted in the equivalence property test), and
// the sequential asynchronous reference delegates to the full CSR.
//
// The second half of the story is multi-tenancy: several ShardedNetworks —
// one per tenant graph — can share one diffuse.Pool, so a single process
// diffuses many graphs concurrently on a bounded worker set. serve.Multi
// puts a per-tenant coalescing scheduler in front of that arrangement.
package shard

import (
	"fmt"
	"runtime"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/embed"
	"diffusearch/internal/graph"
)

// Config parameterizes a sharded backend.
type Config struct {
	// Shards is the partition count; 0 selects GOMAXPROCS (one shard per
	// core is the natural single-tenant default), values are clamped to
	// the node count.
	Shards int
	// Partitioner splits the node set; nil selects graph.RangePartitioner
	// (contiguous ranges — cheapest cut on id-localized generators). Use
	// graph.GreedyPartitioner for degree-balanced shards on hub-heavy
	// graphs.
	Partitioner graph.Partitioner
	// Pool is the worker pool shards diffuse on. Sharing one pool across
	// several tenants' backends is what bounds a multi-tenant process's
	// concurrency; nil makes each diffusion create a private pool sized by
	// the request's Workers.
	Pool *diffuse.Pool
}

// Backend is a core.Scorer that diffuses per-shard CSRs concurrently. It
// is stateless across calls apart from the immutable shard structure, so
// one Backend serves concurrent ScoreBatch dispatches (the per-tenant
// scheduler regime) without locking.
type Backend struct {
	ss   *graph.ShardSet
	pool *diffuse.Pool
}

// NewBackend partitions tr under cfg.
func NewBackend(tr *graph.Transition, cfg Config) *Backend {
	k := cfg.Shards
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	return &Backend{
		ss:   graph.NewShardSet(tr, cfg.Partitioner, k),
		pool: cfg.Pool,
	}
}

// ShardSet exposes the partitioned operator (shard CSRs, boundary counts).
func (b *Backend) ShardSet() *graph.ShardSet { return b.ss }

// DiffuseSignal implements core.Scorer. The sync and parallel engines run
// over the shards and reproduce the single-CSR kernels bit for bit, for
// ScoreBatch and Run alike; the sequential asynchronous reference and the
// globally scheduled GS engine run on the full CSR.
func (b *Backend) DiffuseSignal(sig *diffuse.Signal, engine diffuse.Engine, p diffuse.Params, seed uint64) (*diffuse.Signal, diffuse.Stats, error) {
	return diffuse.RunSharded(engine, b.ss, sig, p, seed, b.pool)
}

// ShardedNetwork is a core.Network whose diffusions run over partitioned
// Transition shards. It embeds the Network, so the whole request API —
// PlaceDocuments, ComputePersonalization, Run, ScoreBatch, RunQuery — is
// available unchanged; only the scoring backend differs.
type ShardedNetwork struct {
	*core.Network
	backend *Backend
}

// NewSharded creates a search network over graph g whose diffusions run
// sharded under cfg. Options are the usual core options (normalization,
// scorer, summarization).
func NewSharded(g *graph.Graph, vocab *embed.Vocabulary, cfg Config, opts ...core.Option) *ShardedNetwork {
	return Attach(core.NewNetwork(g, vocab, opts...), cfg)
}

// Attach shards an existing Network's scoring in place: the network's
// transition operator is partitioned under cfg and installed as the
// diffusion backend. Useful when the Network is built elsewhere (e.g. the
// peerd topology mirror) and only the scoring should be sharded. The
// returned wrapper shares the Network — queries and placements through
// either handle see the same state.
func Attach(net *core.Network, cfg Config) *ShardedNetwork {
	b := NewBackend(net.Transition(), cfg)
	net.SetScorer(b)
	return &ShardedNetwork{Network: net, backend: b}
}

// Backend returns the sharded scoring backend.
func (s *ShardedNetwork) Backend() *Backend { return s.backend }

// NumShards returns the partition count.
func (s *ShardedNetwork) NumShards() int { return s.backend.ss.NumShards() }

// Partition returns the node→shard assignment.
func (s *ShardedNetwork) Partition() *graph.Partition { return s.backend.ss.Partition() }

// CrossEntries returns the directed boundary-edge count — the worst-case
// per-round cross-shard message volume (see graph.ShardSet.CrossEntries).
func (s *ShardedNetwork) CrossEntries() int { return s.backend.ss.CrossEntries() }

// String summarizes the sharding for logs.
func (s *ShardedNetwork) String() string {
	g := s.Graph()
	return fmt.Sprintf("sharded(%d shards, %d/%d boundary entries)",
		s.NumShards(), s.CrossEntries(), 2*g.NumEdges())
}
