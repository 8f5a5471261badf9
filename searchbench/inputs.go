package main

import (
	"fmt"
	"slices"
	"strconv"

	"diffusearch/internal/core"
	"diffusearch/internal/embed"
	"diffusearch/internal/expt"
	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
)

// Workload sizes shared by all three workloads, so their recall and
// msgs_per_query compare modes on identical traffic.
const (
	numDocs          = 1000 // placed documents: every mined gold plus pool fill
	numPairs         = 200  // mined query/gold pairs; searches draw from them with repeats
	searchesPerEpoch = 50   // fixed search count of one epoch
	movesPerEpoch    = 10   // documents moved at the start of every epoch
	warmupSearches   = 16   // untimed searches before the first epoch
	maxOriginHops    = 4    // origins sit 1..maxOriginHops hops from the gold host (Fig. 3)
)

// inputs are the generated, seed-determined inputs of one run: the
// paper-scale topology and vocabulary, the mined query/gold pairs, and the
// initial document placement. Generating them is not part of setup_s.
type inputs struct {
	seed  uint64
	g     *graph.Graph
	vocab *embed.Vocabulary
	pairs []embed.QueryPair
	docs  []retrieval.DocID // placed documents, golds first
	hosts []graph.NodeID    // initial host of docs[i]
}

// generateInputs builds the expt.PaperParams environment (4,039 nodes,
// average degree ≈43.7, 15k-word 300-d vocabulary), mining only the
// numPairs pairs the workload uses, and draws the initial placement of
// numDocs documents.
func generateInputs(seed uint64) (*inputs, error) {
	p := expt.PaperParams(seed)
	p.NumQueries = numPairs
	return buildInputs(p, numDocs)
}

// buildInputs generates an environment and places docs documents: every
// mined gold plus pool fill, each on a uniformly drawn host.
func buildInputs(p expt.EnvironmentParams, docs int) (*inputs, error) {
	env, err := expt.NewEnvironment(p)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	r := randx.Derive(p.Seed, "searchbench", "placement")
	placed := make([]retrieval.DocID, 0, docs)
	for _, pair := range env.Bench.Pairs {
		placed = append(placed, pair.Gold)
	}
	placed = append(placed, env.Bench.SamplePool(r, docs-len(placed))...)
	return &inputs{
		seed:  p.Seed,
		g:     env.Graph,
		vocab: env.Bench.Vocabulary(),
		pairs: env.Bench.Pairs,
		docs:  placed,
		hosts: core.UniformHosts(r, len(placed), env.Graph.NumNodes()),
	}, nil
}

// placement is the benchmark's own record of which node holds which
// document. Workloads apply moves to the system under test; the checks read
// the placement from here, never from the system.
type placement struct {
	hostOf map[retrieval.DocID]graph.NodeID
	docsAt map[graph.NodeID][]retrieval.DocID
}

func newPlacement(in *inputs) *placement {
	p := &placement{
		hostOf: make(map[retrieval.DocID]graph.NodeID, len(in.docs)),
		docsAt: make(map[graph.NodeID][]retrieval.DocID),
	}
	for i, d := range in.docs {
		p.hostOf[d] = in.hosts[i]
		p.docsAt[in.hosts[i]] = append(p.docsAt[in.hosts[i]], d)
	}
	return p
}

// lists returns the placement as parallel doc/host slices in document-id
// order (the shape core.Network.PlaceDocuments takes).
func (p *placement) lists() ([]retrieval.DocID, []graph.NodeID) {
	docs := make([]retrieval.DocID, 0, len(p.hostOf))
	for d := range p.hostOf {
		docs = append(docs, d)
	}
	slices.Sort(docs)
	hosts := make([]graph.NodeID, len(docs))
	for i, d := range docs {
		hosts[i] = p.hostOf[d]
	}
	return docs, hosts
}

// move relocates one document.
type move struct {
	doc      retrieval.DocID
	from, to graph.NodeID
}

// apply lands a move batch on the placement.
func (p *placement) apply(ms []move) {
	for _, m := range ms {
		held := p.docsAt[m.from]
		i := slices.Index(held, m.doc)
		p.docsAt[m.from] = slices.Delete(held, i, i+1)
		p.docsAt[m.to] = append(p.docsAt[m.to], m.doc)
		p.hostOf[m.doc] = m.to
	}
}

// touched returns the distinct nodes a move batch changed, in ascending order.
func touched(ms []move) []graph.NodeID {
	var ids []graph.NodeID
	for _, m := range ms {
		ids = append(ids, m.from, m.to)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// search is one planned search: a query/gold pair issued from an origin
// with a hop budget.
type search struct {
	id     int
	pair   embed.QueryPair
	origin graph.NodeID
	ttl    int
}

// planMoves draws epoch e's move batch: movesPerEpoch distinct documents,
// each to a uniformly drawn new host.
func planMoves(in *inputs, pl *placement, e int) []move {
	r := randx.Derive(in.seed, "searchbench", "moves", strconv.Itoa(e))
	n := in.g.NumNodes()
	ms := make([]move, 0, movesPerEpoch)
	for _, i := range randx.Sample(r, len(in.docs), movesPerEpoch) {
		d := in.docs[i]
		from := pl.hostOf[d]
		to := r.IntN(n - 1)
		if to >= from {
			to++
		}
		ms = append(ms, move{doc: d, from: from, to: to})
	}
	return ms
}

// planSearches draws a block of count searches under the label: pairs
// uniformly with repeats, each origin 1..maxOriginHops hops from the gold's
// current host (the nearest non-empty distance when the drawn one is empty).
func planSearches(in *inputs, pl *placement, label string, firstID, count int) []search {
	r := randx.Derive(in.seed, "searchbench", "searches", label)
	ss := make([]search, count)
	for i := range ss {
		pair := in.pairs[r.IntN(len(in.pairs))]
		groups := in.g.NodesAtDistance(pl.hostOf[pair.Gold], maxOriginHops)
		d := 1 + r.IntN(maxOriginHops)
		for d > 0 && len(groups[d]) == 0 {
			d--
		}
		ss[i] = search{id: firstID + i, pair: pair, origin: groups[d][r.IntN(len(groups[d]))], ttl: ttl}
	}
	return ss
}
