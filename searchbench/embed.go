package main

import (
	"fmt"
	"time"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/vecmath"
)

// embedSystem is the paper's §IV-B scheme: Network.Run diffuses the
// embedding matrix once per move batch, and each search is one greedy walk
// scoring neighbours against the diffused embeddings, from one client.
type embedSystem struct {
	tr  *tracer
	in  *inputs
	net *core.Network
}

var embedRequest = core.DiffusionRequest{Engine: diffuse.EngineParallel, Alpha: alpha}

func (m *embedSystem) setup(in *inputs, pl *placement, sp int) error {
	m.in = in
	m.net = core.NewNetwork(in.g, in.vocab)
	return m.reindex(pl, sp)
}

// reindex re-places the documents, rebuilds E0 and re-diffuses it.
func (m *embedSystem) reindex(pl *placement, parent int) error {
	if err := placeAndPersonalize(m.net, pl, m.tr, parent); err != nil {
		return err
	}
	sp := m.tr.begin(spanDiffuse, parent, -1, -1)
	st, err := m.net.Run(embedRequest)
	m.tr.end(sp, map[string]float64{"sweeps": float64(st.Sweeps), "messages": float64(st.Messages)})
	if err != nil {
		return fmt.Errorf("diffuse embeddings: %w", err)
	}
	return nil
}

func (m *embedSystem) move(_ []move, pl *placement, sp int) error { return m.reindex(pl, sp) }

func (m *embedSystem) searchBlock(ss []search, out []outcome) {
	for i, s := range ss {
		out[i] = m.search(s)
	}
}

func (m *embedSystem) search(s search) outcome {
	start := time.Now()
	root := m.tr.begin(spanSearch, -1, s.id, -1)
	sp := m.tr.begin(spanWalk, root, s.id, -1)
	res, err := m.net.RunQuery(s.origin, m.in.vocab.Vector(s.pair.Query), s.pair.Gold, core.QueryConfig{TTL: s.ttl, K: topK})
	m.tr.end(sp, map[string]float64{"hops": float64(res.HopsTraveled)})
	m.tr.end(root, nil)
	if err != nil {
		return outcome{err: fmt.Errorf("walk: %w", err)}
	}
	return outcome{dur: time.Since(start), found: res.Found, msgs: res.Messages, results: res.Results}
}

// checkSearches has nothing to re-solve per search: the walk reads the
// diffused embeddings, which checkMoves verifies after every batch.
func (m *embedSystem) checkSearches([]search, []outcome, *placement) (int, error) { return 0, nil }

// checkMoves checks the fixed-point residual of the diffused embeddings
// against E0 rebuilt from the placement (every move of the batch fails if
// it is too large), then searches for every moved document at its new
// host.
func (m *embedSystem) checkMoves(ms []move, pl *placement) (int, error) {
	n := m.in.g.NumNodes()
	emb := vecmath.NewMatrix(n, m.in.vocab.Dim())
	for u := range n {
		row, err := m.net.NodeEmbedding(u)
		if err != nil {
			return 0, err
		}
		emb.SetRow(u, row)
	}
	if err := checkFixedPoint(m.in.g, personalization(m.in, pl), emb, alpha, embedResidualBound); err != nil {
		logf("embed: %v", err)
		return len(ms), nil
	}
	return checkMovedDocs(m, m.in, ms, pl), nil
}

func (m *embedSystem) close() {}
