package main

import (
	"fmt"
	"slices"
	"time"

	"diffusearch/internal/graph"
	"diffusearch/internal/peernet"
	"diffusearch/internal/retrieval"
)

// peerd's routed fan-out defaults (-filterbits, -filterhashes, -querykeys).
var gossipFilter = peernet.FilterConfig{Bits: 1024, Hashes: 4, QueryKeys: 8}

const (
	gossipMaxRounds = 300 // a move batch or bootstrap not quiescent by then fails
	gossipSampled   = 20  // searches per block re-run unrouted for the recall check
)

// gossipSystem is peernet.SimNetwork, the deterministic replica of the live
// peer protocol: bootstrap gossip, bloom-routed walks over gossip-cached
// neighbour embeddings, re-gossip after SetDocs.
type gossipSystem struct {
	tr  *tracer
	in  *inputs
	net *peernet.SimNetwork
	// quiet records whether the last gossip reached quiescence within
	// gossipMaxRounds; checkMoves fails the batch otherwise.
	quiet bool
}

func (m *gossipSystem) setup(in *inputs, pl *placement, sp int) error {
	m.in = in
	adj := make([][]graph.NodeID, in.g.NumNodes())
	for u := range adj {
		adj[u] = in.g.Neighbors(u)
	}
	docs := make(map[graph.NodeID][]retrieval.DocID, len(pl.docsAt))
	for u, held := range pl.docsAt {
		docs[u] = slices.Clone(held)
	}
	net, err := peernet.NewSimNetwork(peernet.SimConfig{
		Neighbors: adj,
		Vocab:     in.vocab,
		Docs:      docs,
		Alpha:     alpha,
		Filter:    gossipFilter,
		Seed:      in.seed,
	})
	if err != nil {
		return fmt.Errorf("build sim network: %w", err)
	}
	m.net = net
	if !m.gossip(sp) {
		return fmt.Errorf("bootstrap gossip not quiescent after %d rounds", gossipMaxRounds)
	}
	return nil
}

// gossip runs rounds until one announces nothing (SimNetwork.Converge, one
// span per round).
func (m *gossipSystem) gossip(parent int) bool {
	for range gossipMaxRounds {
		sp := m.tr.begin(spanRound, parent, -1, -1)
		ann := m.net.GossipRound()
		m.tr.end(sp, map[string]float64{"announcements": float64(ann)})
		if ann == 0 {
			m.quiet = true
			return true
		}
	}
	m.quiet = false
	return false
}

// move hands every touched peer its new collection, then re-gossips to
// quiescence.
func (m *gossipSystem) move(ms []move, pl *placement, sp int) error {
	for _, u := range touched(ms) {
		s := m.tr.begin(spanSetDocs, sp, -1, -1)
		m.net.SetDocs(u, pl.docsAt[u])
		m.tr.end(s, nil)
	}
	m.gossip(sp)
	return nil
}

func (m *gossipSystem) searchBlock(ss []search, out []outcome) {
	for i, s := range ss {
		out[i] = m.search(s)
	}
}

// queryKeys mines the doc-term keys of a query word at the origin. The
// query word itself is dropped: query words are never placed as
// documents, yet it is trivially the closest word to its own embedding
// and would take the primary-key slot that arms the early stop (the same
// correction the fanout experiment makes).
func queryKeys(in *inputs, word retrieval.DocID) []retrieval.DocID {
	raw := peernet.QueryKeys(in.vocab, in.vocab.Vector(word), retrieval.DotProduct, gossipFilter.QueryKeys+1)
	keys := make([]retrieval.DocID, 0, gossipFilter.QueryKeys)
	for _, d := range raw {
		if d != word && len(keys) < gossipFilter.QueryKeys {
			keys = append(keys, d)
		}
	}
	return keys
}

func (m *gossipSystem) search(s search) outcome {
	start := time.Now()
	root := m.tr.begin(spanSearch, -1, s.id, -1)
	sp := m.tr.begin(spanKeys, root, s.id, -1)
	keys := queryKeys(m.in, s.pair.Query)
	m.tr.end(sp, nil)
	sp = m.tr.begin(spanSimWalk, root, s.id, -1)
	res := m.net.RunQuery(s.origin, m.in.vocab.Vector(s.pair.Query), keys, s.ttl, topK)
	stop := 0.0
	if res.EarlyStop {
		stop = 1
	}
	m.tr.end(sp, map[string]float64{
		"filter_hits": float64(res.FilterHits), "early_stop": stop, "hops": float64(len(res.Hops)),
	})
	m.tr.end(root, nil)
	return outcome{
		dur: time.Since(start), found: containsDoc(res.Results, s.pair.Gold), msgs: res.Messages,
		results: res.Results, hops: res.Hops,
	}
}

// checkSearches compares every walk's results with a brute-force top-k over
// the documents its peers hold, and checks on a sample that routed recall
// is at least unrouted recall on the same searches.
func (m *gossipSystem) checkSearches(ss []search, out []outcome, pl *placement) (int, error) {
	bad := 0
	for i, s := range ss {
		want := bruteTopK(m.in.vocab, pl, out[i].hops, m.in.vocab.Vector(s.pair.Query), topK)
		if err := sameResults(out[i].results, want); err != nil {
			logf("gossip search %d: %v", s.id, err)
			bad++
		}
	}
	return bad + m.recallShortfall(ss, out), nil
}

// recallShortfall re-runs the first gossipSampled searches unrouted (no
// keys) and returns how many fewer golds the routed results hold than the
// unrouted ones on that sample.
func (m *gossipSystem) recallShortfall(ss []search, out []outcome) int {
	n := min(gossipSampled, len(ss))
	routed, unrouted := 0, 0
	for i, s := range ss[:n] {
		if containsDoc(out[i].results, s.pair.Gold) {
			routed++
		}
		base := m.net.RunQuery(s.origin, m.in.vocab.Vector(s.pair.Query), nil, s.ttl, topK)
		if containsDoc(base.Results, s.pair.Gold) {
			unrouted++
		}
	}
	if routed >= unrouted {
		return 0
	}
	logf("gossip: routed recall %d/%d below unrouted %d/%d on the sample", routed, n, unrouted, n)
	return unrouted - routed
}

// checkMoves fails the whole batch when the re-gossip did not reach
// quiescence, then searches for every moved document at its new host.
func (m *gossipSystem) checkMoves(ms []move, pl *placement) (int, error) {
	if err := m.checkQuiescent(); err != nil {
		logf("gossip: %v", err)
		return len(ms), nil
	}
	return checkMovedDocs(m, m.in, ms, pl), nil
}

// checkQuiescent checks that the last gossip ended on a round that
// announced nothing, and that one more round still announces nothing.
func (m *gossipSystem) checkQuiescent() error {
	if !m.quiet {
		return fmt.Errorf("re-gossip not quiescent after %d rounds", gossipMaxRounds)
	}
	if ann := m.net.GossipRound(); ann != 0 {
		return fmt.Errorf("%d peers still announce after the gossip stopped", ann)
	}
	return nil
}

func (m *gossipSystem) close() {}
