package core

import (
	"sort"

	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
)

// Policy decides which candidate neighbours a node forwards a query to
// (§IV-C: "select a few neighbors with the highest score. When a single
// neighbor is selected, the outcome is a simple random walk, otherwise,
// multiple walks are executed in parallel").
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Select returns the forwarding targets, a non-empty subset of
	// candidates (candidates is never empty). depth is the hop distance of
	// the selecting node from the query origin — walk-style policies fan
	// out only at depth 0 so that message cost stays linear in TTL, while
	// flooding fans out everywhere. score gives the diffused relevance of
	// each candidate; r supplies the policy's randomness.
	Select(depth int, candidates []graph.NodeID, score func(graph.NodeID) float64, r *randx.Rand) []graph.NodeID
}

// GreedyPolicy forwards to the highest-scoring candidates (ties broken by
// lower node id): the paper's embedding-guided biased walk. Fanout > 1
// spawns that many parallel walks at the origin (§V-B future work); each
// walk continues greedily with fanout 1.
type GreedyPolicy struct {
	Fanout int // walks spawned at the origin; ≤ 0 treated as 1
}

var _ Policy = GreedyPolicy{}

// Name implements Policy.
func (p GreedyPolicy) Name() string { return "greedy" }

// Select implements Policy.
func (p GreedyPolicy) Select(depth int, candidates []graph.NodeID, score func(graph.NodeID) float64, _ *randx.Rand) []graph.NodeID {
	return topByScore(candidates, score, originFanout(depth, p.Fanout))
}

// RandomPolicy forwards to uniformly chosen candidates — the blind random
// walk baseline of §II-A. Fanout > 1 spawns parallel blind walks at the
// origin.
type RandomPolicy struct {
	Fanout int // walks spawned at the origin; ≤ 0 treated as 1
}

var _ Policy = RandomPolicy{}

// Name implements Policy.
func (p RandomPolicy) Name() string { return "random" }

// Select implements Policy.
func (p RandomPolicy) Select(depth int, candidates []graph.NodeID, _ func(graph.NodeID) float64, r *randx.Rand) []graph.NodeID {
	fanout := originFanout(depth, p.Fanout)
	if fanout >= len(candidates) {
		out := make([]graph.NodeID, len(candidates))
		copy(out, candidates)
		return out
	}
	idx := randx.Sample(r, len(candidates), fanout)
	out := make([]graph.NodeID, fanout)
	for i, j := range idx {
		out[i] = candidates[j]
	}
	return out
}

// FloodingPolicy forwards to every candidate at every hop — the Gnutella
// baseline of §II-A. Message cost grows exponentially with TTL; use small
// TTLs.
type FloodingPolicy struct{}

var _ Policy = FloodingPolicy{}

// Name implements Policy.
func (FloodingPolicy) Name() string { return "flooding" }

// Select implements Policy.
func (FloodingPolicy) Select(_ int, candidates []graph.NodeID, _ func(graph.NodeID) float64, _ *randx.Rand) []graph.NodeID {
	out := make([]graph.NodeID, len(candidates))
	copy(out, candidates)
	return out
}

// EpsilonGreedyPolicy behaves like GreedyPolicy but explores a uniformly
// random candidate with probability Epsilon at every hop — a softening
// knob for the exploration/exploitation trade-off discussed in §V-C.
type EpsilonGreedyPolicy struct {
	Fanout  int
	Epsilon float64
}

var _ Policy = EpsilonGreedyPolicy{}

// Name implements Policy.
func (EpsilonGreedyPolicy) Name() string { return "epsilon-greedy" }

// Select implements Policy.
func (p EpsilonGreedyPolicy) Select(depth int, candidates []graph.NodeID, score func(graph.NodeID) float64, r *randx.Rand) []graph.NodeID {
	if r.Float64() < p.Epsilon {
		return RandomPolicy{Fanout: p.Fanout}.Select(depth, candidates, score, r)
	}
	return GreedyPolicy{Fanout: p.Fanout}.Select(depth, candidates, score, r)
}

// originFanout maps a configured fanout to the effective one at this depth:
// parallel walks branch at the origin only.
func originFanout(depth, fanout int) int {
	if fanout <= 0 {
		fanout = 1
	}
	if depth > 0 {
		return 1
	}
	return fanout
}

// topByScore returns the k highest-scoring candidates (ties by lower id).
// score runs exactly once per candidate: with embedding scoring each call
// is a d-dimensional dot product, too costly to repeat inside a sort
// comparator. The greedy walk's k = 1 is a single argmax pass.
func topByScore(candidates []graph.NodeID, score func(graph.NodeID) float64, k int) []graph.NodeID {
	k = min(k, len(candidates))
	scores := make([]float64, len(candidates))
	for i, c := range candidates {
		scores[i] = score(c)
	}
	ahead := func(a, b int) bool { // candidate a ranks before candidate b
		if scores[a] != scores[b] {
			return scores[a] > scores[b]
		}
		return candidates[a] < candidates[b]
	}
	if k == 1 {
		best := 0
		for i := 1; i < len(candidates); i++ {
			if ahead(i, best) {
				best = i
			}
		}
		return []graph.NodeID{candidates[best]}
	}
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return ahead(order[i], order[j]) })
	ranked := make([]graph.NodeID, k)
	for i := range ranked {
		ranked[i] = candidates[order[i]]
	}
	return ranked
}
