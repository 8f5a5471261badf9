package core

import (
	"reflect"
	"sort"
	"testing"

	"diffusearch/internal/diffuse"
	"diffusearch/internal/graph"
	"diffusearch/internal/randx"
	"diffusearch/internal/sim"
)

// prepared returns a fixture with placement, personalization and diffusion
// already done.
func prepared(t *testing.T, m int, alpha float64, seed uint64) (*fixture, embedPair) {
	t.Helper()
	f := newFixture(t)
	pair := f.place(t, m, seed)
	if err := f.net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.net.Run(DiffusionRequest{Engine: diffuse.EngineSync, Alpha: alpha, Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	return f, embedPair{Query: pair.Query, Gold: pair.Gold}
}

type embedPair struct{ Query, Gold int }

func TestRunQueryFindsLocalGold(t *testing.T) {
	f, pair := prepared(t, 20, 0.5, 11)
	origin := f.net.HostOf(pair.Gold)
	out, err := f.net.RunQuery(origin, f.net.Vocabulary().Vector(pair.Query), pair.Gold, QueryConfig{TTL: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found {
		t.Fatal("query starting at the gold host must succeed")
	}
	if out.HopsToGold != 0 {
		t.Fatalf("hops to local gold = %d, want 0", out.HopsToGold)
	}
	if len(out.Results) == 0 || out.Results[0].Doc != pair.Gold {
		t.Fatalf("top-1 result %v, want gold %d", out.Results, pair.Gold)
	}
}

func TestRunQueryZeroTTLStaysLocal(t *testing.T) {
	f, pair := prepared(t, 20, 0.5, 12)
	origin := f.net.HostOf(pair.Gold)
	out, err := f.net.RunQuery(origin, f.net.Vocabulary().Vector(pair.Query), pair.Gold, QueryConfig{TTL: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Found || out.Visited != 1 || out.HopsTraveled != 0 {
		t.Fatalf("TTL=0 at gold host: %+v", out)
	}
	// From a different node, TTL=0 must fail without any forwarding.
	other := (origin + 1) % f.net.Graph().NumNodes()
	out, err = f.net.RunQuery(other, f.net.Vocabulary().Vector(pair.Query), pair.Gold, QueryConfig{TTL: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Found || out.HopsTraveled != 0 || out.Messages != 0 {
		t.Fatalf("TTL=0 elsewhere: %+v", out)
	}
}

func TestRunQueryRespectsTTLBudget(t *testing.T) {
	f, pair := prepared(t, 30, 0.5, 13)
	const ttl = 7
	out, err := f.net.RunQuery(0, f.net.Vocabulary().Vector(pair.Query), pair.Gold, QueryConfig{TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	if out.HopsTraveled > ttl {
		t.Fatalf("hops traveled %d exceeds TTL %d (single walk)", out.HopsTraveled, ttl)
	}
	if out.Found && out.HopsToGold > ttl {
		t.Fatalf("gold reported at hop %d beyond TTL", out.HopsToGold)
	}
	if out.Visited > ttl+1 {
		t.Fatalf("visited %d nodes on a %d-hop walk", out.Visited, ttl)
	}
}

func TestRunQuerySingleWalkMessageAccounting(t *testing.T) {
	f, pair := prepared(t, 20, 0.5, 14)
	out, err := f.net.RunQuery(1, f.net.Vocabulary().Vector(pair.Query), pair.Gold, QueryConfig{TTL: 10})
	if err != nil {
		t.Fatal(err)
	}
	// A single walk sends exactly TTL query messages (connected graph, so
	// footnote-9 fallback always finds a candidate) plus the backtracking
	// response hops (≥ 1 when the walk left the origin).
	if out.HopsTraveled != 10 {
		t.Fatalf("hops traveled %d, want 10", out.HopsTraveled)
	}
	if out.Messages < out.HopsTraveled+1 {
		t.Fatalf("messages %d must include response hops beyond %d forwards", out.Messages, out.HopsTraveled)
	}
}

func TestRunQueryDeterministicForSeed(t *testing.T) {
	f, pair := prepared(t, 40, 0.5, 15)
	q := f.net.Vocabulary().Vector(pair.Query)
	a, err := f.net.RunQuery(2, q, pair.Gold, QueryConfig{TTL: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.net.RunQuery(2, q, pair.Gold, QueryConfig{TTL: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Found != b.Found || a.HopsToGold != b.HopsToGold || a.Messages != b.Messages || a.Visited != b.Visited {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunQueryFastScoresMatchesVectorMode(t *testing.T) {
	// Greedy walks driven by fast scalar scores must traverse the same
	// path as walks driven by materialized embeddings.
	f, pair := prepared(t, 50, 0.3, 16)
	q := f.net.Vocabulary().Vector(pair.Query)
	slow, err := f.net.RunQuery(3, q, pair.Gold, QueryConfig{TTL: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := f.net.RunQuery(3, q, pair.Gold, QueryConfig{
		TTL: 25, Seed: 1, FastScores: true, Alpha: 0.3, Tol: 1e-10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Found != fast.Found || slow.HopsToGold != fast.HopsToGold || slow.Visited != fast.Visited {
		t.Fatalf("fast walk diverged from vector walk: %+v vs %+v", slow, fast)
	}
}

func TestRunQueryGreedyBeatsBlindOnAverage(t *testing.T) {
	// The headline claim: diffusion-guided walks find nearby gold documents
	// far more often than blind random walks.
	f, pair := prepared(t, 10, 0.5, 17)
	q := f.net.Vocabulary().Vector(pair.Query)
	goldHost := f.net.HostOf(pair.Gold)
	// Query from every node exactly 2 hops from the gold host.
	groups := f.net.Graph().NodesAtDistance(goldHost, 2)
	if len(groups[2]) == 0 {
		t.Skip("no nodes at distance 2 in this topology draw")
	}
	greedyHits, blindHits := 0, 0
	for i, origin := range groups[2] {
		g, err := f.net.RunQuery(origin, q, pair.Gold, QueryConfig{TTL: 15, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if g.Found {
			greedyHits++
		}
		b, err := f.net.RunQuery(origin, q, pair.Gold, QueryConfig{
			TTL: 15, Seed: uint64(i), Policy: RandomPolicy{Fanout: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if b.Found {
			blindHits++
		}
	}
	if greedyHits <= blindHits {
		t.Fatalf("greedy %d/%d vs blind %d/%d: diffusion guidance not helping",
			greedyHits, len(groups[2]), blindHits, len(groups[2]))
	}
}

func TestRunQueryFloodingVisitsNeighborhood(t *testing.T) {
	f, pair := prepared(t, 20, 0.5, 18)
	q := f.net.Vocabulary().Vector(pair.Query)
	out, err := f.net.RunQuery(0, q, pair.Gold, QueryConfig{TTL: 2, Policy: FloodingPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	// Flooding with TTL=2 must reach at least the whole 1-hop neighbourhood.
	if out.Visited < f.net.Graph().Degree(0)+1 {
		t.Fatalf("flooding visited %d < degree+1", out.Visited)
	}
	if out.Messages <= out.Visited-1 {
		t.Fatalf("flooding message count %d suspiciously low", out.Messages)
	}
}

func TestRunQueryParallelWalksImproveHitRate(t *testing.T) {
	f, pair := prepared(t, 100, 0.5, 19)
	q := f.net.Vocabulary().Vector(pair.Query)
	goldHost := f.net.HostOf(pair.Gold)
	groups := f.net.Graph().NodesAtDistance(goldHost, 3)
	if len(groups[3]) == 0 {
		t.Skip("no nodes at distance 3")
	}
	single, parallel := 0, 0
	for i, origin := range groups[3] {
		s, err := f.net.RunQuery(origin, q, pair.Gold, QueryConfig{TTL: 12, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if s.Found {
			single++
		}
		p, err := f.net.RunQuery(origin, q, pair.Gold, QueryConfig{
			TTL: 12, Seed: uint64(i), Policy: GreedyPolicy{Fanout: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if p.Found {
			parallel++
		}
	}
	if parallel < single {
		t.Fatalf("parallel walks (%d hits) must not lose to single walks (%d hits)", parallel, single)
	}
}

func TestRunQueryVisitedModes(t *testing.T) {
	f, pair := prepared(t, 30, 0.5, 20)
	q := f.net.Vocabulary().Vector(pair.Query)
	for _, mode := range []VisitedMode{VisitedNodeMemory, VisitedInMessage, VisitedNone} {
		out, err := f.net.RunQuery(4, q, pair.Gold, QueryConfig{TTL: 15, Visited: mode, Seed: 3})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if out.HopsTraveled != 15 {
			t.Fatalf("mode %v: hops %d", mode, out.HopsTraveled)
		}
	}
	// In-message avoidance explores at least as many distinct nodes as no
	// avoidance for the same walk budget.
	inMsg, err := f.net.RunQuery(4, q, pair.Gold, QueryConfig{TTL: 30, Visited: VisitedInMessage, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	none, err := f.net.RunQuery(4, q, pair.Gold, QueryConfig{TTL: 30, Visited: VisitedNone, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if inMsg.Visited < none.Visited {
		t.Fatalf("in-message visited %d < none visited %d", inMsg.Visited, none.Visited)
	}
}

func TestRunQueryValidation(t *testing.T) {
	f, pair := prepared(t, 10, 0.5, 21)
	q := f.net.Vocabulary().Vector(pair.Query)
	if _, err := f.net.RunQuery(-1, q, pair.Gold, QueryConfig{TTL: 5}); err == nil {
		t.Fatal("bad origin must error")
	}
	if _, err := f.net.RunQuery(0, q, pair.Gold, QueryConfig{TTL: -1}); err == nil {
		t.Fatal("negative TTL must error")
	}
	if _, err := f.net.RunQuery(0, q, pair.Gold, QueryConfig{TTL: 5, Visited: VisitedMode(9)}); err == nil {
		t.Fatal("bad visited mode must error")
	}
	fresh := newFixture(t)
	fresh.place(t, 5, 22)
	if _, err := fresh.net.RunQuery(0, q, pair.Gold, QueryConfig{TTL: 5}); err == nil {
		t.Fatal("query before diffusion must error")
	}
}

func TestRunQueryUnknownGold(t *testing.T) {
	f, pair := prepared(t, 10, 0.5, 23)
	q := f.net.Vocabulary().Vector(pair.Query)
	out, err := f.net.RunQuery(0, q, -1, QueryConfig{TTL: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Found || out.HopsToGold != -1 {
		t.Fatalf("gold=-1 must report not found: %+v", out)
	}
	if len(out.Results) == 0 {
		t.Fatal("results must still be collected")
	}
}

func TestRunQueryLatencyModelAffectsDuration(t *testing.T) {
	f, pair := prepared(t, 10, 0.5, 24)
	q := f.net.Vocabulary().Vector(pair.Query)
	fastNet, err := f.net.RunQuery(0, q, pair.Gold, QueryConfig{TTL: 8, Latency: sim.ConstantLatency(1)})
	if err != nil {
		t.Fatal(err)
	}
	slowNet, err := f.net.RunQuery(0, q, pair.Gold, QueryConfig{TTL: 8, Latency: sim.ConstantLatency(10)})
	if err != nil {
		t.Fatal(err)
	}
	if slowNet.Duration <= fastNet.Duration {
		t.Fatalf("10x latency must increase duration: %v vs %v", slowNet.Duration, fastNet.Duration)
	}
}

func TestVisitedModeString(t *testing.T) {
	if VisitedNodeMemory.String() != "node-memory" ||
		VisitedInMessage.String() != "in-message" ||
		VisitedNone.String() != "none" ||
		VisitedMode(9).String() != "VisitedMode(9)" {
		t.Fatal("VisitedMode names")
	}
}

func TestPolicies(t *testing.T) {
	cands := []graph.NodeID{1, 2, 3, 4}
	score := func(v graph.NodeID) float64 { return float64(v % 3) } // 3→0, 4→1, 1→1, 2→2
	r := randx.New(1)

	got := GreedyPolicy{Fanout: 2}.Select(0, cands, score, r)
	if len(got) != 2 || got[0] != 2 {
		t.Fatalf("greedy top = %v, want [2 ...]", got)
	}
	// Tie between 1 and 4 (score 1): lower id wins.
	if got[1] != 1 {
		t.Fatalf("greedy tie-break = %v, want node 1", got[1])
	}

	if got := (GreedyPolicy{}).Select(0, cands, score, r); len(got) != 1 {
		t.Fatalf("default fanout must be 1, got %v", got)
	}
	if got := (GreedyPolicy{Fanout: 99}).Select(0, cands, score, r); len(got) != 4 {
		t.Fatalf("fanout larger than candidates: %v", got)
	}
	// Beyond the origin, parallel-walk policies continue as single walks.
	if got := (GreedyPolicy{Fanout: 3}).Select(1, cands, score, r); len(got) != 1 {
		t.Fatalf("greedy must not branch beyond origin: %v", got)
	}

	rnd := RandomPolicy{Fanout: 2}.Select(0, cands, score, r)
	if len(rnd) != 2 || rnd[0] == rnd[1] {
		t.Fatalf("random selection %v", rnd)
	}
	if got := (RandomPolicy{Fanout: 10}).Select(0, cands, score, r); len(got) != 4 {
		t.Fatalf("random fanout cap: %v", got)
	}
	if got := (RandomPolicy{Fanout: 10}).Select(2, cands, score, r); len(got) != 1 {
		t.Fatalf("random must not branch beyond origin: %v", got)
	}

	fl := FloodingPolicy{}.Select(3, cands, score, r)
	if len(fl) != 4 {
		t.Fatalf("flooding must select all at any depth: %v", fl)
	}

	eg := EpsilonGreedyPolicy{Fanout: 1, Epsilon: 0}.Select(0, cands, score, r)
	if len(eg) != 1 || eg[0] != 2 {
		t.Fatalf("epsilon=0 must behave greedily: %v", eg)
	}
	if name := (EpsilonGreedyPolicy{}).Name(); name != "epsilon-greedy" {
		t.Fatal(name)
	}
	if GreedyPolicy.Name(GreedyPolicy{}) != "greedy" || RandomPolicy.Name(RandomPolicy{}) != "random" || FloodingPolicy.Name(FloodingPolicy{}) != "flooding" {
		t.Fatal("policy names")
	}
}

// TestTopByScoreScoresEachCandidateOnce: the greedy selection calls the
// score function exactly once per candidate and returns the same ranking
// as sorting by score (ties by lower id), for every k.
func TestTopByScoreScoresEachCandidateOnce(t *testing.T) {
	r := randx.New(17)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(40)
		cands := make([]graph.NodeID, n)
		val := make(map[graph.NodeID]float64, n)
		for i := range cands {
			cands[i] = r.IntN(1000)
			val[cands[i]] = float64(r.IntN(5)) // few levels: plenty of ties
		}
		want := append([]graph.NodeID(nil), cands...)
		sort.Slice(want, func(i, j int) bool {
			if val[want[i]] != val[want[j]] {
				return val[want[i]] > val[want[j]]
			}
			return want[i] < want[j]
		})
		for _, k := range []int{1, 2, 3, n, n + 1} {
			calls := 0
			score := func(v graph.NodeID) float64 { calls++; return val[v] }
			got := topByScore(cands, score, k)
			if calls != n {
				t.Fatalf("n=%d k=%d: score called %d times, want %d", n, k, calls, n)
			}
			if m := min(k, n); !reflect.DeepEqual(got, want[:m]) {
				t.Fatalf("n=%d k=%d: got %v, want %v", n, k, got, want[:m])
			}
		}
	}
}
