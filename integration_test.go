package diffusearch_test

// Cross-module integration tests: the full Fig. 2 pipeline end to end, the
// equivalence of the two execution engines (simulator vs deployable peer
// runtime), and experiment-level sanity on the public API.

import (
	"sync"
	"testing"
	"time"

	"diffusearch"
	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/expt"
	"diffusearch/internal/gengraph"
	"diffusearch/internal/graph"
	"diffusearch/internal/peernet"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
)

var (
	integOnce sync.Once
	integEnv  *diffusearch.Environment
	integErr  error
)

func integEnvironment(t *testing.T) *diffusearch.Environment {
	t.Helper()
	integOnce.Do(func() {
		integEnv, integErr = diffusearch.NewScaledEnvironment(99, 0.1)
	})
	if integErr != nil {
		t.Fatal(integErr)
	}
	return integEnv
}

// TestSimulatorAndPeerRuntimeAgree runs the identical scenario through the
// experiment simulator and through real message-passing peers, then checks
// that greedy walks make the same hit/miss decisions. The simulator is
// configured with the row-stochastic transition to match the peers'
// locally computable normalization.
func TestSimulatorAndPeerRuntimeAgree(t *testing.T) {
	env := integEnvironment(t)
	vocab := env.Bench.Vocabulary()
	g := gengraph.WattsStrogatz(40, 4, 0.15, 3)
	r := diffusearch.NewRand(4)
	pair := env.Bench.SamplePair(r)

	// Shared placement: gold plus 30 pool docs.
	docs := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, 30)...)
	hosts := core.UniformHosts(r, len(docs), g.NumNodes())
	docsAt := make(map[graph.NodeID][]retrieval.DocID)
	for i, d := range docs {
		docsAt[hosts[i]] = append(docsAt[hosts[i]], d)
	}

	// Engine 1: the simulator.
	net := core.NewNetwork(g, vocab, core.WithNormalization(graph.RowStochastic))
	if err := net.PlaceDocuments(docs, hosts); err != nil {
		t.Fatal(err)
	}
	if err := net.ComputePersonalization(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(core.DiffusionRequest{Engine: diffuse.EngineSync, Alpha: 0.3, Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}

	// Engine 2: real peers over a channel fabric.
	fabric := peernet.NewChannelFabric(g.NumNodes(), 0)
	peers := make([]*peernet.Peer, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		p, err := peernet.NewPeer(peernet.PeerConfig{
			ID: u, Neighbors: g.Neighbors(u), Vocab: vocab, Docs: docsAt[u],
			Alpha: 0.3, PushTol: 1e-9,
		}, fabric.Transport(u))
		if err != nil {
			t.Fatal(err)
		}
		peers[u] = p
	}
	for _, p := range peers {
		p.Start()
	}
	defer func() {
		for _, p := range peers {
			p.Stop()
		}
		fabric.Close()
	}()

	// Wait until peer embeddings sit on the simulator's fixed point.
	deadline := time.Now().Add(30 * time.Second)
	for {
		worst := 0.0
		for u, p := range peers {
			want, err := net.NodeEmbedding(u)
			if err != nil {
				t.Fatal(err)
			}
			if d := vecmath.MaxAbsDiff(p.Embedding(), want); d > worst {
				worst = d
			}
		}
		if worst < 1e-5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer embeddings never reached the simulator fixed point (off by %g)", worst)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Same query from several origins through both engines.
	query := vocab.Vector(pair.Query)
	agree := 0
	const ttl = 10
	origins := []graph.NodeID{0, 5, 10, 20, 30}
	for _, origin := range origins {
		simOut, err := net.RunQuery(origin, query, pair.Gold, core.QueryConfig{TTL: ttl, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := peers[origin].Query(query, ttl, 1, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		peerHit := len(res) > 0 && res[0].Doc == pair.Gold
		if simOut.Found == peerHit {
			agree++
		}
	}
	// Tie-breaking in floating point may flip an occasional walk; demand
	// agreement on at least 4 of 5 origins.
	if agree < len(origins)-1 {
		t.Fatalf("engines agreed on only %d/%d origins", agree, len(origins))
	}
}

// TestFullPipelineDeterminism reruns a complete experiment twice through
// the public API and demands identical numbers.
func TestFullPipelineDeterminism(t *testing.T) {
	env := integEnvironment(t)
	cfg := expt.HopCountConfig{Ms: []int{20}, Alpha: 0.5, Iterations: 8, QueriesPerIter: 3, TTL: 20, Seed: 5}
	a, err := expt.HopCount(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := expt.HopCount(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatalf("pipeline not deterministic: %+v vs %+v", a[0], b[0])
	}
}

// TestAccuracyDecreasesWithCorpusSize reproduces the paper's headline
// scaling observation end to end: more stored documents, lower accuracy.
func TestAccuracyDecreasesWithCorpusSize(t *testing.T) {
	env := integEnvironment(t)
	hit := func(m int) float64 {
		res, err := expt.AccuracyByDistance(env, expt.AccuracyConfig{
			M: m, Alphas: []float64{0.5}, MaxDistance: 4, TTL: 30, Iterations: 40, Seed: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Series[0]
		var hits, samples int
		for d := 1; d <= 4; d++ { // distance 0 is trivially 1 for all M
			hits += s.Hits[d]
			samples += s.Samples[d]
		}
		return float64(hits) / float64(samples)
	}
	small := hit(10)
	large := hit(800)
	if small <= large {
		t.Fatalf("accuracy must decline with corpus size: M=10 %.3f vs M=800 %.3f", small, large)
	}
}

// TestDiffusionGuidanceBeatsBlindEndToEnd verifies the mechanism through
// the public facade: identical budgets, greedy vs blind.
func TestDiffusionGuidanceBeatsBlindEndToEnd(t *testing.T) {
	env := integEnvironment(t)
	rows, err := expt.ComparePolicies(env, expt.CompareConfig{
		M: 20, Alpha: 0.5, TTL: 25, Iterations: 40, QueriesPerIter: 3, Seed: 7,
		Variants: []expt.Variant{
			{Name: "greedy", Policy: diffusearch.GreedyPolicy{Fanout: 1}},
			{Name: "blind", Policy: diffusearch.RandomPolicy{Fanout: 1}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].HitRate <= rows[1].HitRate {
		t.Fatalf("greedy %.3f must beat blind %.3f", rows[0].HitRate, rows[1].HitRate)
	}
}
