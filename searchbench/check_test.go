package main

import (
	"slices"
	"testing"

	"diffusearch/internal/core"
	"diffusearch/internal/expt"
	"diffusearch/internal/graph"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
)

// smallInputs is a 0.1-scale environment (≈400 nodes, 64-d vocabulary)
// with 40 pairs and 150 placed documents.
func smallInputs(t *testing.T) *inputs {
	t.Helper()
	p := expt.ScaledParams(7, 0.1)
	p.NumQueries = 40
	in, err := buildInputs(p, 150)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func placedNetwork(t *testing.T, in *inputs, pl *placement, opts ...core.Option) *core.Network {
	t.Helper()
	net := core.NewNetwork(in.g, in.vocab, opts...)
	if err := placeAndPersonalize(net, pl, nil, -1); err != nil {
		t.Fatal(err)
	}
	return net
}

// The whole-graph score check accepts ScoreBatch's output and rejects it
// once corrupted.
func TestCheckScoresRejectsCorruption(t *testing.T) {
	in := smallInputs(t)
	pl := newPlacement(in)
	net := placedNetwork(t, in, pl)
	q := in.vocab.Vector(in.pairs[0].Query)
	batch, _, err := net.ScoreBatch([][]float64{q}, core.DiffusionRequest{Engine: mirrorEngine, Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	scores := batch[0]
	x := project(personalization(in, pl), q)
	if err := checkScores(in.g, x, scores, alpha); err != nil {
		t.Fatalf("correct scores rejected: %v", err)
	}
	top := 0
	for u, s := range scores {
		if s > scores[top] {
			top = u
		}
	}
	low := slices.Index(scores, slices.Min(scores))
	corrupt := map[string]func(s []float64){
		"one score nudged":  func(s []float64) { s[top] += 1e-3 * maxAbs(x) },
		"two nodes swapped": func(s []float64) { s[top], s[low] = s[low], s[top] },
		"column rescaled": func(s []float64) {
			for u := range s {
				s[u] *= 1.001
			}
		},
		"column truncated": func(s []float64) { s[len(s)-1] = 0 },
	}
	for name, f := range corrupt {
		s := slices.Clone(scores)
		f(s)
		if checkScores(in.g, x, s, alpha) == nil {
			t.Errorf("%s: corrupted scores accepted", name)
		}
	}
	if checkScores(in.g, x, scores[1:], alpha) == nil {
		t.Error("short column accepted")
	}
}

// The fixed-point check accepts Network.Run's embeddings and rejects a
// perturbed matrix and a diffusion over another operator.
func TestCheckFixedPointRejectsCorruption(t *testing.T) {
	in := smallInputs(t)
	pl := newPlacement(in)
	e0 := personalization(in, pl)
	embeddings := func(net *core.Network) *vecmath.Matrix {
		if _, err := net.Run(embedRequest); err != nil {
			t.Fatal(err)
		}
		emb := vecmath.NewMatrix(in.g.NumNodes(), in.vocab.Dim())
		for u := range emb.Rows() {
			row, err := net.NodeEmbedding(u)
			if err != nil {
				t.Fatal(err)
			}
			emb.SetRow(u, row)
		}
		return emb
	}
	emb := embeddings(placedNetwork(t, in, pl))
	if err := checkFixedPoint(in.g, e0, emb, alpha, embedResidualBound); err != nil {
		t.Fatalf("correct embeddings rejected: %v", err)
	}
	bad := emb.Clone()
	bad.Set(3, 5, bad.At(3, 5)+1e-3)
	if checkFixedPoint(in.g, e0, bad, alpha, embedResidualBound) == nil {
		t.Error("perturbed embeddings accepted")
	}
	row := embeddings(placedNetwork(t, in, pl, core.WithNormalization(graph.RowStochastic)))
	if checkFixedPoint(in.g, e0, row, alpha, embedResidualBound) == nil {
		t.Error("row-normalized diffusion accepted as the column-stochastic one")
	}
}

// The brute-force check accepts a routed SimNetwork walk and rejects
// results with a document swapped, dropped or rescored.
func TestSameResultsRejectsCorruption(t *testing.T) {
	in := smallInputs(t)
	pl := newPlacement(in)
	g := &gossipSystem{}
	if err := g.setup(in, pl, -1); err != nil {
		t.Fatal(err)
	}
	ss := planSearches(in, pl, "test", 0, 20)
	var checked int
	for _, s := range ss {
		o := g.search(s)
		want := bruteTopK(in.vocab, pl, o.hops, in.vocab.Vector(s.pair.Query), topK)
		if err := sameResults(o.results, want); err != nil {
			t.Fatalf("search %d: correct results rejected: %v", s.id, err)
		}
		if len(o.results) == 0 {
			continue
		}
		checked++
		outsider := in.pairs[len(in.pairs)-1].Query // query words are never placed
		swapped := slices.Clone(o.results)
		swapped[0].Doc = outsider
		rescored := slices.Clone(o.results)
		rescored[0].Score += 1e-6
		for name, got := range map[string][]retrieval.Result{
			"swapped": swapped, "dropped": o.results[1:], "rescored": rescored,
		} {
			if sameResults(got, want) == nil {
				t.Errorf("search %d: %s results accepted", s.id, name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no search returned results")
	}
}

// Each mode passes its own checks on a small run: no check fires on
// correct output.
func TestSmallRunPassesChecks(t *testing.T) {
	in := smallInputs(t)
	for _, w := range []string{"mirror", "embed", "gossip"} {
		rep, err := runBench(w, in, 0, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if rep.failed != 0 || rep.attempted != minEpochs*(movesPerEpoch+searchesPerEpoch) {
			t.Errorf("%s: attempted %d failed %d", w, rep.attempted, rep.failed)
		}
		for _, m := range rep.metrics {
			if !(m.value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, m.name, m.value)
			}
		}
	}
}

// A move the system never received leaves embeddings diffused from the old
// placement, which the fixed-point check against the benchmark's own E0
// catches for the whole batch.
func TestStaleMoveRejected(t *testing.T) {
	in := smallInputs(t)
	pl := newPlacement(in)
	e := &embedSystem{}
	if err := e.setup(in, pl, -1); err != nil {
		t.Fatal(err)
	}
	ms := planMoves(in, pl, 0)
	pl.apply(ms)
	if bad, err := e.checkMoves(ms, pl); err != nil || bad != len(ms) {
		t.Errorf("stale system failed %d of %d moves (err %v)", bad, len(ms), err)
	}
}

// Each mode passes the moved-document check after landing a move batch.
// The same check fails every move on a system that never received the
// batch (on mirror and gossip no other check stands in front of it), and
// rejects a real outcome with the document taken out.
func TestMovedDocumentCheck(t *testing.T) {
	in := smallInputs(t)
	for _, w := range []string{"mirror", "embed", "gossip"} {
		pl := newPlacement(in)
		var systems [2]system
		for i := range systems {
			sys, err := newSystem(w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.setup(in, pl, -1); err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			defer sys.close()
			systems[i] = sys
		}
		landed, stale := systems[0], systems[1]
		ms := planMoves(in, pl, 0)
		pl.apply(ms)
		if err := landed.move(ms, pl, -1); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if bad, err := landed.checkMoves(ms, pl); err != nil || bad != 0 {
			t.Errorf("%s: landed batch failed %d of %d moves (err %v)", w, bad, len(ms), err)
		}
		if bad := checkMovedDocs(stale, in, ms, pl); bad != len(ms) {
			t.Errorf("%s: system that skipped the batch failed %d of %d moves", w, bad, len(ms))
		}
		out := make([]outcome, len(ms))
		landed.searchBlock(movedSearches(ms), out)
		for i, mv := range ms {
			if err := checkMoved(in, pl, mv, out[i]); err != nil {
				t.Fatalf("%s: document %d: correct outcome rejected: %v", w, mv.doc, err)
			}
			o := out[i]
			o.results = slices.DeleteFunc(slices.Clone(o.results), func(r retrieval.Result) bool { return r.Doc == mv.doc })
			if checkMoved(in, pl, mv, o) == nil {
				t.Errorf("%s: results without document %d accepted", w, mv.doc)
			}
		}
	}
}

// A re-gossip stopped short of quiescence — after no round or one round —
// fails the whole move batch.
func TestGossipStoppedEarlyRejected(t *testing.T) {
	in := smallInputs(t)
	for _, rounds := range []int{0, 1} {
		pl := newPlacement(in)
		g := &gossipSystem{}
		if err := g.setup(in, pl, -1); err != nil {
			t.Fatal(err)
		}
		ms := planMoves(in, pl, 0)
		pl.apply(ms)
		for _, u := range touched(ms) {
			g.net.SetDocs(u, pl.docsAt[u])
		}
		for range rounds {
			g.net.GossipRound()
		}
		if bad, err := g.checkMoves(ms, pl); err != nil || bad != len(ms) {
			t.Errorf("gossip stopped after %d rounds: %d of %d moves failed (err %v)", rounds, bad, len(ms), err)
		}
	}
}

// The routed-recall check passes real routed walks and rejects a sample
// whose routed results lost the golds the unrouted walks find.
func TestRoutedRecallCheck(t *testing.T) {
	in := smallInputs(t)
	pl := newPlacement(in)
	g := &gossipSystem{}
	if err := g.setup(in, pl, -1); err != nil {
		t.Fatal(err)
	}
	ss := planSearches(in, pl, "test", 0, gossipSampled)
	out := make([]outcome, len(ss))
	g.searchBlock(ss, out)
	if n := g.recallShortfall(ss, out); n != 0 {
		t.Fatalf("real routed walks short of unrouted recall by %d", n)
	}
	lost := 0
	for i, s := range ss {
		if containsDoc(out[i].results, s.pair.Gold) {
			out[i].results = slices.DeleteFunc(slices.Clone(out[i].results), func(r retrieval.Result) bool { return r.Doc == s.pair.Gold })
			lost++
		}
	}
	n := g.recallShortfall(ss, out)
	if n == 0 {
		t.Fatal("routed results without their golds accepted")
	}
	// Each search that lost its gold also fails the brute-force check.
	if bad, _ := g.checkSearches(ss, out, pl); bad != lost+n {
		t.Errorf("checkSearches counted %d failures, want %d brute-force + %d shortfall", bad, lost, n)
	}
}
