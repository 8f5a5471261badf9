package main

import (
	"fmt"
	"math"
	"os"
	"slices"

	"diffusearch/internal/embed"
	"diffusearch/internal/graph"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
)

// The checks below recompute what the program should have produced from
// the benchmark's own placement record and plain loops over
// Graph.Neighbors — never through graph.Transition, the diffusion engines
// or retrieval's indexes — or test a property the method must have.

// Check tolerances. Each sits well above what a correct run leaves (on
// the paper-scale inputs: score error up to ≈1e-8 and mass error ≈1e-15 of
// the signal on the mirror's sync engine, embedding residual ≈2e-7) and
// well below any corruption worth catching.
const (
	// scoreTol bounds |score − reference| relative to max|x|. ScoreBatch
	// stops each column at a 1e-8 max-norm change (core.DefaultScoreTol),
	// which leaves an error of the same order.
	scoreTol = 1e-6
	// massTol bounds |Σ scores − expected mass| relative to Σ|x|.
	massTol = 1e-7
	// embedResidualBound bounds the fixed-point residual of diffused
	// embeddings; Run's Parallel engine stops at a 1e-6 max-norm residual
	// (diffuse.DefaultTol).
	embedResidualBound = 1e-5
	// refTol is the reference solve's own stopping tolerance.
	refTol = 1e-14
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "searchbench: "+format+"\n", args...) }

// personalization rebuilds E0 from the placement: row u is the sum of the
// embeddings of the documents u holds (eq. 3).
func personalization(in *inputs, pl *placement) *vecmath.Matrix {
	e0 := vecmath.NewMatrix(in.g.NumNodes(), in.vocab.Dim())
	for u, held := range pl.docsAt {
		row := e0.Row(u)
		for _, d := range held {
			for k, v := range in.vocab.Vector(d) {
				row[k] += v
			}
		}
	}
	return e0
}

// project returns x[u] = q · E0[u], the relevance signal a whole-graph
// score diffuses.
func project(e0 *vecmath.Matrix, q []float64) []float64 {
	x := make([]float64, e0.Rows())
	for u := range x {
		for k, v := range e0.Row(u) {
			x[u] += v * q[k]
		}
	}
	return x
}

// spread returns (A·s)[u] = Σ_{v∈N(u)} s[v]/deg(v), the column-stochastic
// transition the paper diffuses with.
func spread(g *graph.Graph, s []float64) []float64 {
	out := make([]float64, len(s))
	for u := range out {
		for _, v := range g.Neighbors(u) {
			out[u] += s[v] / float64(g.Degree(v))
		}
	}
	return out
}

// pprSolve solves s = αx + (1−α)A·s by power iteration. A is column
// stochastic, so each step contracts the error by (1−α) in the 1-norm.
func pprSolve(g *graph.Graph, x []float64, alpha float64) []float64 {
	s := slices.Clone(x)
	scale := math.Max(maxAbs(x), 1e-300)
	for range 10000 {
		as := spread(g, s)
		delta := 0.0
		for u := range s {
			next := alpha*x[u] + (1-alpha)*as[u]
			delta = math.Max(delta, math.Abs(next-s[u]))
			s[u] = next
		}
		if delta <= refTol*scale {
			break
		}
	}
	return s
}

// expectedMass is Σ(H·x): a column-stochastic A conserves mass, so scores
// sum to Σx, except that an isolated node keeps only αx[u].
func expectedMass(g *graph.Graph, x []float64, alpha float64) float64 {
	m := 0.0
	for u, v := range x {
		if g.Degree(u) == 0 {
			v *= alpha
		}
		m += v
	}
	return m
}

// checkScores checks one whole-graph score column against the benchmark's
// own PPR solve of the projected signal x, and its mass against Σ x.
func checkScores(g *graph.Graph, x, scores []float64, alpha float64) error {
	if len(scores) != len(x) {
		return fmt.Errorf("%d scores for %d nodes", len(scores), len(x))
	}
	sum, abs := 0.0, 0.0
	for u, s := range scores {
		sum += s
		abs += math.Abs(x[u])
	}
	if want := expectedMass(g, x, alpha); math.Abs(sum-want) > massTol*math.Max(abs, 1) {
		return fmt.Errorf("score mass %.12g, projected mass %.12g", sum, want)
	}
	ref := pprSolve(g, x, alpha)
	limit := scoreTol * math.Max(maxAbs(x), 1)
	for u, s := range scores {
		if d := math.Abs(s - ref[u]); d > limit {
			return fmt.Errorf("node %d score %.12g, reference %.12g (|diff| %.3g > %.3g)", u, s, ref[u], d, limit)
		}
	}
	return nil
}

// fixedPointResidual returns ‖αE0 + (1−α)A·E − E‖∞.
func fixedPointResidual(g *graph.Graph, e0, emb *vecmath.Matrix, alpha float64) float64 {
	res := 0.0
	acc := make([]float64, emb.Cols())
	for u := range emb.Rows() {
		clear(acc)
		for _, v := range g.Neighbors(u) {
			w := 1 / float64(g.Degree(v))
			for k, x := range emb.Row(v) {
				acc[k] += w * x
			}
		}
		e, p := emb.Row(u), e0.Row(u)
		for k := range acc {
			res = math.Max(res, math.Abs(alpha*p[k]+(1-alpha)*acc[k]-e[k]))
		}
	}
	return res
}

// checkFixedPoint checks that emb is the PPR diffusion of e0 within bound.
func checkFixedPoint(g *graph.Graph, e0, emb *vecmath.Matrix, alpha, bound float64) error {
	if emb.Rows() != e0.Rows() || emb.Cols() != e0.Cols() {
		return fmt.Errorf("embeddings %dx%d, personalization %dx%d", emb.Rows(), emb.Cols(), e0.Rows(), e0.Cols())
	}
	if r := fixedPointResidual(g, e0, emb, alpha); !(r <= bound) {
		return fmt.Errorf("fixed-point residual %.3g above %.3g", r, bound)
	}
	return nil
}

// bruteTopK scores every document held by the given peers and keeps the k
// best (ties toward the lower document id).
func bruteTopK(vocab *embed.Vocabulary, pl *placement, peers []graph.NodeID, q []float64, k int) []retrieval.Result {
	var all []retrieval.Result
	seen := make(map[graph.NodeID]bool, len(peers))
	for _, u := range peers {
		if seen[u] {
			continue
		}
		seen[u] = true
		for _, d := range pl.docsAt[u] {
			s := 0.0
			for i, v := range vocab.Vector(d) {
				s += v * q[i]
			}
			all = append(all, retrieval.Result{Doc: d, Score: s})
		}
	}
	slices.SortFunc(all, func(a, b retrieval.Result) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return a.Doc - b.Doc
	})
	return all[:min(k, len(all))]
}

// sameResults compares two top-k lists as sets of documents with scores.
func sameResults(got, want []retrieval.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, brute force has %d", len(got), len(want))
	}
	byDoc := func(a, b retrieval.Result) int { return a.Doc - b.Doc }
	g, w := slices.SortedFunc(slices.Values(got), byDoc), slices.SortedFunc(slices.Values(want), byDoc)
	for i := range g {
		if g[i].Doc != w[i].Doc || math.Abs(g[i].Score-w[i].Score) > 1e-9 {
			return fmt.Errorf("results %v, brute force %v", got, want)
		}
	}
	return nil
}

// movedSearches plans one search per move: the moved document's own word
// from its new host, with a hop budget of zero so that host alone answers.
func movedSearches(ms []move) []search {
	ss := make([]search, len(ms))
	for i, mv := range ms {
		ss[i] = search{id: -1, pair: embed.QueryPair{Query: mv.doc, Gold: mv.doc}, origin: mv.to, ttl: 0}
	}
	return ss
}

// checkMoved is the verdict on a moved-document search: the results must
// hold the document and equal a brute-force top-k over what the
// benchmark's placement puts on the new host. A system that never landed
// the move fails it, however far a longer walk would have reached.
func checkMoved(in *inputs, pl *placement, mv move, o outcome) error {
	if o.err != nil {
		return o.err
	}
	if !containsDoc(o.results, mv.doc) {
		return fmt.Errorf("not among the new host's results %v", o.results)
	}
	return sameResults(o.results, bruteTopK(in.vocab, pl, []graph.NodeID{mv.to}, in.vocab.Vector(mv.doc), topK))
}

// checkMovedDocs runs the moved-document searches through the mode's own
// search path and returns how many fail checkMoved.
func checkMovedDocs(sys system, in *inputs, ms []move, pl *placement) int {
	out := make([]outcome, len(ms))
	sys.searchBlock(movedSearches(ms), out)
	bad := 0
	for i, mv := range ms {
		if err := checkMoved(in, pl, mv, out[i]); err != nil {
			logf("moved document %d at new host %d: %v", mv.doc, mv.to, err)
			bad++
		}
	}
	return bad
}

func containsDoc(rs []retrieval.Result, d retrieval.DocID) bool {
	for _, r := range rs {
		if r.Doc == d {
			return true
		}
	}
	return false
}

func maxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, math.Abs(x))
	}
	return m
}
