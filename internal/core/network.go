// Package core implements the paper's primary contribution: the
// diffusion-based decentralized search scheme of §IV. A Network couples a
// P2P topology with a document corpus; nodes summarize their collections
// into personalization vectors (§IV-A), diffuse them with PPR (§IV-B), and
// answer queries with embedding-guided biased walks (§IV-C, Fig. 1).
package core

import (
	"errors"
	"fmt"

	"diffusearch/internal/embed"
	"diffusearch/internal/graph"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/vecmath"
)

// Sentinel errors for lifecycle misuse.
var (
	// ErrNotDiffused is returned when an operation needs diffused
	// embeddings but Run has not been called and no precomputed scores
	// were supplied.
	ErrNotDiffused = errors.New("core: embeddings not diffused")
	// ErrNoPersonalization is returned when diffusion is requested before
	// ComputePersonalization.
	ErrNoPersonalization = errors.New("core: personalization vectors not computed")
)

// Network is the simulated P2P search network. Construct with NewNetwork,
// then: PlaceDocuments → ComputePersonalization → Run (one DiffusionRequest
// selecting engine/filter; or skip diffusion and use ScoreBatch scalar
// scoring) → RunQuery.
type Network struct {
	g     *graph.Graph
	tr    *graph.Transition
	vocab *embed.Vocabulary

	scorer        retrieval.Scorer
	summarization string
	scoring       Scorer // diffusion backend; single-CSR unless SetScorer
	ranker        Ranker // top-k backend; full-vector fallback unless SetRanker

	docsAt []*retrieval.LocalIndex          // per-node collections D_u
	hostOf map[retrieval.DocID]graph.NodeID // inverse of the placement

	perso *vecmath.Matrix // E0, one personalization vector per node
	emb   *vecmath.Matrix // diffused E (vector mode); nil until diffusion
	alpha float64         // teleport probability used for diffusion / fast scoring
}

// Option customizes NewNetwork.
type Option func(*Network)

// WithNormalization selects the transition-matrix normalization (default
// ColumnStochastic, the paper's choice).
func WithNormalization(norm graph.Normalization) Option {
	return func(n *Network) { n.tr = graph.NewTransition(n.g, norm) }
}

// WithScorer selects the comparison function φ (default DotProduct, the
// paper's choice).
func WithScorer(s retrieval.Scorer) Option {
	return func(n *Network) { n.scorer = s }
}

// WithSummarization selects the personalization summarization mode: "sum"
// (paper, eq. 3), "mean", or "unit" (ablation abl-summary).
func WithSummarization(mode string) Option {
	return func(n *Network) { n.summarization = mode }
}

// NewNetwork creates a network over graph g with documents drawn from
// vocab. Nodes start with empty collections.
func NewNetwork(g *graph.Graph, vocab *embed.Vocabulary, opts ...Option) *Network {
	n := &Network{
		g:             g,
		vocab:         vocab,
		scorer:        retrieval.DotProduct,
		summarization: "sum",
		docsAt:        make([]*retrieval.LocalIndex, g.NumNodes()),
		hostOf:        make(map[retrieval.DocID]graph.NodeID),
	}
	for u := range n.docsAt {
		n.docsAt[u] = retrieval.NewLocalIndex(vocab, nil)
	}
	n.tr = graph.NewTransition(g, graph.ColumnStochastic)
	for _, opt := range opts {
		opt(n)
	}
	// The backend binds after the options so WithNormalization's transition
	// swap is what the default single-CSR scorer diffuses.
	n.scoring = &csrScorer{tr: n.tr}
	return n
}

// Graph returns the underlying topology.
func (n *Network) Graph() *graph.Graph { return n.g }

// Vocabulary returns the embedding vocabulary.
func (n *Network) Vocabulary() *embed.Vocabulary { return n.vocab }

// Scorer returns the comparison function in use.
func (n *Network) Scorer() retrieval.Scorer { return n.scorer }

// Alpha returns the teleport probability of the last diffusion (0 before).
func (n *Network) Alpha() float64 { return n.alpha }

// PlaceDocuments assigns docs[i] to hosts[i]. Placing a document twice
// returns an error; the experiments place each document exactly once.
// Placement invalidates previously computed personalization and diffusion.
func (n *Network) PlaceDocuments(docs []retrieval.DocID, hosts []graph.NodeID) error {
	if len(docs) != len(hosts) {
		return fmt.Errorf("core: %d docs but %d hosts", len(docs), len(hosts))
	}
	for i, d := range docs {
		u := hosts[i]
		if u < 0 || u >= n.g.NumNodes() {
			return fmt.Errorf("core: host %d out of range for doc %d", u, d)
		}
		if prev, dup := n.hostOf[d]; dup {
			return fmt.Errorf("core: document %d already placed at node %d", d, prev)
		}
		n.hostOf[d] = u
		n.docsAt[u].Add(d)
	}
	n.perso = nil
	n.emb = nil
	return nil
}

// ClearDocuments removes every placed document (used between experiment
// iterations).
func (n *Network) ClearDocuments() {
	for u := range n.docsAt {
		n.docsAt[u] = retrieval.NewLocalIndex(n.vocab, nil)
	}
	n.hostOf = make(map[retrieval.DocID]graph.NodeID)
	n.perso = nil
	n.emb = nil
}

// HostOf returns the node storing doc, or -1 when the document is not
// placed.
func (n *Network) HostOf(doc retrieval.DocID) graph.NodeID {
	if u, ok := n.hostOf[doc]; ok {
		return u
	}
	return -1
}

// DocsAt returns the document collection of node u.
func (n *Network) DocsAt(u graph.NodeID) []retrieval.DocID { return n.docsAt[u].Docs() }

// NumDocuments returns the number of placed documents.
func (n *Network) NumDocuments() int { return len(n.hostOf) }

// ComputePersonalization builds E0: one summarized personalization vector
// per node (eq. 3 for mode "sum").
func (n *Network) ComputePersonalization() error {
	perso := vecmath.NewMatrix(n.g.NumNodes(), n.vocab.Dim())
	for u := 0; u < n.g.NumNodes(); u++ {
		v, err := n.docsAt[u].SummarizedPersonalization(n.summarization)
		if err != nil {
			return err
		}
		perso.SetRow(u, v)
	}
	n.perso = perso
	n.emb = nil
	return nil
}

// Personalization returns the personalization vector of node u.
func (n *Network) Personalization(u graph.NodeID) ([]float64, error) {
	if n.perso == nil {
		return nil, ErrNoPersonalization
	}
	return n.perso.Row(u), nil
}

// PersonalizationMatrix returns the full E0 matrix (one personalization
// vector per row), or nil before ComputePersonalization. The matrix aliases
// network state and must not be mutated; the experiment harness reads it to
// drive diffusion-engine comparisons.
func (n *Network) PersonalizationMatrix() *vecmath.Matrix { return n.perso }

// Transition returns the network's normalized adjacency operator (with its
// materialized CSR edge weights), so harnesses can run diffusions on the
// identical operator without rebuilding the O(|E|) weights array.
func (n *Network) Transition() *graph.Transition { return n.tr }

// NodeEmbedding returns the diffused embedding of node u (vector mode).
func (n *Network) NodeEmbedding(u graph.NodeID) ([]float64, error) {
	if n.emb == nil {
		return nil, ErrNotDiffused
	}
	return n.emb.Row(u), nil
}

// NodeScores returns s[u] = φ(query, e_u) for every node, from the diffused
// embeddings of vector mode.
func (n *Network) NodeScores(query []float64) ([]float64, error) {
	if n.emb == nil {
		return nil, ErrNotDiffused
	}
	s := make([]float64, n.g.NumNodes())
	for u := range s {
		s[u] = n.scorer.Score(query, n.emb.Row(u))
	}
	return s, nil
}

// LocalSearch runs the node-local retrieval of Fig. 1 step 2, offering
// every document of node u to the tracker.
func (n *Network) LocalSearch(u graph.NodeID, tracker *retrieval.TopK, query []float64) {
	n.docsAt[u].SearchInto(tracker, query, n.scorer)
}

// CentralizedEngine returns the ground-truth engine of §III-A over all
// placed documents.
func (n *Network) CentralizedEngine() *retrieval.Engine {
	docs := make([]retrieval.DocID, 0, len(n.hostOf))
	for d := range n.hostOf {
		docs = append(docs, d)
	}
	return retrieval.NewEngine(n.vocab, docs)
}
