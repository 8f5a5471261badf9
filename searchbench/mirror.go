package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/serve"
)

// peerd's request-API scheduler defaults (-maxwait, -maxbatch, -cache).
const (
	mirrorMaxWait  = 2 * time.Millisecond
	mirrorMaxBatch = 64
	mirrorCache    = 512
	// mirrorClients is the number of closed-loop origins submitting
	// concurrently. On a 2-CPU host a neighbour taking half of one CPU
	// cut queries_per_s by 14% at 8 origins and by 2% at 4.
	mirrorClients = 4
	// mirrorSampled is how many searches per block have their scores
	// re-solved by the check.
	mirrorSampled = 2

	// mirrorEngine is peerd's -engine sync. Under this load on a 2-CPU
	// host the synchronous sweep served faster and steadier than the
	// Parallel engine (p50 44 ms against 65 ms at 4 origins; at 8 origins,
	// interleaved over five seeds, 69 ms against 87 ms and a spread of the
	// tail of 0.18 against 0.36), whose per-round barrier stalls whenever
	// a CPU is taken away.
	mirrorEngine = diffuse.EngineSync
)

// mirrorSystem is the path peerd's request API serves: every search is one
// whole-graph relevance diffusion through serve.Scheduler, then a greedy
// walk over the returned scores.
type mirrorSystem struct {
	tr    *tracer
	in    *inputs
	net   *core.Network
	sched *serve.Scheduler
}

// scoreBackend is the scheduler's backend: Network.ScoreBatch with a span
// around every call the scheduler makes.
type scoreBackend struct {
	net *core.Network
	tr  *tracer
}

func (b *scoreBackend) ScoreBatch(queries [][]float64, req core.DiffusionRequest) ([][]float64, diffuse.Stats, error) {
	sp := b.tr.begin(spanScoreBatch, -1, -1, -1)
	scores, st, err := b.net.ScoreBatch(queries, req)
	if sp >= 0 {
		colSweeps := 0
		for _, c := range st.ColumnSweeps {
			colSweeps += c
		}
		b.tr.end(sp, map[string]float64{
			"width": float64(len(queries)), "column_sweeps": float64(colSweeps),
			"messages": float64(st.Messages),
		})
		b.tr.tag(sp, queries)
	}
	return scores, st, err
}

func (m *mirrorSystem) setup(in *inputs, pl *placement, sp int) error {
	m.in = in
	m.net = core.NewNetwork(in.g, in.vocab)
	if err := placeAndPersonalize(m.net, pl, m.tr, sp); err != nil {
		return err
	}
	sched, err := serve.New(&scoreBackend{net: m.net, tr: m.tr}, serve.Config{
		Request:  core.DiffusionRequest{Engine: mirrorEngine, Alpha: alpha},
		MaxWait:  mirrorMaxWait,
		MaxBatch: mirrorMaxBatch,
		Cache:    mirrorCache,
	})
	if err != nil {
		return fmt.Errorf("start scheduler: %w", err)
	}
	m.sched = sched
	return nil
}

// placeAndPersonalize re-places every document on the network and rebuilds
// E0 — the only way core.Network takes a new placement.
func placeAndPersonalize(net *core.Network, pl *placement, tr *tracer, parent int) error {
	sp := tr.begin(spanPlace, parent, -1, -1)
	net.ClearDocuments()
	docs, hosts := pl.lists()
	if err := net.PlaceDocuments(docs, hosts); err != nil {
		return fmt.Errorf("place documents: %w", err)
	}
	tr.end(sp, nil)
	sp = tr.begin(spanPersonalize, parent, -1, -1)
	if err := net.ComputePersonalization(); err != nil {
		return fmt.Errorf("personalize: %w", err)
	}
	tr.end(sp, nil)
	return nil
}

// move rebuilds personalization and drops the score cache; no search is in
// flight while it runs.
func (m *mirrorSystem) move(_ []move, pl *placement, sp int) error {
	if err := placeAndPersonalize(m.net, pl, m.tr, sp); err != nil {
		return err
	}
	m.sched.InvalidateCache()
	return nil
}

// searchBlock runs the block from mirrorClients closed-loop origins.
func (m *mirrorSystem) searchBlock(ss []search, out []outcome) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range mirrorClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ss); i = int(next.Add(1)) - 1 {
				out[i] = m.search(ss[i])
			}
		}()
	}
	wg.Wait()
}

func (m *mirrorSystem) search(s search) outcome {
	query := m.in.vocab.Vector(s.pair.Query)
	start := time.Now()
	root := m.tr.begin(spanSearch, -1, s.id, -1)
	sp := m.tr.begin(spanSubmit, root, s.id, -1)
	scores, err := m.sched.Submit(context.Background(), query)
	m.tr.end(sp, nil)
	m.tr.tag(sp, [][]float64{query})
	if err != nil {
		return outcome{err: fmt.Errorf("submit: %w", err)}
	}
	sp = m.tr.begin(spanWalk, root, s.id, -1)
	res, err := m.net.RunQuery(s.origin, query, s.pair.Gold, core.QueryConfig{TTL: s.ttl, K: topK, Scores: scores})
	m.tr.end(sp, map[string]float64{"hops": float64(res.HopsTraveled)})
	m.tr.end(root, nil)
	if err != nil {
		return outcome{err: fmt.Errorf("walk: %w", err)}
	}
	return outcome{
		dur: time.Since(start), found: res.Found, msgs: res.Messages,
		results: res.Results, scores: scores,
	}
}

// checkSearches re-solves the PPR scores of the first mirrorSampled
// searches in the benchmark itself and checks each score column's mass.
func (m *mirrorSystem) checkSearches(ss []search, out []outcome, pl *placement) (int, error) {
	e0 := personalization(m.in, pl)
	bad := 0
	for i := range min(mirrorSampled, len(ss)) {
		if out[i].err != nil {
			continue
		}
		x := project(e0, m.in.vocab.Vector(ss[i].pair.Query))
		if err := checkScores(m.in.g, x, out[i].scores, alpha); err != nil {
			logf("mirror search %d: %v", ss[i].id, err)
			bad++
		}
	}
	return bad, nil
}

// checkMoves searches for every moved document at its new host, through
// the same closed-loop clients as a block.
func (m *mirrorSystem) checkMoves(ms []move, pl *placement) (int, error) {
	return checkMovedDocs(m, m.in, ms, pl), nil
}

func (m *mirrorSystem) close() {
	if m.sched != nil {
		m.sched.Close()
	}
}
