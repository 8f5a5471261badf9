package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Span names: one per layer boundary the benchmark calls across.
const (
	spanSetup       = "setup"              // root of one set-up
	spanMove        = "move"               // root of one move batch, landing to searchable
	spanSearch      = "search"             // root of one search, origin call to top-k in hand
	spanSubmit      = "serve.submit"       // serve.Scheduler.Submit
	spanScoreBatch  = "core.score_batch"   // Network.ScoreBatch, as the scheduler's backend call
	spanWalk        = "core.run_query"     // Network.RunQuery
	spanPlace       = "core.place"         // Network.ClearDocuments + PlaceDocuments
	spanPersonalize = "core.personalize"   // Network.ComputePersonalization
	spanDiffuse     = "core.run"           // Network.Run
	spanKeys        = "peernet.query_keys" // peernet.QueryKeys
	spanSimWalk     = "peernet.run_query"  // SimNetwork.RunQuery
	spanRound       = "peernet.gossip_round"
	spanSetDocs     = "peernet.set_docs"
)

// span is one recorded call. Times are nanoseconds since the tracer
// started. Parent is the causing span (-1 for roots); Search and Move tie
// the span to one search or move batch (-1 when neither). A backend call
// is caused by several searches at once, so it carries Links (the search
// ids that rode it) instead of a single Search.
type span struct {
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Parent int                `json:"parent"`
	Search int                `json:"search"`
	Move   int                `json:"move"`
	Links  []int              `json:"links,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`

	// query identifies the query vector of a submission or the columns of
	// a backend call (the scheduler hands the submitted slices through), so
	// each submission can be linked to the call it rode.
	query []*float64
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per boundary. While off (warm-up and
// checks) it records nothing either, so the spans cover exactly the
// measured sections.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    atomic.Bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOn switches recording; safe on a nil tracer.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin opens a span and returns its id (-1 when not recording).
func (t *tracer) begin(name string, parent, search, mv int) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Search: search, Move: mv})
	return len(t.spans) - 1
}

// end closes span id, attaching counts measured at the boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Counts = counts
}

// tag records the query identity of span id.
func (t *tracer) tag(id int, query [][]float64) {
	if id < 0 {
		return
	}
	ids := make([]*float64, len(query))
	for i, q := range query {
		ids[i] = &q[0]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].query = ids
}

// link joins each submission to the backend call it rode: the call whose
// columns hold the submission's query and which ran inside the submission.
// A submission with no such call was answered from the score cache.
func (t *tracer) link() map[int]int {
	rode := make(map[int]int)
	var calls []int
	for i := range t.spans {
		if t.spans[i].Name == spanScoreBatch {
			calls = append(calls, i)
		}
	}
	for i := range t.spans {
		sub := &t.spans[i]
		if sub.Name != spanSubmit || len(sub.query) == 0 {
			continue
		}
		for _, c := range calls {
			call := &t.spans[c]
			if call.Start < sub.Start || call.End > sub.End || !containsPtr(call.query, sub.query[0]) {
				continue
			}
			rode[i] = c
			call.Links = append(call.Links, sub.Search)
			break
		}
	}
	return rode
}

func containsPtr(ps []*float64, p *float64) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("encode span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}
