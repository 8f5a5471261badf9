package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"time"

	"diffusearch/internal/graph"
	"diffusearch/internal/retrieval"
)

// Search parameters shared by the three modes.
const (
	alpha = 0.5 // PPR teleport probability (peerd -alpha)
	ttl   = 50  // hop budget (paper: 50)
	topK  = 5   // results tracked per search; recall is gold ∈ top-k
)

// system is one search mode under test. runBench calls setup once per
// set-up repetition, then alternates move batches and search blocks; the
// checks run between the timed sections.
type system interface {
	// setup builds the mode from the generated inputs up to the first
	// answerable search.
	setup(in *inputs, pl *placement, sp int) error
	// move lands a move batch (already applied to pl) and returns once
	// every moved document is searchable.
	move(ms []move, pl *placement, sp int) error
	// searchBlock runs one block of searches, filling out[i] for ss[i].
	searchBlock(ss []search, out []outcome)
	// checkMoves verifies a landed batch apart from the program and returns
	// how many of its moves failed.
	checkMoves(ms []move, pl *placement) (int, error)
	// checkSearches verifies a block's outputs apart from the program and
	// returns how many searches failed.
	checkSearches(ss []search, out []outcome, pl *placement) (int, error)
	close()
}

// outcome is one finished search.
type outcome struct {
	dur     time.Duration
	err     error
	found   bool
	msgs    int
	results []retrieval.Result
	hops    []graph.NodeID // gossip: peers that processed the query
	scores  []float64      // mirror: the per-node scores the walk used
}

func newSystem(workload string, tr *tracer) (system, error) {
	switch workload {
	case "mirror":
		return &mirrorSystem{tr: tr}, nil
	case "embed":
		return &embedSystem{tr: tr}, nil
	case "gossip":
		return &gossipSystem{tr: tr}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want mirror, embed or gossip)", workload)
}

// setupReps is how many times a run sets the mode up; setup_s is the
// median. The mirror's set-up takes milliseconds and the others take
// seconds, so the mirror repeats most. Gossip bootstrap (≈3 s) repeats
// five times: the median of three spread 0.25 over five seeds on a host
// losing 8–22% of its CPU to neighbours.
func setupReps(workload string) int {
	if workload == "mirror" {
		return 15
	}
	return 5
}

// minEpochs guarantees every run at least this many move batches and
// search blocks, whatever --seconds says, so reindex_ms has a median.
const minEpochs = 2

// tailPct is the tail percentile: at searchesPerEpoch = 50 searches per
// block, p80 is the highest percentile with ten samples beyond it.
// query_tail_ms is the median over blocks of each block's p80, so a burst
// of host noise in a minority of blocks does not move it. (On a 2-CPU VM
// losing 3–14% of its CPU time to neighbours, the p90 of 100-search blocks
// spread up to 0.30 between runs; the smaller blocks also give twice as
// many blocks to take medians over.)
const tailPct = 80

// report is what one run measured.
type report struct {
	attempted, failed int
	metrics           []metric
}

type metric struct {
	name, unit string
	value      float64
}

// runBench sets the mode up on the generated inputs, then runs whole
// epochs (one move batch, then one search block) until the measured time
// is spent. generateS is the input generation time, reported per layer.
func runBench(workload string, in *inputs, generateS, seconds float64, tr *tracer) (*report, error) {
	pl := newPlacement(in)
	tr.setOn(true)

	var (
		sys    system
		setups []float64
		err    error
	)
	for rep := range setupReps(workload) {
		if sys != nil {
			sys.close()
		}
		if sys, err = newSystem(workload, tr); err != nil {
			return nil, err
		}
		// Every set-up starts from a collected heap, so none of them pays
		// for the garbage of input generation or of the previous set-up.
		runtime.GC()
		sp := tr.begin(spanSetup, -1, -1, -1)
		start := time.Now()
		if err := sys.setup(in, pl, sp); err != nil {
			return nil, fmt.Errorf("setup %d: %w", rep, err)
		}
		setups = append(setups, sinceS(start))
		tr.end(sp, nil)
	}
	defer sys.close()
	heap := liveHeapMB(0)

	// Warm caches and lazy state on searches that are not measured.
	tr.setOn(false)
	warm := planSearches(in, pl, "warmup", -1-warmupSearches, warmupSearches)
	sys.searchBlock(warm, make([]outcome, len(warm)))
	if m, ok := sys.(*mirrorSystem); ok {
		m.sched.InvalidateCache()
	}

	var (
		rep                 = &report{}
		durs                []float64 // every search, ms
		tails, rates        []float64 // per search block
		reindex             []float64 // per move batch, ms
		found, msgs         int
		allocBytes, pauseNs uint64
		searches            int
		loopStart           = time.Now()
		before, after       runtime.MemStats
	)
	for e := 0; e < minEpochs || sinceS(loopStart) < seconds; e++ {
		ms := planMoves(in, pl, e)
		pl.apply(ms)
		tr.setOn(true)
		sp := tr.begin(spanMove, -1, -1, e)
		start := time.Now()
		if err := sys.move(ms, pl, sp); err != nil {
			return nil, fmt.Errorf("epoch %d move: %w", e, err)
		}
		reindex = append(reindex, float64(time.Since(start).Nanoseconds())/1e6)
		tr.end(sp, nil)
		rep.attempted += len(ms)
		heap = liveHeapMB(heap)

		ss := planSearches(in, pl, strconv.Itoa(e), e*searchesPerEpoch, searchesPerEpoch)
		out := make([]outcome, len(ss))
		runtime.ReadMemStats(&before)
		start = time.Now()
		sys.searchBlock(ss, out)
		blockS := sinceS(start)
		runtime.ReadMemStats(&after)
		allocBytes += after.TotalAlloc - before.TotalAlloc
		pauseNs += after.PauseTotalNs - before.PauseTotalNs
		rep.attempted += len(ss)
		searches += len(ss)

		tr.setOn(false)

		block := make([]float64, 0, len(out))
		for _, o := range out {
			if o.err != nil {
				rep.failed++
				continue
			}
			d := float64(o.dur.Nanoseconds()) / 1e6
			block = append(block, d)
			durs = append(durs, d)
			msgs += o.msgs
			if o.found {
				found++
			}
		}
		tails = append(tails, percentile(block, tailPct))
		rates = append(rates, float64(len(block))/blockS)
		logf("epoch %d: reindex %.1f ms, search p50 %.3f ms, p%d %.3f ms", e, reindex[e], median(block), tailPct, tails[e])

		bad, err := sys.checkSearches(ss, out, pl)
		if err != nil {
			return nil, fmt.Errorf("epoch %d search check: %w", e, err)
		}
		rep.failed += bad
		if bad, err = sys.checkMoves(ms, pl); err != nil {
			return nil, fmt.Errorf("epoch %d move check: %w", e, err)
		}
		rep.failed += bad
		heap = liveHeapMB(heap)
	}

	ok := float64(len(durs))
	rep.metrics = []metric{
		{"setup_s", "s", median(setups)},
		{"query_p50_ms", "ms", median(durs)},
		{"query_tail_ms", "ms", median(tails)},
		{"queries_per_s", "1/s", median(rates)},
		{"recall", "ratio", float64(found) / ok},
		{"msgs_per_query", "count", float64(msgs) / ok},
		{"reindex_ms", "ms", median(reindex)},
		{"heap_mb", "MiB", heap},
	}
	if tr != nil {
		rep.metrics = layerMetrics(tr, layerInputs{
			generateS:  generateS,
			searches:   searches,
			allocBytes: allocBytes,
			pauseNs:    pauseNs,
		})
	}
	return rep, nil
}

// liveHeapMB forces a collection and returns the larger of prev and the
// live heap in MiB.
func liveHeapMB(prev float64) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return math.Max(prev, float64(m.HeapAlloc)/(1<<20))
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile: the smallest value
// with at least p% of the samples at or below it.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := (p*len(s) + 99) / 100
	return s[max(rank, 1)-1]
}

// sinceS is the elapsed time in seconds.
func sinceS(t time.Time) float64 { return time.Since(t).Seconds() }
