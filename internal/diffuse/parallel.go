package diffuse

import (
	"math"
	"sync"
	"sync/atomic"

	"diffusearch/internal/graph"
)

// frontierChunk is the number of frontier nodes a worker claims per grab.
// Small enough to balance skewed degrees, large enough to amortize the
// atomic increment.
const frontierChunk = 128

// forEachClaimed drains chunked work items over the concatenation of the
// per-shard lists sized by cum (cum[s]..cum[s+1] covers shard s) and calls
// visit once per (shard, index-range-within-shard) run. Chunk claims go
// through the shared atomic cursor; it is the single claim loop behind
// every phase of the parallel engines — single-CSR phases pass a 2-entry
// cum ({0, len(frontier)}) and concurrently diffusing tenants on one
// shared pool balance within themselves without coordination between them.
func forEachClaimed(cursor *atomic.Int64, cum []int, visit func(s, lo, hi int)) {
	total := cum[len(cum)-1]
	for {
		hi := int(cursor.Add(frontierChunk))
		lo := hi - frontierChunk
		if lo >= total {
			return
		}
		if hi > total {
			hi = total
		}
		// Split [lo, hi) into runs that stay inside one shard.
		s := 0
		for cum[s+1] <= lo {
			s++
		}
		for lo < hi {
			end := hi
			if cum[s+1] < end {
				end = cum[s+1]
			}
			visit(s, lo-cum[s], end-cum[s])
			lo = end
			s++
		}
	}
}

// commitCtx bundles the shared inputs of one commit phase of the
// residual-driven engine (ParallelColumns): publish each frontier node's
// new tile rows, then push and requeue. Tiling changes the storage layout
// of the iterate, never the scheduling.
type commitCtx struct {
	tr        *graph.Transition
	frontier  []graph.NodeID
	fullRound bool
	tiles     []*colTile
	resid     []float64
	edgeOff   []int
	edgeThr   []float64
	edgeStale []float64
	queued    []atomic.Bool
	cursor    *atomic.Int64
	cum       [2]int // {0, len(frontier)}: claim range for forEachClaimed
}

// work runs one worker's share of the commit phase into sh.
func (c *commitCtx) work(sh *parShard) {
	g := c.tr.Graph()
	forEachClaimed(c.cursor, c.cum[:], func(_, lo, hi int) {
		for _, u := range c.frontier[lo:hi] {
			if !c.fullRound {
				for _, t := range c.tiles {
					copy(t.cur.Row(u), t.next.Row(u))
				}
			}
			r := c.resid[u]
			if r > sh.maxResid {
				sh.maxResid = r
			}
			if r == 0 {
				continue
			}
			// Push per edge on the change accumulated since that
			// edge's last send, against a receiver-aware threshold —
			// a flat per-sender cutoff would let many senders each
			// drift just under it and leave a shared hub arbitrarily
			// stale, while broadcasting every change spams receivers
			// that are insensitive to this sender.
			base := c.edgeOff[u]
			for i, v := range g.Neighbors(u) {
				es := c.edgeStale[base+i] + r
				if es <= c.edgeThr[base+i] {
					c.edgeStale[base+i] = es
					continue
				}
				c.edgeStale[base+i] = 0
				sh.messages++
				// Test-and-test-and-set: on dense frontiers most
				// neighbours are already queued, and the plain load
				// dodges the expensive CAS for them.
				if !c.queued[v].Load() && c.queued[v].CompareAndSwap(false, true) {
					sh.next = append(sh.next, v)
				}
			}
		}
	})
}

// rebuildFrontier drains the per-shard next-frontier lists into frontier
// (reusing its backing array) and clears the membership marks.
func rebuildFrontier(shards []parShard, queued []atomic.Bool, frontier []graph.NodeID) []graph.NodeID {
	frontier = frontier[:0]
	for w := range shards {
		sh := &shards[w]
		for _, v := range sh.next {
			queued[v].Store(false)
			frontier = append(frontier, v)
		}
		sh.next = sh.next[:0]
	}
	return frontier
}

// pushState precomputes the CSR-aligned per-edge push thresholds (plus the
// offsets indexing them and a zeroed staleness accumulator). Sender u's
// unseen change enters receiver v's update as (1−α)·A[v][u]·stale(u,v);
// granting each of v's deg(v) incoming edges an equal pushTol/deg(v) share
// of v's error budget gives the send rule
//
//	send on (u,v) once stale(u,v) > pushTol / ((1−α)·A[v][u]·deg(v))
//
// which caps every receiver's total pending incoming influence at pushTol
// no matter how many sub-threshold senders feed it (the high-degree-hub
// case a flat per-sender cutoff gets wrong), while suppressing sends to
// receivers that barely weight this sender (a hub need not spam its
// leaves).
func pushState(tr *graph.Transition, pushTol, alpha float64) (off []int, thr, stale []float64) {
	g := tr.Graph()
	n := g.NumNodes()
	off = make([]int, n+1)
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + g.Degree(u)
	}
	thr = make([]float64, off[n])
	stale = make([]float64, off[n])
	for u := 0; u < n; u++ {
		base := off[u]
		for i, v := range g.Neighbors(u) {
			if d := (1 - alpha) * tr.Weight(v, u) * float64(g.Degree(v)); d > 0 {
				thr[base+i] = pushTol / d
			} else { // alpha == 1: no diffusion, nothing to announce
				thr[base+i] = math.Inf(1)
			}
		}
	}
	return off, thr, stale
}

// retireTol is the per-column retirement threshold of the frontier
// engines. A column's change c at a frontier node u reaches each
// neighbour v weighted by (1−α)·A[v][u], so a round's changes add at most
// ‖(1−α)A‖∞·c (the largest row sum) to any receiver's pending residual,
// on top of the ≤ pushTol of sub-threshold staleness the push rule
// allows. Retiring at c ≤ pushTol / max(1, ‖(1−α)A‖∞) keeps every
// receiver within 2·pushTol = tol/2 of its update when the column
// freezes — also at a hub whose incoming weights are all 1 (a star under
// column-stochastic normalization), where a flat pushTol cut leaves the
// hub off by up to deg·pushTol.
func retireTol(tr *graph.Transition, pushTol, alpha float64) float64 {
	var amp float64
	for v := 0; v < tr.Graph().NumNodes(); v++ {
		var s float64
		for _, w := range tr.Weights(v) {
			s += w
		}
		amp = max(amp, s)
	}
	return pushTol / max(1, (1-alpha)*amp)
}

// parShard is the per-worker scratch state: a private slice of next-round
// frontier members, per compact column slot residual maxima, and round
// counters, merged by the coordinator between rounds so workers never
// contend on shared accumulators.
type parShard struct {
	next     []graph.NodeID
	colRes   []float64
	updates  int64
	messages int64
	maxResid float64
	// Pad to 128 bytes (two cache lines) so adjacent shards in the slice
	// never share a line however the allocator aligns it.
	_ [128 - 72]byte
}

// workerPool is a fixed set of goroutines executing one function per phase.
// Phase completion is signalled through a pending-work counter: the last
// worker to finish posts to done, so the coordinator blocks on a channel
// receive instead of sleep-polling shared state.
type workerPool struct {
	tasks   []chan func(worker int)
	pending atomic.Int64
	done    chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{
		tasks: make([]chan func(int), workers),
		done:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := range p.tasks {
		p.tasks[i] = make(chan func(int), 1)
		go func(id int) {
			defer p.wg.Done()
			for {
				select {
				case <-p.quit:
					return
				case fn := <-p.tasks[id]:
					fn(id)
					if p.pending.Add(-1) == 0 {
						p.done <- struct{}{}
					}
				}
			}
		}(i)
	}
	return p
}

// run executes fn on every worker and returns when all have finished. A
// one-worker pool runs fn inline: the coordinator is the shard, sparing the
// channel round trip per phase.
func (p *workerPool) run(fn func(worker int)) {
	if len(p.tasks) == 1 {
		fn(0)
		return
	}
	p.pending.Store(int64(len(p.tasks)))
	for i := range p.tasks {
		p.tasks[i] <- fn
	}
	<-p.done
}

// close stops the workers. The pool must be idle.
func (p *workerPool) close() {
	close(p.quit)
	p.wg.Wait()
}
