// Command benchjson measures the diffusion engines on the paper's workload
// (a scaled environment with a realistic document placement, so E0 is the
// sparse personalization matrix) and writes a machine-readable snapshot
// (BENCH_diffuse.json) so CI can track the perf trajectory of the hottest
// path.
//
// Three engines diffuse the identical embedding matrix through diffuse.Run:
// the deterministic Asynchronous reference, the residual-driven Parallel
// engine, and the multi-color Gauss–Seidel engine. Speedups are reported
// against the Asynchronous reference; gomaxprocs records how many cores
// the snapshot machine offered (the Parallel engine's scaling headroom).
//
// BenchmarkScoreBatch rows (batch widths 1/8/64) time the unified request
// API's multi-column query scoring on the Parallel engine against the
// sequential baseline of B independent one-query ScoreBatch calls on the
// synchronous engine; the batch=64 row is the ScoreBatch amortization
// acceptance number.
//
// Batch_wide rows (B=256/512) compare one column tile spanning the batch
// (ColTile -1) against the auto column-tiled plan on the Parallel engine
// over the projected wide relevance signal; outputs are bit-identical and the
// B=512 row carries the ≥1.3× tiling acceptance bar. The gs row compares
// the multi-color Gauss–Seidel engine's sweep count against the Parallel
// engine's block-Jacobi rounds at the same tolerance (bar: ≤0.8×) and its
// tight-tolerance scores against the Synchronous reference (bar: ≤1e-9).
//
// Serve rows measure the internal/serve admission-controlled scheduler
// under closed-loop load at 1/8/64 concurrent clients: offered load grows
// with concurrency, the scheduler coalesces the concurrent callers into
// multi-column diffusions, and each row records throughput against the
// per-query (B=1) path plus the realized batch width and cache hit rate.
//
// Shard rows measure the sharded multi-tenant environment: T tenant graphs
// diffusing concurrently over partitioned Transition shards on one shared
// worker pool, against the single-CSR status quo — both as raw engine
// overlap (sequential vs concurrent ScoreBatch) and as served throughput
// (per-tenant coalescing schedulers vs per-query calls), with the realized
// cross-shard residual traffic fraction.
//
// Priority rows measure the deadline-aware scheduler under a mixed 90/10
// interactive/bulk load against the FIFO coalescer on the identical
// workload: interactive queries jump queued bulk bursts, so interactive
// p99 must improve ≥1.5× while total QPS stays within 10% (the ISSUE 5
// acceptance bar, gated with -baseline).
//
// Walkindex rows measure the precomputed PPR segment store against the
// cold CSR per-query path on the identical workload: offline build cost,
// store bytes per node, and warm vs cold ns/query at a partial and a full
// budget. The full-budget row carries the acceptance bar (warm ≤ 0.25×
// cold, i.e. speedup ≥ 4×) and every row must stay within the request
// tolerance of the exact backend.
//
// Topk rows measure the bidirectional certified top-k path against the
// full-vector ScoreBatch baseline on the CSR backend at several k: the
// reverse-push tables bound each candidate's final score, so the forward
// diffusion stops at the first sweep whose k/(k+1) gap is certified. The
// k=10 row carries the acceptance bar (certified top-10 ≥ 2× faster
// ns/query than the full-vector path) and every row's returned set must
// equal the full-vector top-k exactly (agreement 1.0 — the path is exact
// by construction, certificate or fallback).
//
// Fanout rows measure bloom-filter routed query fan-out on the peernet
// protocol harness (a deterministic count-based simulation, so the rows
// are bit-identical across hardware): at each filter size, the routed
// walk's messages/query and recall@K against the unrouted greedy walk on
// identical queries and origins. The bits=1024 row carries the acceptance
// bars — routed messages ≤ 0.7× unrouted with recall ratio ≥ 1.0 — and
// the message reduction is gated against the committed row.
//
// The telemetry row times the identical B=8 ScoreBatch bare and with the
// full sweep observer feeding a live telemetry registry, interleaved
// min-of-3 so clock drift hits both sides equally. The within-run overhead
// fraction carries the instrumentation acceptance bar (≤3% ns/query) and
// is gated absolutely — no baseline row needed, both sides are measured
// back-to-back in this run.
//
// The apply_row_affine rows time the bodies graph.Transition.ApplyRowAffine
// can dispatch to — the portable Go kernel ("go") and, where the CPU has
// one, the SIMD body ("simd") — at B=1/8/64, so the snapshot records the
// SIMD body's margin on the recording hardware.
//
// With -baseline, the freshly measured snapshot is gated against a
// committed one and the command exits non-zero when a Parallel-engine,
// ScoreBatch, serve, shard, priority, walkindex, topk, or fanout row
// regressed
// more than -max-regress (CI's bench-regression step).
//
// Usage:
//
//	benchjson -scale 0.25 -docs 500 -alpha 0.5 -seed 42 -out BENCH_diffuse.json
//	benchjson -scale 1.0 -docs 500 -out /tmp/fresh.json -baseline BENCH_diffuse.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"diffusearch/internal/core"
	"diffusearch/internal/diffuse"
	"diffusearch/internal/expt"
	"diffusearch/internal/randx"
	"diffusearch/internal/retrieval"
	"diffusearch/internal/telemetry"
	"diffusearch/internal/vecmath"
)

type engineResult struct {
	Engine         string  `json:"engine"`
	NsPerOp        int64   `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	Sweeps         int     `json:"sweeps,omitempty"`
	Updates        int64   `json:"updates"`
	Messages       int64   `json:"messages"`
	SpeedupVsAsync float64 `json:"speedup_vs_async"`
}

// batchResult records one BenchmarkScoreBatch width: the Parallel engine
// scoring B queries through one multi-column diffusion, against the
// sequential baseline of B independent one-query sync ScoreBatch calls.
type batchResult struct {
	Batch               int     `json:"batch"`
	NsPerOp             int64   `json:"ns_per_op"`
	NsPerQuery          int64   `json:"ns_per_query"`
	AllocsPerOp         int64   `json:"allocs_per_op"`
	BytesPerOp          int64   `json:"bytes_per_op"`
	Sweeps              int     `json:"sweeps"`
	MessagesPerQuery    float64 `json:"messages_per_query"`
	SpeedupVsSequential float64 `json:"speedup_vs_sequential"`
}

// serveResult records one closed-loop concurrency level: the coalescing
// scheduler's throughput and latency against the per-query (B=1) path on
// the same workload, plus the realized batch width, cache hit rate, and
// aggregated sweeps/query.
type serveResult struct {
	Clients           int     `json:"clients"`
	QPS               float64 `json:"qps"`
	PerQueryQPS       float64 `json:"per_query_qps"`
	SpeedupVsPerQuery float64 `json:"speedup_vs_per_query"`
	P50Ns             int64   `json:"p50_ns"`
	P99Ns             int64   `json:"p99_ns"`
	PerQueryP99Ns     int64   `json:"per_query_p99_ns"`
	MeanBatch         float64 `json:"mean_batch"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	SweepsPerQuery    float64 `json:"sweeps_per_query"`
}

// priorityResult records one mixed-load concurrency level: the identical
// 90/10 interactive/bulk workload through the FIFO coalescer (zero-valued
// SubmitOpts) and the priority scheduler (classes tagged). IntP99Gain is
// the acceptance number — the priority scheduler must protect interactive
// p99 under bulk bursts (≥1.5× vs FIFO) without giving up total
// throughput (QPSRatio ≥ 0.9).
type priorityResult struct {
	Clients          int     `json:"clients"`
	FifoQPS          float64 `json:"fifo_qps"`
	PriorityQPS      float64 `json:"priority_qps"`
	QPSRatio         float64 `json:"qps_ratio"`
	FifoIntP99Ns     int64   `json:"fifo_int_p99_ns"`
	PriorityIntP99Ns int64   `json:"priority_int_p99_ns"`
	IntP99Gain       float64 `json:"int_p99_gain"`
	FifoBulkP99Ns    int64   `json:"fifo_bulk_p99_ns"`
	PriorityBulkP99N int64   `json:"priority_bulk_p99_ns"`
	MeanBatchFifo    float64 `json:"mean_batch_fifo"`
	MeanBatchPri     float64 `json:"mean_batch_priority"`
}

// kernelResult records one ApplyRowAffine body at one batch width: ns for
// a full pass over every CSR row of the snapshot graph.
type kernelResult struct {
	Kernel  string `json:"kernel"` // "go" (portable) or "simd" (what ApplyRowAffine runs where present)
	Batch   int    `json:"batch"`
	NsPerOp int64  `json:"ns_per_op"`
}

// shardResult records one multi-tenant sharding configuration: T tenant
// graphs diffusing concurrently over partitioned shards on one worker
// pool, against the single-CSR status quo on the identical workload. The
// engine speedup (concurrent sharded ScoreBatch vs sequential single-CSR
// ScoreBatch) measures core-level overlap and is ≈1.0 on a single-core
// recorder; the serve speedup (per-tenant coalescing schedulers vs
// per-query single-CSR calls) is the acceptance number — it comes from
// batching amortization and holds on one core.
type shardResult struct {
	Shards            int     `json:"shards"`
	Tenants           int     `json:"tenants"`
	Partitioner       string  `json:"partitioner"`
	SeqNsPerQuery     int64   `json:"seq_ns_per_query"`
	ConcNsPerQuery    int64   `json:"conc_ns_per_query"`
	EngineSpeedup     float64 `json:"engine_speedup"`
	CrossFrac         float64 `json:"cross_frac"`
	PerQueryQPS       float64 `json:"per_query_qps"`
	MultiQPS          float64 `json:"multi_qps"`
	SpeedupVsPerQuery float64 `json:"speedup_vs_per_query"`
}

// walkIndexResult records one walk-index store budget: what the
// precomputed segments cost to build and hold, and the warm-vs-cold
// per-query speedup they buy at that budget (expt.WalkIndexRow, frozen
// for the snapshot).
type walkIndexResult struct {
	BudgetFrac     float64 `json:"budget_frac"`
	BudgetBytes    int64   `json:"budget_bytes"` // 0 = unbounded
	StoreBytes     int64   `json:"store_bytes"`
	BytesPerNode   float64 `json:"bytes_per_node"`
	Coverage       float64 `json:"coverage"`
	BuildNs        int64   `json:"build_ns"`
	ColdNsPerQuery int64   `json:"cold_ns_per_query"`
	WarmNsPerQuery int64   `json:"warm_ns_per_query"`
	Speedup        float64 `json:"speedup"`
	MaxErrVsCSR    float64 `json:"max_err_vs_csr"`
}

// topKResult records one k of the bidirectional top-k sweep on the
// Parallel engine: ns/query of the certified ranked path vs the
// full-vector ScoreBatch baseline on the same queries, the certificate
// hit rate, and the exactness check (expt.TopKRow, frozen for the
// snapshot).
type topKResult struct {
	K              int     `json:"k"`
	FullNsPerQuery int64   `json:"full_ns_per_query"`
	TopKNsPerQuery int64   `json:"topk_ns_per_query"`
	Speedup        float64 `json:"speedup"`
	FullMsgsPerQ   float64 `json:"full_msgs_per_query"`
	TopKMsgsPerQ   float64 `json:"topk_msgs_per_query"`
	Certified      float64 `json:"certified"`
	Agreement      float64 `json:"agreement"`
}

// batchWideResult records one wide-batch width of the column-tiled kernel
// comparison: the Parallel engine diffusing the projected B-query
// relevance signal with tiling disabled (ColTile -1, the legacy untiled
// path) and with the auto policy (ColTile 0, which engages at these
// widths). Both runs are bit-identical in results; the row records the
// throughput gap, and the B=512 row carries the tiling acceptance bar
// (tiled ≥ 1.3× untiled ns/query).
type batchWideResult struct {
	Batch             int     `json:"batch"`
	Engine            string  `json:"engine"`
	TileWidth         int     `json:"tile_width"` // auto-picked by the cache model
	UntiledNsPerQuery int64   `json:"untiled_ns_per_query"`
	TiledNsPerQuery   int64   `json:"tiled_ns_per_query"`
	Speedup           float64 `json:"speedup"`
	Sweeps            int     `json:"sweeps"`
}

// gsResult records the multi-color Gauss–Seidel engine against the
// Parallel engine's block-Jacobi rounds on the snapshot's embedding
// diffusion at the snapshot tolerance: sweep counts (the convergence
// acceptance bar — GS sweeps ≤ 0.8× Parallel rounds), the number of color
// classes the greedy coloring produced, wall clock, and the max absolute
// score difference vs the Synchronous engine at a tight tolerance (the
// correctness bar, ≤ 1e-9).
type gsResult struct {
	Sweeps         int     `json:"sweeps"`
	ParallelRounds int     `json:"parallel_rounds"`
	SweepRatio     float64 `json:"sweep_ratio"`
	Colors         int     `json:"colors"`
	NsPerOp        int64   `json:"ns_per_op"`
	MaxErrVsSync   float64 `json:"max_err_vs_sync"`
}

// fanoutResult records one filter size of the bloom-routed fan-out sweep on
// the deterministic protocol harness: the routed walk's message cost and
// recall against the unrouted greedy walk on identical queries (counts, not
// timings — the row is bit-reproducible in the seed on any hardware).
type fanoutResult struct {
	Bits             int     `json:"bits"`
	FilterBytes      int     `json:"filter_bytes"`
	GossipRounds     int     `json:"gossip_rounds"`
	UnroutedMsgsPerQ float64 `json:"unrouted_msgs_per_query"`
	RoutedMsgsPerQ   float64 `json:"routed_msgs_per_query"`
	MsgRatio         float64 `json:"msg_ratio"`
	UnroutedRecall   float64 `json:"unrouted_recall"`
	RoutedRecall     float64 `json:"routed_recall"`
	RecallRatio      float64 `json:"recall_ratio"`
	HitsPerQ         float64 `json:"hits_per_query"`
	EarlyStopFrac    float64 `json:"early_stop_frac"`
}

// Fanout acceptance bars: at the deployment default filter size the routed
// walk must cut messages/query to ≤0.7× the unrouted baseline while finding
// the gold document at least as often (recall ratio ≥ 1.0). Both are
// within-run count ratios on a deterministic simulation, so they hold
// bit-exactly on any hardware.
const (
	fanoutAcceptanceBits = 1024
	maxFanoutMsgRatio    = 0.7
	minFanoutRecallRatio = 1.0
)

// maxTelemetryOverhead is the instrumentation acceptance bar: an attached
// sweep observer may not cost more than this fraction of ns/query over
// the bare ScoreBatch path. The gate is absolute (both sides measured in
// one run), so it holds on any hardware.
const maxTelemetryOverhead = 0.03

// telemetryResult records the instrumentation overhead measurement: the
// same B-query ScoreBatch with no observer and with the full telemetry
// sweep observer attached, each the min of three interleaved runs.
type telemetryResult struct {
	Batch           int     `json:"batch"`
	BaseNsPerQuery  int64   `json:"base_ns_per_query"`
	InstrNsPerQuery int64   `json:"instrumented_ns_per_query"`
	OverheadFrac    float64 `json:"overhead_frac"`
}

type snapshot struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// CPUModel and GoVersion describe the recording machine and toolchain.
	// They are informational: the regression gate keys its config-equality
	// and same-hardware checks on the fields below, so snapshots recorded
	// before these stamps existed stay comparable.
	CPUModel   string         `json:"cpu_model,omitempty"`
	GoVersion  string         `json:"go_version,omitempty"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workers    int            `json:"workers"`
	Nodes      int            `json:"nodes"`
	Edges      int            `json:"edges"`
	Docs       int            `json:"docs"`
	Dim        int            `json:"dim"`
	Alpha      float64        `json:"alpha"`
	Tol        float64        `json:"tol"`
	Seed       uint64         `json:"seed"`
	Engines    []engineResult `json:"engines"`
	ScoreBatch []batchResult  `json:"score_batch"`
	// BatchWide records the column-tiled wide-batch rows; the B=512 row
	// carries the ≥1.3× tiled-vs-untiled acceptance number.
	BatchWide []batchWideResult `json:"batch_wide"`
	// GS records the multi-color Gauss–Seidel engine row; it carries the
	// sweeps ≤ 0.8× Parallel-rounds and ≤1e-9-vs-Synchronous acceptance
	// numbers.
	GS    []gsResult    `json:"gs"`
	Serve []serveResult `json:"serve"`
	// Shard records the multi-tenant sharded-environment rows; the
	// tenants≥4 rows carry the ≥1.5×-vs-single-CSR acceptance number.
	Shard []shardResult `json:"shard"`
	// Priority records the deadline-aware scheduling rows; every row
	// carries the ≥1.5× interactive-p99-vs-FIFO acceptance number.
	Priority []priorityResult `json:"priority"`
	// WalkIndex records the segment-store rows; the full-coverage row
	// carries the ≥4× warm-vs-cold acceptance number, and every row's
	// error vs the exact CSR backend must stay within Tol.
	WalkIndex []walkIndexResult `json:"walkindex"`
	// TopK records the bidirectional certified top-k rows; the k=10 row
	// carries the ≥2×-vs-full-vector acceptance number, and every row's
	// agreement with the exact full-vector top-k must be 1.0.
	TopK []topKResult `json:"topk"`
	// Fanout records the bloom-routed query fan-out rows; the
	// fanoutAcceptanceBits row carries the ≤0.7× messages/query and
	// recall-ratio ≥1.0 acceptance numbers.
	Fanout []fanoutResult `json:"fanout"`
	// Telemetry records the instrumentation overhead row; OverheadFrac is
	// gated absolutely at maxTelemetryOverhead (≤3% ns/query).
	Telemetry []telemetryResult `json:"telemetry"`
	// ApplyRowAffine records the Go kernel against the SIMD body.
	ApplyRowAffine []kernelResult `json:"apply_row_affine"`
}

func main() {
	var (
		scale    = flag.Float64("scale", 0.25, "environment scale in (0,1]")
		docs     = flag.Int("docs", 500, "documents placed (gold + irrelevant pool)")
		alpha    = flag.Float64("alpha", 0.5, "PPR teleport probability")
		tol      = flag.Float64("tol", 1e-6, "convergence tolerance")
		seed     = flag.Uint64("seed", 42, "master seed")
		out      = flag.String("out", "BENCH_diffuse.json", "output path")
		workers  = flag.Int("workers", 4, "parallel engine pool size, pinned (not GOMAXPROCS) so allocs/op are machine-independent for the regression gate")
		baseline = flag.String("baseline", "", "committed snapshot to compare against; exits non-zero on Parallel-row regressions")
		regress  = flag.Float64("max-regress", 0.25, "allowed fractional regression vs -baseline (allocs absolute at the pinned -workers count; ns/op normalized to the async row so the gate transfers across runner hardware)")
	)
	flag.Parse()
	if err := run(*scale, *docs, *alpha, *tol, *seed, *out, *workers, *baseline, *regress); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(scale float64, numDocs int, alpha, tol float64, seed uint64, out string,
	workers int, baseline string, maxRegress float64) error {
	env, err := expt.NewEnvironment(expt.ScaledParams(seed, scale))
	if err != nil {
		return err
	}
	if numDocs > env.MaxPoolDocs() {
		numDocs = env.MaxPoolDocs()
	}
	net := core.NewNetwork(env.Graph, env.Bench.Vocabulary())
	r := randx.Derive(seed, "benchjson")
	pair := env.Bench.SamplePair(r)
	docs := append([]retrieval.DocID{pair.Gold}, env.Bench.SamplePool(r, numDocs-1)...)
	if err := net.PlaceDocuments(docs, core.UniformHosts(r, len(docs), env.Graph.NumNodes())); err != nil {
		return err
	}
	if err := net.ComputePersonalization(); err != nil {
		return err
	}
	e0 := net.PersonalizationMatrix()
	tr := net.Transition()
	if workers <= 0 {
		workers = 4
	}
	params := diffuse.Params{Alpha: alpha, Tol: tol, Workers: workers}

	snap := snapshot{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Nodes:      env.Graph.NumNodes(),
		Edges:      env.Graph.NumEdges(),
		Docs:       numDocs,
		Dim:        e0.Cols(),
		Alpha:      alpha,
		Tol:        tol,
		Seed:       seed,
	}

	type driver struct {
		name string
		fn   func() (diffuse.Stats, error)
	}
	drivers := []driver{
		{"async", func() (diffuse.Stats, error) {
			_, st, err := diffuse.Run(diffuse.EngineAsynchronous, tr, e0, params, seed)
			return st, err
		}},
		{"parallel", func() (diffuse.Stats, error) {
			_, st, err := diffuse.Run(diffuse.EngineParallel, tr, e0, params, seed)
			return st, err
		}},
		{"gs", func() (diffuse.Stats, error) {
			_, st, err := diffuse.Run(diffuse.EngineParallelGS, tr, e0, params, seed)
			return st, err
		}},
	}

	var asyncNs int64
	for _, d := range drivers {
		st, err := d.fn()
		if err != nil {
			return fmt.Errorf("driver %s: %w", d.name, err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := d.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
		er := engineResult{
			Engine:      d.name,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Sweeps:      st.Sweeps,
			Updates:     st.Updates,
			Messages:    st.Messages,
		}
		if d.name == "async" {
			asyncNs = er.NsPerOp
		}
		snap.Engines = append(snap.Engines, er)
	}
	// Cross-speedups need every driver timed first; fill them in one pass.
	for i := range snap.Engines {
		er := &snap.Engines[i]
		if er.NsPerOp <= 0 {
			continue
		}
		er.SpeedupVsAsync = float64(asyncNs) / float64(er.NsPerOp)
		fmt.Printf("%-16s %12d ns/op %10d B/op %8d allocs/op  updates=%d messages=%d speedup_vs_async=%.2fx\n",
			er.Engine, er.NsPerOp, er.BytesPerOp, er.AllocsPerOp, er.Updates, er.Messages, er.SpeedupVsAsync)
	}

	// BenchmarkScoreBatch: the Parallel engine scoring B queries through
	// one multi-column diffusion, vs the sequential baseline of B
	// independent one-query ScoreBatch calls on the synchronous engine
	// (the per-query path).
	queries := make([][]float64, 512)
	for j := range queries {
		queries[j] = env.Bench.Vocabulary().Vector(env.Bench.SamplePair(r).Query)
	}
	single := queries[:1]
	seqReq := core.DiffusionRequest{Engine: diffuse.EngineSync, Alpha: alpha}
	if _, _, err := net.ScoreBatch(single, seqReq); err != nil {
		return err
	}
	seqRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := net.ScoreBatch(single, seqReq); err != nil {
				b.Fatal(err)
			}
		}
	})
	seqNs := seqRes.NsPerOp()
	req := core.DiffusionRequest{Engine: diffuse.EngineParallel, Alpha: alpha, Workers: workers, Seed: seed}
	for _, bw := range []int{1, 8, 64} {
		batch := queries[:bw]
		_, st, err := net.ScoreBatch(batch, req)
		if err != nil {
			return fmt.Errorf("scorebatch B=%d: %w", bw, err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := net.ScoreBatch(batch, req); err != nil {
					b.Fatal(err)
				}
			}
		})
		br := batchResult{
			Batch:            bw,
			NsPerOp:          res.NsPerOp(),
			NsPerQuery:       res.NsPerOp() / int64(bw),
			AllocsPerOp:      res.AllocsPerOp(),
			BytesPerOp:       res.AllocedBytesPerOp(),
			Sweeps:           st.Sweeps,
			MessagesPerQuery: float64(st.Messages) / float64(bw),
		}
		if br.NsPerQuery > 0 {
			br.SpeedupVsSequential = float64(seqNs) / float64(br.NsPerQuery)
		}
		fmt.Printf("scorebatch-%-5d %12d ns/op %12d ns/query %8d allocs/op  msgs/query=%.0f speedup_vs_seq=%.2fx\n",
			bw, br.NsPerOp, br.NsPerQuery, br.AllocsPerOp, br.MessagesPerQuery, br.SpeedupVsSequential)
		snap.ScoreBatch = append(snap.ScoreBatch, br)
	}

	// Wide-batch tiled rows: the Parallel engine diffusing the projected
	// B-query relevance signal (the same x_j[v] = e_qj · E0[v] construction
	// ScoreBatch diffuses) as one tile spanning the batch (ColTile -1) and
	// with the auto column-tile policy, which engages at these widths.
	// Outputs are bit-identical; the rows record the throughput gap at
	// serving batch widths and the B=512 row carries the tiling acceptance
	// bar.
	nodes := env.Graph.NumNodes()
	wideX := vecmath.NewMatrix(nodes, len(queries))
	for u := 0; u < nodes; u++ {
		vecmath.DotColumns(wideX.Row(u), queries, e0.Row(u))
	}
	for _, bw := range []int{256, 512} {
		idx := make([]int, bw)
		for j := range idx {
			idx[j] = j
		}
		sub := vecmath.SelectColumns(wideX, idx)
		var perQuery [2]int64
		var sweeps int
		for i, ct := range []int{-1, 0} {
			p := params
			p.ColTile = ct
			_, st, err := diffuse.RunSignal(diffuse.EngineParallel, tr, diffuse.NewSignal(sub), p, seed)
			if err != nil {
				return fmt.Errorf("batch_wide B=%d coltile=%d: %w", bw, ct, err)
			}
			sweeps = st.Sweeps // identical on both sides by the tiling contract
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := diffuse.RunSignal(diffuse.EngineParallel, tr, diffuse.NewSignal(sub), p, seed); err != nil {
						b.Fatal(err)
					}
				}
			})
			perQuery[i] = res.NsPerOp() / int64(bw)
		}
		wr := batchWideResult{
			Batch:             bw,
			Engine:            "parallel",
			TileWidth:         diffuse.AutoTileWidth(nodes, bw),
			UntiledNsPerQuery: perQuery[0],
			TiledNsPerQuery:   perQuery[1],
			Sweeps:            sweeps,
		}
		if wr.TiledNsPerQuery > 0 {
			wr.Speedup = float64(wr.UntiledNsPerQuery) / float64(wr.TiledNsPerQuery)
		}
		fmt.Printf("batchwide-%-4d %12d ns/query untiled %8d ns/query tiled (T=%d, speedup %.2fx)\n",
			wr.Batch, wr.UntiledNsPerQuery, wr.TiledNsPerQuery, wr.TileWidth, wr.Speedup)
		snap.BatchWide = append(snap.BatchWide, wr)
	}

	// GS row: the multi-color Gauss–Seidel engine against the Parallel
	// engine's block-Jacobi rounds on the snapshot's embedding diffusion at
	// the snapshot tolerance. The sweep-count ratio is schedule-structural
	// (GS reads fresher values across color-class barriers), so it
	// transfers across hardware; the correctness half compares GS and
	// Synchronous at a tight tolerance, where both are within 1e-10 of the
	// joint fixed point.
	{
		_, gsSt, err := diffuse.Run(diffuse.EngineParallelGS, tr, e0, params, seed)
		if err != nil {
			return fmt.Errorf("gs: %w", err)
		}
		_, parSt, err := diffuse.Run(diffuse.EngineParallel, tr, e0, params, seed)
		if err != nil {
			return fmt.Errorf("gs parallel reference: %w", err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := diffuse.Run(diffuse.EngineParallelGS, tr, e0, params, seed); err != nil {
					b.Fatal(err)
				}
			}
		})
		tight := params
		tight.Tol = 1e-10
		gsM, _, err := diffuse.Run(diffuse.EngineParallelGS, tr, e0, tight, seed)
		if err != nil {
			return fmt.Errorf("gs tight: %w", err)
		}
		syncM, _, err := diffuse.Run(diffuse.EngineSync, tr, e0, tight, seed)
		if err != nil {
			return fmt.Errorf("gs sync reference: %w", err)
		}
		var maxErr float64
		for u := 0; u < nodes; u++ {
			gr, sr := gsM.Row(u), syncM.Row(u)
			for j := range gr {
				if d := gr[j] - sr[j]; d > maxErr {
					maxErr = d
				} else if -d > maxErr {
					maxErr = -d
				}
			}
		}
		gr := gsResult{
			Sweeps:         gsSt.Sweeps,
			ParallelRounds: parSt.Sweeps,
			Colors:         tr.Coloring().NumColors(),
			NsPerOp:        res.NsPerOp(),
			MaxErrVsSync:   maxErr,
		}
		if parSt.Sweeps > 0 {
			gr.SweepRatio = float64(gsSt.Sweeps) / float64(parSt.Sweeps)
		}
		fmt.Printf("gs              %12d ns/op  sweeps=%d vs parallel rounds=%d (ratio %.2f) colors=%d err_vs_sync=%.1e\n",
			gr.NsPerOp, gr.Sweeps, gr.ParallelRounds, gr.SweepRatio, gr.Colors, gr.MaxErrVsSync)
		snap.GS = append(snap.GS, gr)
	}

	// Telemetry overhead: the B=8 ScoreBatch bare vs with the sweep
	// observer feeding a live registry. Three interleaved rounds, min on
	// each side, so a clock-speed drift mid-measurement cannot charge the
	// instrumented side for machine noise.
	treg := telemetry.New()
	instReq := req
	instReq.Observer = telemetry.NewDiffusionMetrics(treg)
	batch8 := queries[:8]
	measure := func(r core.DiffusionRequest) int64 {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := net.ScoreBatch(batch8, r); err != nil {
					b.Fatal(err)
				}
			}
		}).NsPerOp()
	}
	telem := telemetryResult{Batch: 8}
	for i := 0; i < 3; i++ {
		if ns := measure(req); telem.BaseNsPerQuery == 0 || ns < telem.BaseNsPerQuery {
			telem.BaseNsPerQuery = ns
		}
		if ns := measure(instReq); telem.InstrNsPerQuery == 0 || ns < telem.InstrNsPerQuery {
			telem.InstrNsPerQuery = ns
		}
	}
	telem.BaseNsPerQuery /= int64(telem.Batch)
	telem.InstrNsPerQuery /= int64(telem.Batch)
	telem.OverheadFrac = float64(telem.InstrNsPerQuery-telem.BaseNsPerQuery) /
		float64(telem.BaseNsPerQuery)
	fmt.Printf("telemetry-%-5d %12d ns/query bare %8d ns/query instrumented  overhead=%+.2f%%\n",
		telem.Batch, telem.BaseNsPerQuery, telem.InstrNsPerQuery, 100*telem.OverheadFrac)
	snap.Telemetry = append(snap.Telemetry, telem)

	// ApplyRowAffine bodies: one full pass over every CSR row at each
	// serving batch width, for the portable Go kernel and the SIMD body.
	for _, bw := range []int{1, 8, 64} {
		src := vecmath.NewMatrix(env.Graph.NumNodes(), bw)
		for u := 0; u < env.Graph.NumNodes(); u++ {
			row := src.Row(u)
			for j := range row {
				row[j] = r.Float64()
			}
		}
		e0row := make([]float64, bw)
		dst := make([]float64, bw)
		for _, k := range tr.AffineKernels() {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for u := 0; u < env.Graph.NumNodes(); u++ {
						k.Apply(dst, u, 1-alpha, src, alpha, e0row)
					}
				}
			})
			kr := kernelResult{Kernel: k.Name, Batch: bw, NsPerOp: res.NsPerOp()}
			fmt.Printf("affine-%s-%-4d %12d ns/op (full CSR pass)\n", k.Name, bw, kr.NsPerOp)
			snap.ApplyRowAffine = append(snap.ApplyRowAffine, kr)
		}
	}

	// Serve rows: the admission-controlled coalescing scheduler under
	// closed-loop load, against the per-query (B=1) path on the identical
	// workload. Distinct is sized above the smaller levels' demand so the
	// speedup at low concurrency is batching-only, while the 64-client
	// level also exercises the LRU cache through repeats.
	serveRows, err := expt.ServeLoadSweep(env, expt.ServeConfig{
		M: numDocs, Alpha: alpha, Tol: tol, Workers: workers, Seed: seed,
		Clients: []int{1, 8, 64}, QueriesPerClient: 12, Distinct: 512,
	})
	if err != nil {
		return fmt.Errorf("serve sweep: %w", err)
	}
	for i := 0; i+1 < len(serveRows); i += 2 {
		direct, sched := serveRows[i], serveRows[i+1]
		sr := serveResult{
			Clients:        sched.Clients,
			QPS:            sched.QPS,
			PerQueryQPS:    direct.QPS,
			P50Ns:          sched.P50.Nanoseconds(),
			P99Ns:          sched.P99.Nanoseconds(),
			PerQueryP99Ns:  direct.P99.Nanoseconds(),
			MeanBatch:      sched.MeanBatch,
			CacheHitRate:   sched.CacheHitRate,
			SweepsPerQuery: sched.SweepsPerQuery,
		}
		if direct.QPS > 0 {
			sr.SpeedupVsPerQuery = sched.QPS / direct.QPS
		}
		fmt.Printf("serve-%-5d %10.0f qps (per-query %.0f, speedup %.2fx) p99=%dms mean_batch=%.1f cache_hit=%.2f\n",
			sr.Clients, sr.QPS, sr.PerQueryQPS, sr.SpeedupVsPerQuery,
			sr.P99Ns/1e6, sr.MeanBatch, sr.CacheHitRate)
		snap.Serve = append(snap.Serve, sr)
	}

	// Shard rows: T tenant graphs diffusing concurrently over 4-way
	// partitioned shards on one shared pool, vs the single-CSR status quo.
	// The tenants≥4 serve speedups are the ISSUE-4 acceptance numbers.
	shardRows, err := expt.ShardSweep(env, expt.ShardConfig{
		M: numDocs, Alpha: alpha, Tol: tol, Workers: workers, Seed: seed,
		Shards: []int{4}, Tenants: []int{1, 4, 8},
		Batch: 32, Clients: 8, QueriesPerClient: 12,
	})
	if err != nil {
		return fmt.Errorf("shard sweep: %w", err)
	}
	for _, row := range shardRows {
		sr := shardResult{
			Shards:            row.Shards,
			Tenants:           row.Tenants,
			Partitioner:       row.Partitioner,
			SeqNsPerQuery:     row.SeqNsPerQuery,
			ConcNsPerQuery:    row.ConcNsPerQuery,
			EngineSpeedup:     row.EngineSpeedup,
			CrossFrac:         row.CrossFrac,
			PerQueryQPS:       row.PerQueryQPS,
			MultiQPS:          row.MultiQPS,
			SpeedupVsPerQuery: row.ServeSpeedup,
		}
		fmt.Printf("shard-%dx%-5d %10.0f qps (per-query %.0f, speedup %.2fx) engine %.2fx cross=%.1f%%\n",
			sr.Shards, sr.Tenants, sr.MultiQPS, sr.PerQueryQPS, sr.SpeedupVsPerQuery,
			sr.EngineSpeedup, 100*sr.CrossFrac)
		snap.Shard = append(snap.Shard, sr)
	}

	// Priority rows: the identical mixed 90/10 interactive/bulk load
	// through the FIFO coalescer and the priority scheduler. The effect is
	// structural (interactive queries jump queued bulk bursts instead of
	// waiting out ~BulkBurst/MaxBatch dispatches), so the gain ratio is
	// robust across hardware.
	priorityRows, err := expt.PrioritySweep(env, expt.PriorityConfig{
		M: numDocs, Alpha: alpha, Tol: tol, Workers: workers, Seed: seed,
		Clients: []int{10, 20}, QueriesPerClient: 24,
	})
	if err != nil {
		return fmt.Errorf("priority sweep: %w", err)
	}
	// Pair rows by (Clients, Mode) rather than emission order, so a future
	// change to PrioritySweep's row layout cannot silently mispair the
	// ratios feeding the CI acceptance gate.
	fifoRows := make(map[int]expt.PriorityRow, len(priorityRows))
	for _, row := range priorityRows {
		if row.Mode == "fifo" {
			fifoRows[row.Clients] = row
		}
	}
	for _, pri := range priorityRows {
		if pri.Mode != "priority" {
			continue
		}
		fifo, ok := fifoRows[pri.Clients]
		if !ok {
			return fmt.Errorf("priority sweep: no fifo baseline row for clients=%d", pri.Clients)
		}
		pr := priorityResult{
			Clients:          fifo.Clients,
			FifoQPS:          fifo.QPS,
			PriorityQPS:      pri.QPS,
			FifoIntP99Ns:     fifo.IntP99.Nanoseconds(),
			PriorityIntP99Ns: pri.IntP99.Nanoseconds(),
			FifoBulkP99Ns:    fifo.BulkP99.Nanoseconds(),
			PriorityBulkP99N: pri.BulkP99.Nanoseconds(),
			MeanBatchFifo:    fifo.MeanBatch,
			MeanBatchPri:     pri.MeanBatch,
		}
		if fifo.QPS > 0 {
			pr.QPSRatio = pri.QPS / fifo.QPS
		}
		if pri.IntP99 > 0 {
			pr.IntP99Gain = float64(fifo.IntP99) / float64(pri.IntP99)
		}
		fmt.Printf("priority-%-3d int_p99 %dms→%dms (gain %.2fx) qps %.0f→%.0f (ratio %.2f)\n",
			pr.Clients, pr.FifoIntP99Ns/1e6, pr.PriorityIntP99Ns/1e6, pr.IntP99Gain,
			pr.FifoQPS, pr.PriorityQPS, pr.QPSRatio)
		snap.Priority = append(snap.Priority, pr)
	}

	// Walk-index rows: the segment store vs the cold CSR per-query path at
	// a partial and a full budget. The full-budget speedup is the ISSUE-6
	// acceptance number (warm ≤ 0.25× cold).
	wiRows, err := expt.WalkIndexSweep(env, expt.WalkIndexConfig{
		M: numDocs, Alpha: alpha, Tol: tol, Workers: workers, Seed: seed,
		BudgetFracs: []float64{0.25, 1},
	})
	if err != nil {
		return fmt.Errorf("walkindex sweep: %w", err)
	}
	for _, row := range wiRows {
		wr := walkIndexResult{
			BudgetFrac:     row.BudgetFrac,
			BudgetBytes:    row.BudgetBytes,
			StoreBytes:     row.StoreBytes,
			BytesPerNode:   row.BytesPerNode,
			Coverage:       row.Coverage,
			BuildNs:        row.BuildNs,
			ColdNsPerQuery: row.ColdNsPerQuery,
			WarmNsPerQuery: row.WarmNsPerQuery,
			Speedup:        row.Speedup,
			MaxErrVsCSR:    row.MaxErr,
		}
		fmt.Printf("walkindex-%.2f %10d ns/query warm (cold %d, speedup %.2fx) coverage=%.2f %.0f B/node build=%dms err=%.1e\n",
			wr.BudgetFrac, wr.WarmNsPerQuery, wr.ColdNsPerQuery, wr.Speedup,
			wr.Coverage, wr.BytesPerNode, wr.BuildNs/1e6, wr.MaxErrVsCSR)
		snap.WalkIndex = append(snap.WalkIndex, wr)
	}

	// Topk rows: the bidirectional certified ranked path vs the
	// full-vector ScoreBatch baseline on the CSR backend. The k=10
	// speedup is the ISSUE-7 acceptance number, and agreement must be
	// exactly 1.0 on every row (the path is exact, certificate or not).
	topkRows, err := expt.TopKSweep(env, expt.TopKConfig{
		M: numDocs, Alpha: alpha, Tol: tol, Workers: workers, Seed: seed,
		Engines: []diffuse.Engine{diffuse.EngineParallel},
		Ks:      []int{1, 10, 25},
	})
	if err != nil {
		return fmt.Errorf("topk sweep: %w", err)
	}
	for _, row := range topkRows {
		tr := topKResult{
			K:              row.K,
			FullNsPerQuery: row.FullNsPerQuery,
			TopKNsPerQuery: row.TopKNsPerQuery,
			Speedup:        row.Speedup,
			FullMsgsPerQ:   row.FullMsgsPerQ,
			TopKMsgsPerQ:   row.TopKMsgsPerQ,
			Certified:      row.Certified,
			Agreement:      row.Agreement,
		}
		fmt.Printf("topk-%-5d %12d ns/query (full %d, speedup %.2fx) certified=%.2f agree=%.2f msgs/q %.0f vs %.0f\n",
			tr.K, tr.TopKNsPerQuery, tr.FullNsPerQuery, tr.Speedup,
			tr.Certified, tr.Agreement, tr.TopKMsgsPerQ, tr.FullMsgsPerQ)
		snap.TopK = append(snap.TopK, tr)
	}

	// Fanout rows: the bloom-routed walk vs the unrouted greedy walk on the
	// deterministic protocol harness (counts, not timings — bit-reproducible
	// in the seed). The bits=1024 row carries the ISSUE-10 acceptance
	// numbers: messages/query ≤ 0.7× unrouted with recall ratio ≥ 1.0.
	fanoutRows, err := expt.FanoutSweep(env, expt.FanoutConfig{
		M: numDocs, Alpha: alpha, Seed: seed,
		BitsGrid: []int{256, 1024, 4096},
	})
	if err != nil {
		return fmt.Errorf("fanout sweep: %w", err)
	}
	for _, row := range fanoutRows {
		fr := fanoutResult{
			Bits:             row.Bits,
			FilterBytes:      row.FilterBytes,
			GossipRounds:     row.GossipRounds,
			UnroutedMsgsPerQ: row.UnroutedMsgsPerQ,
			RoutedMsgsPerQ:   row.RoutedMsgsPerQ,
			MsgRatio:         row.MsgRatio,
			UnroutedRecall:   row.UnroutedRecall,
			RoutedRecall:     row.RoutedRecall,
			RecallRatio:      row.RecallRatio,
			HitsPerQ:         row.HitsPerQ,
			EarlyStopFrac:    row.EarlyStopFrac,
		}
		fmt.Printf("fanout-%-6d %8.1f msgs/query routed (unrouted %.1f, ratio %.2f) recall %.2f vs %.2f (ratio %.2f) stops=%.2f\n",
			fr.Bits, fr.RoutedMsgsPerQ, fr.UnroutedMsgsPerQ, fr.MsgRatio,
			fr.RoutedRecall, fr.UnroutedRecall, fr.RecallRatio, fr.EarlyStopFrac)
		snap.Fanout = append(snap.Fanout, fr)
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if baseline != "" {
		return checkRegression(baseline, snap, maxRegress)
	}
	return nil
}

// cpuModel reports the recording machine's CPU model string (linux
// /proc/cpuinfo), or "" where unavailable. Informational only — the
// regression gate never keys on it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(rest, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// checkRegression gates the Parallel-engine rows of a fresh snapshot
// against a committed baseline (the ROADMAP perf-tracking item). Allocs
// are compared absolutely — machine-independent because both snapshots
// must use the same pinned worker count. Wall-clock is compared two ways:
// through ratios (the parallel engine's speed relative to the async
// reference, ScoreBatch's amortization relative to sequential scoring),
// which transfer across runner hardware only loosely (more cores
// naturally raise both ratios, so they catch gross regressions, not
// subtle ones); and absolutely via ns/op whenever the baseline was
// recorded on matching goos/goarch/gomaxprocs — regenerate the committed
// baseline on CI-like hardware to arm the tight check.
func checkRegression(baselinePath string, fresh snapshot, maxRegress float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	// Workers is part of the configuration: Parallel-engine allocs/op scale
	// with the pool size, so absolute alloc comparisons are only meaningful
	// at the same pinned worker count (results are deterministic across
	// worker counts, so pinning is free).
	if base.Nodes != fresh.Nodes || base.Docs != fresh.Docs || base.Alpha != fresh.Alpha ||
		base.Tol != fresh.Tol || base.Workers != fresh.Workers || base.Seed != fresh.Seed {
		return fmt.Errorf("baseline %s measured a different configuration (nodes=%d docs=%d alpha=%g tol=%g workers=%d seed=%d, fresh nodes=%d docs=%d alpha=%g tol=%g workers=%d seed=%d)",
			baselinePath, base.Nodes, base.Docs, base.Alpha, base.Tol, base.Workers, base.Seed,
			fresh.Nodes, fresh.Docs, fresh.Alpha, fresh.Tol, fresh.Workers, fresh.Seed)
	}
	sameHardware := base.GOOS == fresh.GOOS && base.GOARCH == fresh.GOARCH && base.GOMAXPROCS == fresh.GOMAXPROCS
	var problems []string
	baseEngines := make(map[string]engineResult, len(base.Engines))
	for _, er := range base.Engines {
		baseEngines[er.Engine] = er
	}
	for _, er := range fresh.Engines {
		if er.Engine != "parallel" {
			continue
		}
		b, ok := baseEngines[er.Engine]
		if !ok {
			continue
		}
		if b.AllocsPerOp > 0 && float64(er.AllocsPerOp) > float64(b.AllocsPerOp)*(1+maxRegress) {
			problems = append(problems, fmt.Sprintf("engine %s: allocs/op %d vs baseline %d", er.Engine, er.AllocsPerOp, b.AllocsPerOp))
		}
		if b.SpeedupVsAsync > 0 && er.SpeedupVsAsync < b.SpeedupVsAsync*(1-maxRegress) {
			problems = append(problems, fmt.Sprintf("engine %s: speedup vs async %.2fx vs baseline %.2fx (ns/op regression)",
				er.Engine, er.SpeedupVsAsync, b.SpeedupVsAsync))
		}
		if sameHardware && b.NsPerOp > 0 && float64(er.NsPerOp) > float64(b.NsPerOp)*(1+maxRegress) {
			problems = append(problems, fmt.Sprintf("engine %s: %d ns/op vs baseline %d (same hardware)",
				er.Engine, er.NsPerOp, b.NsPerOp))
		}
	}
	baseBatch := make(map[int]batchResult, len(base.ScoreBatch))
	for _, br := range base.ScoreBatch {
		baseBatch[br.Batch] = br
	}
	for _, br := range fresh.ScoreBatch {
		b, ok := baseBatch[br.Batch]
		if !ok {
			continue
		}
		if b.AllocsPerOp > 0 && float64(br.AllocsPerOp) > float64(b.AllocsPerOp)*(1+maxRegress) {
			problems = append(problems, fmt.Sprintf("scorebatch B=%d: allocs/op %d vs baseline %d", br.Batch, br.AllocsPerOp, b.AllocsPerOp))
		}
		if b.SpeedupVsSequential > 0 && br.SpeedupVsSequential < b.SpeedupVsSequential*(1-maxRegress) {
			problems = append(problems, fmt.Sprintf("scorebatch B=%d: speedup vs sequential %.2fx vs baseline %.2fx (ns/query regression)",
				br.Batch, br.SpeedupVsSequential, b.SpeedupVsSequential))
		}
		if sameHardware && b.NsPerQuery > 0 && float64(br.NsPerQuery) > float64(b.NsPerQuery)*(1+maxRegress) {
			problems = append(problems, fmt.Sprintf("scorebatch B=%d: %d ns/query vs baseline %d (same hardware)",
				br.Batch, br.NsPerQuery, b.NsPerQuery))
		}
	}
	// Wide-batch rows carry an absolute bar on top of the regression
	// comparison: at B=512 the auto-tiled path must beat the legacy
	// untiled path by ≥1.3× ns/query — a within-run ratio (both sides
	// measured back-to-back on identical inputs producing bit-identical
	// outputs), so the bar transfers across hardware. Rows absent from the
	// baseline (first snapshot after tiling landed) still face the
	// absolute bar.
	const (
		wideAcceptanceB     = 512
		minWideTiledSpeedup = 1.3
	)
	baseWide := make(map[int]batchWideResult, len(base.BatchWide))
	for _, wr := range base.BatchWide {
		baseWide[wr.Batch] = wr
	}
	for _, wr := range fresh.BatchWide {
		if wr.Batch == wideAcceptanceB && wr.Speedup < minWideTiledSpeedup {
			problems = append(problems, fmt.Sprintf("batch_wide B=%d: tiled speedup %.2fx vs untiled, want ≥ %.1fx",
				wr.Batch, wr.Speedup, minWideTiledSpeedup))
		}
		if b, ok := baseWide[wr.Batch]; ok && b.Speedup > 0 && wr.Speedup < b.Speedup*(1-maxRegress) {
			problems = append(problems, fmt.Sprintf("batch_wide B=%d: tiled speedup %.2fx vs baseline %.2fx",
				wr.Batch, wr.Speedup, b.Speedup))
		}
	}
	// The GS row carries two absolute bars: the multi-color schedule must
	// realize Gauss–Seidel's convergence advantage (sweeps ≤ 0.8× the
	// Parallel engine's block-Jacobi rounds at the same tolerance — a
	// structural property of the schedules, hardware-independent), and its
	// tight-tolerance scores must agree with the Synchronous reference to
	// 1e-9 (the determinism/correctness half of the contract).
	const (
		maxGSSweepRatio = 0.8
		maxGSErrVsSync  = 1e-9
	)
	for _, gr := range fresh.GS {
		if gr.SweepRatio > maxGSSweepRatio {
			problems = append(problems, fmt.Sprintf("gs: %d sweeps vs %d parallel rounds (ratio %.2f), want ≤ %.1f",
				gr.Sweeps, gr.ParallelRounds, gr.SweepRatio, maxGSSweepRatio))
		}
		if gr.MaxErrVsSync > maxGSErrVsSync {
			problems = append(problems, fmt.Sprintf("gs: max score error %.1e vs the Synchronous reference, want ≤ %.0e",
				gr.MaxErrVsSync, maxGSErrVsSync))
		}
	}
	// Serve rows gate on the coalescing speedup over the per-query path
	// only: it is a within-run ratio (both sides measured back-to-back on
	// the same machine) and stable across runs, whereas the recorded p99
	// is the tail of ~10² closed-loop samples — run-to-run noise exceeds
	// any sensible gate even on identical hardware, so latency quantiles
	// are informational. Rows absent from the baseline (first snapshot
	// after the scheduler landed) are skipped.
	baseServe := make(map[int]serveResult, len(base.Serve))
	for _, sr := range base.Serve {
		baseServe[sr.Clients] = sr
	}
	for _, sr := range fresh.Serve {
		b, ok := baseServe[sr.Clients]
		if !ok {
			continue
		}
		if b.SpeedupVsPerQuery > 0 && sr.SpeedupVsPerQuery < b.SpeedupVsPerQuery*(1-maxRegress) {
			problems = append(problems, fmt.Sprintf("serve clients=%d: speedup vs per-query %.2fx vs baseline %.2fx",
				sr.Clients, sr.SpeedupVsPerQuery, b.SpeedupVsPerQuery))
		}
	}
	// Shard rows gate like serve rows: on the within-run speedup of the
	// multi-tenant path over the per-query single-CSR path (both sides
	// measured back-to-back on the same machine, so the ratio transfers
	// across hardware), not on absolute QPS or the engine overlap ratio
	// (which legitimately tracks the runner's core count). Rows absent from
	// the baseline (first snapshot after sharding landed) are skipped.
	type shardKey struct {
		shards, tenants int
		partitioner     string
	}
	baseShard := make(map[shardKey]shardResult, len(base.Shard))
	for _, sr := range base.Shard {
		baseShard[shardKey{sr.Shards, sr.Tenants, sr.Partitioner}] = sr
	}
	for _, sr := range fresh.Shard {
		b, ok := baseShard[shardKey{sr.Shards, sr.Tenants, sr.Partitioner}]
		if !ok {
			continue
		}
		if b.SpeedupVsPerQuery > 0 && sr.SpeedupVsPerQuery < b.SpeedupVsPerQuery*(1-maxRegress) {
			problems = append(problems, fmt.Sprintf("shard %dx%d: speedup vs per-query %.2fx vs baseline %.2fx",
				sr.Shards, sr.Tenants, sr.SpeedupVsPerQuery, b.SpeedupVsPerQuery))
		}
	}
	// Priority rows carry an absolute acceptance bar on top of the
	// usual regression comparison: the priority scheduler must beat the
	// FIFO coalescer's interactive p99 by ≥1.5× under the mixed load
	// while keeping total QPS within 10% — both within-run ratios (FIFO
	// and priority measured back-to-back on the same machine), so the bar
	// transfers across hardware. Rows absent from the baseline (first
	// snapshot after priority scheduling landed) still face the absolute
	// bar.
	const (
		minIntP99Gain = 1.5
		minQPSRatio   = 0.9
	)
	basePriority := make(map[int]priorityResult, len(base.Priority))
	for _, pr := range base.Priority {
		basePriority[pr.Clients] = pr
	}
	for _, pr := range fresh.Priority {
		if pr.IntP99Gain < minIntP99Gain {
			problems = append(problems, fmt.Sprintf("priority clients=%d: interactive p99 gain %.2fx vs FIFO, want ≥ %.1fx",
				pr.Clients, pr.IntP99Gain, minIntP99Gain))
		}
		if pr.QPSRatio < minQPSRatio {
			problems = append(problems, fmt.Sprintf("priority clients=%d: QPS ratio %.2f vs FIFO, want ≥ %.1f",
				pr.Clients, pr.QPSRatio, minQPSRatio))
		}
		if b, ok := basePriority[pr.Clients]; ok && b.IntP99Gain > 0 &&
			pr.IntP99Gain < b.IntP99Gain*(1-maxRegress) {
			problems = append(problems, fmt.Sprintf("priority clients=%d: interactive p99 gain %.2fx vs baseline %.2fx",
				pr.Clients, pr.IntP99Gain, b.IntP99Gain))
		}
	}
	// Walk-index rows carry two absolute bars on top of the regression
	// comparison: the full-coverage row's warm-vs-cold speedup must reach
	// 4× (warm ≤ 0.25× cold — a within-run ratio, both sides measured
	// back-to-back, so it transfers across hardware), and every row's
	// error vs the exact CSR backend must stay within the snapshot's
	// request tolerance (the correctness half of the contract: budgets cost
	// speed, never accuracy). Rows absent from the baseline (first
	// snapshot after the index landed) still face the absolute bars.
	const minWalkIndexSpeedup = 4.0
	baseWalk := make(map[float64]walkIndexResult, len(base.WalkIndex))
	for _, wr := range base.WalkIndex {
		baseWalk[wr.BudgetFrac] = wr
	}
	for _, wr := range fresh.WalkIndex {
		if wr.Coverage >= 1 && wr.Speedup < minWalkIndexSpeedup {
			problems = append(problems, fmt.Sprintf("walkindex frac=%.2f: warm speedup %.2fx vs cold, want ≥ %.1fx at full coverage",
				wr.BudgetFrac, wr.Speedup, minWalkIndexSpeedup))
		}
		if fresh.Tol > 0 && wr.MaxErrVsCSR > fresh.Tol {
			problems = append(problems, fmt.Sprintf("walkindex frac=%.2f: max error %.1e vs CSR beyond tol %.1e",
				wr.BudgetFrac, wr.MaxErrVsCSR, fresh.Tol))
		}
		if b, ok := baseWalk[wr.BudgetFrac]; ok && b.Speedup > 0 &&
			wr.Coverage >= 1 && wr.Speedup < b.Speedup*(1-maxRegress) {
			problems = append(problems, fmt.Sprintf("walkindex frac=%.2f: warm speedup %.2fx vs baseline %.2fx",
				wr.BudgetFrac, wr.Speedup, b.Speedup))
		}
	}
	// Topk rows carry two absolute bars on top of the regression
	// comparison: agreement with the exact full-vector top-k must be 1.0
	// on every row (the ranked contract — certified early stop or
	// full-convergence fallback, never an approximation), and the k=10
	// row's certified path must run ≥2× faster per query than the
	// full-vector baseline (a within-run ratio, both sides measured
	// back-to-back, so it transfers across hardware). Rows absent from
	// the baseline (first snapshot after the ranked path landed) still
	// face the absolute bars.
	const (
		topKAcceptanceK  = 10
		minTopKSpeedup   = 2.0
		minTopKAgreement = 1.0
	)
	baseTopK := make(map[int]topKResult, len(base.TopK))
	for _, tr := range base.TopK {
		baseTopK[tr.K] = tr
	}
	for _, tr := range fresh.TopK {
		if tr.Agreement < minTopKAgreement {
			problems = append(problems, fmt.Sprintf("topk k=%d: agreement %.3f with the full-vector top-k, want exactly 1.0",
				tr.K, tr.Agreement))
		}
		if tr.K == topKAcceptanceK && tr.Speedup < minTopKSpeedup {
			problems = append(problems, fmt.Sprintf("topk k=%d: speedup %.2fx vs full-vector ScoreBatch, want ≥ %.1fx",
				tr.K, tr.Speedup, minTopKSpeedup))
		}
		if b, ok := baseTopK[tr.K]; ok && b.Speedup > 0 && tr.Speedup < b.Speedup*(1-maxRegress) {
			problems = append(problems, fmt.Sprintf("topk k=%d: speedup %.2fx vs baseline %.2fx",
				tr.K, tr.Speedup, b.Speedup))
		}
	}
	// Fanout rows carry two absolute bars on top of the regression
	// comparison: at the deployment default filter size the routed walk must
	// spend ≤0.7× the unrouted walk's messages/query, and it must find the
	// gold document at least as often (recall ratio ≥ 1.0). Both sides are
	// counted in one deterministic simulation, so the bars hold bit-exactly
	// on any hardware. The regression half compares the message reduction
	// (1 − ratio) against the committed row so the routed walk cannot
	// quietly give back the savings. Rows absent from the baseline (first
	// snapshot after routing landed) still face the absolute bars.
	baseFanout := make(map[int]fanoutResult, len(base.Fanout))
	for _, fr := range base.Fanout {
		baseFanout[fr.Bits] = fr
	}
	for _, fr := range fresh.Fanout {
		if fr.Bits == fanoutAcceptanceBits {
			if fr.MsgRatio > maxFanoutMsgRatio {
				problems = append(problems, fmt.Sprintf("fanout bits=%d: routed messages/query ratio %.2f vs unrouted, want ≤ %.1f",
					fr.Bits, fr.MsgRatio, maxFanoutMsgRatio))
			}
			if fr.RecallRatio < minFanoutRecallRatio {
				problems = append(problems, fmt.Sprintf("fanout bits=%d: recall ratio %.2f vs unrouted, want ≥ %.1f",
					fr.Bits, fr.RecallRatio, minFanoutRecallRatio))
			}
		}
		if b, ok := baseFanout[fr.Bits]; ok {
			baseSaved, saved := 1-b.MsgRatio, 1-fr.MsgRatio
			if baseSaved > 0 && saved < baseSaved*(1-maxRegress) {
				problems = append(problems, fmt.Sprintf("fanout bits=%d: message reduction %.0f%% vs baseline %.0f%%",
					fr.Bits, 100*saved, 100*baseSaved))
			}
			if b.RecallRatio > 0 && fr.RecallRatio < b.RecallRatio*(1-maxRegress) {
				problems = append(problems, fmt.Sprintf("fanout bits=%d: recall ratio %.2f vs baseline %.2f",
					fr.Bits, fr.RecallRatio, b.RecallRatio))
			}
		}
	}
	// The telemetry row's bar is purely absolute: overhead is a within-run
	// ratio (bare and instrumented ScoreBatch measured interleaved), so no
	// baseline row is consulted and the bar holds on any hardware.
	for _, tr := range fresh.Telemetry {
		if tr.OverheadFrac > maxTelemetryOverhead {
			problems = append(problems, fmt.Sprintf("telemetry B=%d: instrumentation overhead %.1f%% ns/query, want ≤ %.0f%%",
				tr.Batch, 100*tr.OverheadFrac, 100*maxTelemetryOverhead))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("gated benchmark rows (parallel engine / scorebatch / batch_wide / gs / serve / shard / priority / walkindex / topk / fanout / telemetry) regressed beyond %.0f%% of %s:\n  %s",
			maxRegress*100, baselinePath, strings.Join(problems, "\n  "))
	}
	mode := "ratio checks only — baseline hardware differs"
	if sameHardware {
		mode = "ratio + absolute ns checks"
	}
	fmt.Printf("regression gate passed against %s (max allowed %.0f%%, %s)\n", baselinePath, maxRegress*100, mode)
	return nil
}
