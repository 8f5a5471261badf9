// Command searchbench is the end-to-end search benchmark. It prices the
// three points this repository ships on the offline-index versus per-query
// trade of PPR search, on identical traffic:
//
//   - mirror: peerd's request API — one whole-graph relevance diffusion per
//     search through serve.Scheduler, then a greedy walk over the scores;
//   - embed: the paper's §IV-B scheme — Network.Run re-diffuses the
//     embeddings per move batch, each search is one greedy walk;
//   - gossip: peernet.SimNetwork, the deterministic replica of the live
//     protocol — bootstrap gossip, bloom-routed walks, re-gossip per batch.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash searchbench/run.sh --workload mirror --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 prints the end-to-end
// metrics; --trace 1 records spans around every layer call, writes them
// under traceDir, and prints the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// traceDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in (the launcher's build directory).
const traceDir = ".bench_build/traces"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("searchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "mirror, embed or gossip")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 25, "measured seconds (whole epochs; at least two)")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "searchbench: --trace must be 0 or 1, have %d\n", *trace)
		return 2
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	if _, err := newSystem(*workload, nil); err != nil {
		fmt.Fprintf(stderr, "searchbench: %v\n", err)
		return 2
	}
	start := time.Now()
	in, err := generateInputs(*seed)
	if err != nil {
		fmt.Fprintf(stderr, "searchbench: %v\n", err)
		return 1
	}
	rep, err := runBench(*workload, in, time.Since(start).Seconds(), *seconds, tr)
	if err != nil {
		fmt.Fprintf(stderr, "searchbench: %v\n", err)
		return 1
	}
	if tr != nil {
		path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err != nil {
			fmt.Fprintf(stderr, "searchbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "searchbench: %d spans written to %s\n", len(tr.spans), path)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, m := range rep.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
		fmt.Fprintf(stderr, "  %-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "searchbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}
