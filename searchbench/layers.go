package main

// layerInputs are the per-layer figures measured outside the spans.
type layerInputs struct {
	generateS           float64
	searches            int
	allocBytes, pauseNs uint64
}

// layerMetrics derives the per-layer metrics from the traced run's spans.
// A layer the workload does not call reads 0.
func layerMetrics(tr *tracer, li layerInputs) []metric {
	rode := tr.link()
	spans := tr.spans
	byName := make(map[string][]int)
	for i := range spans {
		byName[spans[i].Name] = append(byName[spans[i].Name], i)
	}
	durMs := func(i int) float64 { return float64(spans[i].End-spans[i].Start) / 1e6 }
	medianMs := func(name string) float64 {
		var xs []float64
		for _, i := range byName[name] {
			xs = append(xs, durMs(i))
		}
		return median(xs)
	}
	sum := func(name, count string) float64 {
		s := 0.0
		for _, i := range byName[name] {
			s += spans[i].Counts[count]
		}
		return s
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mean := func(name, count string) float64 { return ratio(sum(name, count), float64(len(byName[name]))) }

	// serve: a submission's wait is its Submit time minus the call it rode.
	var waits []float64
	for sub, call := range rode {
		waits = append(waits, durMs(sub)-durMs(call))
	}
	submits := float64(len(byName[spanSubmit]))
	width := sum(spanScoreBatch, "width")
	callMs := 0.0
	for _, i := range byName[spanScoreBatch] {
		callMs += durMs(i)
	}

	// peernet: rounds that announced, per move batch and at first bootstrap.
	isMove := make(map[int]bool)
	for _, i := range byName[spanMove] {
		isMove[i] = true
	}
	var reindexRounds, reindexAnn, bootRounds float64
	firstSetup := -1
	if s := byName[spanSetup]; len(s) > 0 {
		firstSetup = s[0]
	}
	for _, i := range byName[spanRound] {
		ann := spans[i].Counts["announcements"]
		switch {
		case ann == 0:
		case isMove[spans[i].Parent]:
			reindexRounds++
			reindexAnn += ann
		case spans[i].Parent == firstSetup:
			bootRounds++
		}
	}
	moves := float64(len(byName[spanMove]))

	// The search path: the time each search spends inside layer calls
	// (its duration minus the benchmark's own self time in the root span).
	covered := make(map[int]float64)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && spans[p].Name == spanSearch {
			covered[p] += durMs(i)
		}
	}
	var inLayers []float64
	for _, i := range byName[spanSearch] {
		inLayers = append(inLayers, covered[i])
	}

	return []metric{
		{"serve.wait_ms", "ms", median(waits)},
		{"serve.batch_width", "count", ratio(width, float64(len(byName[spanScoreBatch])))},
		{"serve.cache_hit_rate", "ratio", ratio(submits-float64(len(rode)), submits)},
		{"core.score_batch_ms", "ms", medianMs(spanScoreBatch)},
		{"core.score_ms_per_query", "ms", ratio(callMs, width)},
		{"core.walk_ms", "ms", medianMs(spanWalk)},
		{"core.walk_hops", "count", mean(spanWalk, "hops")},
		{"core.place_ms", "ms", medianMs(spanPlace)},
		{"core.personalize_ms", "ms", medianMs(spanPersonalize)},
		{"core.diffuse_ms", "ms", medianMs(spanDiffuse)},
		{"diffuse.column_sweeps", "count", ratio(sum(spanScoreBatch, "column_sweeps"), width)},
		{"diffuse.messages_per_query", "count", ratio(sum(spanScoreBatch, "messages"), width)},
		{"diffuse.run_sweeps", "count", mean(spanDiffuse, "sweeps")},
		{"diffuse.run_messages", "count", mean(spanDiffuse, "messages")},
		{"peernet.keys_ms", "ms", medianMs(spanKeys)},
		{"peernet.walk_ms", "ms", medianMs(spanSimWalk)},
		{"peernet.filter_hits", "count", mean(spanSimWalk, "filter_hits")},
		{"peernet.early_stop_rate", "ratio", mean(spanSimWalk, "early_stop")},
		{"peernet.round_ms", "ms", medianMs(spanRound)},
		{"peernet.reindex_rounds", "count", ratio(reindexRounds, moves)},
		{"peernet.announcements", "count", ratio(reindexAnn, moves)},
		{"peernet.bootstrap_rounds", "count", bootRounds},
		{"runtime.alloc_kb_per_query", "KiB", ratio(float64(li.allocBytes)/1024, float64(li.searches))},
		{"runtime.gc_pause_ms", "ms", float64(li.pauseNs) / 1e6},
		{"inputs.generate_s", "s", li.generateS},
		{"trace.search_p50_ms", "ms", medianMs(spanSearch)},
		{"trace.in_layers_p50_ms", "ms", median(inLayers)},
	}
}
