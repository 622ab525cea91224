package main

import (
	"fmt"

	"repro/internal/synth"
)

// phase is everything a traced run gathers about its timed phase: counter
// snapshots around it, what the samplers saw during it, and the replay of
// its inputs afterwards.
type phase struct {
	before, after snapshot
	ops           int // completed operations: requests served, or samples offline
	samples       int // Pass@k samples the phase evaluated
	qdepthMax     float64
	heapPeakMB    float64
	dirty         *dirtyNodes
	ckpt          *synth.CheckpointStats // offline: summed over the sweeps' stores; nil = read /metrics
	lt            layerTimes
	// e2eMS and layerMS pair, per replayed operation, the cost the timed
	// phase measured (served time from connection to reply, or CPU per
	// sweep offline) with the replayed layer-time sum for the same input.
	e2eMS, layerMS []float64
}

// addLayerRows derives the per-layer metrics: counts and ratios from the
// counter deltas over the timed phase (each ratio with its base count),
// timings from the replay.
func addLayerRows(rep *report, p *phase) {
	b, a := p.before, p.after
	d := func(name string) int64 { return int64(promDelta(b, a, name)) }
	add := func(name, unit string, v float64, note string) { rep.add(kindLayer, name, unit, v, note) }
	elapsed := a.at.Sub(b.at).Seconds()

	reqs := d("chatlsd_requests_total")
	add("server.requests", "count", float64(reqs), "customize requests in the timed phase")
	add("server.coalesced_frac", "ratio", frac(d("chatlsd_singleflight_shared_total"), reqs), "singleflight joins / server.requests")
	add("server.shed_frac", "ratio", frac(d("chatlsd_rejected_total"), reqs), "429/503 rejections / server.requests")
	var over []float64
	if reqs > 0 {
		for i := range p.e2eMS {
			over = append(over, p.e2eMS[i]-p.layerMS[i])
		}
	}
	add("server.overhead_ms.p50", "ms", median(over), "served time minus replayed layer sum, per request (0 without a server)")
	add("server.queue_depth.max", "count", p.qdepthMax, "worker-pool queue depth, sampled every 50 ms")

	lookups := d("chatlsd_task_cache_hits_total") + d("chatlsd_task_cache_misses_total")
	add("task.baseline_ms.p50", "ms", median(p.lt.baselineMS), "chatls.NewTaskWith, replayed")
	add("task.cache_hit_frac", "ratio", frac(d("chatlsd_task_cache_hits_total"), lookups), "baseline-task cache hits / task.lookups")
	add("task.lookups", "count", float64(lookups), "baseline-task cache lookups")

	add("verilog.parse_ms.p50", "ms", median(p.lt.parseMS), "verilog.Parse of the design")
	add("elab.link_ms.p50", "ms", median(p.lt.linkMS), "fresh read_verilog/current_design/link run")
	ck := synth.CheckpointStats{Hits: d("synth_checkpoint_hits_total"), Misses: d("synth_checkpoint_misses_total")}
	if p.ckpt != nil {
		ck = *p.ckpt
	}
	add("synth.checkpoint_hit_frac", "ratio", frac(ck.Hits, ck.Hits+ck.Misses), "elaboration checkpoint hits / synth.checkpoint_lookups")
	add("synth.checkpoint_lookups", "count", float64(ck.Hits+ck.Misses), "checkpointable synthesis runs")

	add("mentor.analyze_ms.p50", "ms", median(p.lt.mentorMS), "circuitmentor.AnalyzeContext")
	add("mentor.analyze_ms.p95", "ms", quantile(p.lt.mentorMS, 0.95), fmt.Sprintf("%d calls", len(p.lt.mentorMS)))
	add("mentor.share", "ratio", safeRatio(p.lt.mentorSum, p.lt.sampleSum), "mentor time / replayed sample time")

	eh := a.cache.EmbedHits - b.cache.EmbedHits
	el := eh + a.cache.EmbedMisses - b.cache.EmbedMisses
	add("embed.ms.p50", "ms", median(p.lt.embedMS), "synthrag EmbedDesignContext")
	add("embed.cache_hit_frac", "ratio", frac(eh, el), "embedding cache hits / embed.lookups")
	add("embed.lookups", "count", float64(el), "embedding cache lookups (0 without a cache)")
	flushes := a.batch.Flushes - b.batch.Flushes
	add("batch.flushes", "count", float64(flushes), "embedding batcher flushes")
	add("batch.size.mean", "count", frac(a.batch.Items-b.batch.Items, flushes), "requests per flush")

	rh := a.cache.RetrieveHits - b.cache.RetrieveHits
	rl := rh + a.cache.RetrieveMisses - b.cache.RetrieveMisses
	add("retrieve.us.p50", "us", median(p.lt.retrieveUS), "RetrieveStrategiesForContext")
	add("retrieve.cache_hit_frac", "ratio", frac(rh, rl), "retrieval cache hits / retrieve.lookups")
	add("retrieve.lookups", "count", float64(rl), "retrieval cache lookups (0 without a cache)")
	add("vecindex.hnsw_hops", "count", float64(a.hnswHops-b.hnswHops), "HNSW edge traversals; 0 while corpora stay below the 1024-vector threshold")

	add("generate.ms.p50", "ms", median(p.lt.generateMS), "llm GenerateContext")
	add("generate.prompt_kb.p50", "KiB", median(p.lt.promptKB), "prompt size")
	add("expert.ms.p50", "ms", median(p.lt.expertMS), "synthexpert RefineContext")
	calls := int64(len(p.lt.expertMS))
	add("expert.steps_per_sample", "count", frac(int64(p.lt.steps), calls), fmt.Sprintf("CoT steps over %d refinements", calls))
	add("expert.revised_frac", "ratio", frac(int64(p.lt.revised), calls), "refinements that changed the draft")

	add("synth.run_ms.p50", "ms", median(p.lt.synthMS), "synth Session.RunContext")
	add("synth.run_ms.p95", "ms", quantile(p.lt.synthMS, 0.95), fmt.Sprintf("%d runs", len(p.lt.synthMS)))
	add("synth.share", "ratio", safeRatio(p.lt.synthSum, p.lt.sampleSum), "synthesis time / replayed sample time")
	add("synth.invalid_frac", "ratio", frac(int64(p.lt.bad), int64(p.lt.synthRuns)), "scripts the tool rejected / synth.runs")
	add("synth.runs", "count", float64(p.lt.synthRuns), "replayed synthesis runs")

	smp := int64(p.samples)
	add("sta.full_per_sample", "count", frac(int64(a.staFull-b.staFull), smp), fmt.Sprintf("full analyses over %d samples", smp))
	add("sta.incremental_per_sample", "count", frac(int64(a.staIncr-b.staIncr), smp), "incremental updates per sample")
	add("sta.dirty_nodes.mean", "count", p.dirty.mean(), "nodes recomputed per incremental update")

	qh := a.qor.Hits - b.qor.Hits
	ql := qh + a.qor.Misses - b.qor.Misses
	add("qorlog.hit_frac", "ratio", frac(qh, ql), "QoR store hits / qorlog.lookups")
	add("qorlog.lookups", "count", float64(ql), "QoR store lookups (0 without a store)")
	add("qorlog.get_us.p50", "us", median(p.lt.qorGetUS), "chatls.ResultKey plus Store.Get, replayed")
	add("qorlog.appends_per_s", "1/s", float64(a.qor.Appends-b.qor.Appends)/elapsed, "records appended per second")

	add("runtime.gc_cpu_frac", "ratio", safeRatio(a.gcCPU-b.gcCPU, a.totCPU-b.totCPU), "GC CPU / Go CPU (runtime/metrics)")
	add("runtime.alloc_mb_per_op", "MiB", (a.allocB-b.allocB)/(1<<20)/float64(max(p.ops, 1)), fmt.Sprintf("heap allocation over %d operations", p.ops))
	add("runtime.heap_peak_mb", "MiB", p.heapPeakMB, "live heap, sampled every 50 ms")

	add("replay.samples", "count", float64(p.lt.samples), "samples replayed; each matched the timed phase's script and QoR")
	add("replay.unattributed_frac", "ratio", safeRatio(sum(p.e2eMS)-sum(p.layerMS), sum(p.e2eMS)),
		"end-to-end cost not covered by the replayed layers")
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
