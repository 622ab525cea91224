package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// Metric kinds: end-to-end metrics are printed by --trace 0 runs, per-layer
// metrics by --trace 1 runs; info rows (zero-valued ratios, sample counts,
// validity checks) are shown in the report but not in the result line.
const (
	kindE2E   = "e2e"
	kindLayer = "layer"
	kindInfo  = "info"
)

// e2eMetrics and layerMetrics are the names BENCHMARK.json declares, in its
// order; every run prints all of the set its --trace selects.
var e2eMetrics = []string{
	"setup_s", "latency_p50_ms", "goodput_rps", "samples_per_s",
	"capacity_rps", "cpu_ms_per_op", "peak_rss_mb",
}

var layerMetrics = []string{
	"server.coalesced_frac", "server.shed_frac", "server.requests", "server.overhead_ms.p50", "server.queue_depth.max",
	"task.baseline_ms.p50", "task.cache_hit_frac", "task.lookups",
	"verilog.parse_ms.p50",
	"elab.link_ms.p50", "synth.checkpoint_hit_frac", "synth.checkpoint_lookups",
	"mentor.analyze_ms.p50", "mentor.analyze_ms.p95", "mentor.share",
	"embed.ms.p50", "embed.cache_hit_frac", "embed.lookups", "batch.flushes", "batch.size.mean",
	"retrieve.us.p50", "retrieve.cache_hit_frac", "retrieve.lookups", "vecindex.hnsw_hops",
	"generate.ms.p50", "generate.prompt_kb.p50",
	"expert.ms.p50", "expert.steps_per_sample", "expert.revised_frac",
	"synth.run_ms.p50", "synth.run_ms.p95", "synth.share", "synth.invalid_frac", "synth.runs",
	"sta.full_per_sample", "sta.incremental_per_sample", "sta.dirty_nodes.mean",
	"qorlog.hit_frac", "qorlog.lookups", "qorlog.get_us.p50", "qorlog.appends_per_s",
	"runtime.gc_cpu_frac", "runtime.alloc_mb_per_op", "runtime.heap_peak_mb",
	"replay.samples", "replay.unattributed_frac",
}

type row struct {
	kind, name, unit string
	value            float64
	note             string
}

// report collects one run's rows, prints them for people on stderr, and
// prints the machine-readable result as the last line of stdout.
type report struct {
	workload string
	rows     []row
}

func (r *report) add(kind, name, unit string, v float64, note string) {
	r.rows = append(r.rows, row{kind: kind, name: name, unit: unit, value: v, note: note})
}

func (r *report) write(w io.Writer) {
	fmt.Fprintf(w, "perfbench: workload %s (GOMAXPROCS=%d nproc=%d %s/%s %s)\n",
		r.workload, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
	for _, x := range r.rows {
		fmt.Fprintf(w, "  %-5s %-28s %14.4f %-6s %s\n", x.kind, x.name, x.value, x.unit, x.note)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result builds the result line for the selected metric kind; it fails if
// a declared metric was not measured, so the printed set never drifts from
// BENCHMARK.json.
func (r *report) result(trace bool, correct bool, attempted, failed int) (resultJSON, error) {
	kind, names := kindE2E, e2eMetrics
	if trace {
		kind, names = kindLayer, layerMetrics
	}
	out := resultJSON{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricJSON{}}
	for _, x := range r.rows {
		if x.kind == kind {
			out.Metrics[x.name] = metricJSON{Value: x.value, Unit: x.unit}
		}
	}
	for _, n := range names {
		if _, ok := out.Metrics[n]; !ok {
			return out, fmt.Errorf("metric %s was not measured on %s", n, r.workload)
		}
	}
	if len(out.Metrics) != len(names) {
		return out, fmt.Errorf("%d %s metrics measured, %d declared", len(out.Metrics), kind, len(names))
	}
	return out, nil
}

func printResult(res resultJSON) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", b)
	return err
}
