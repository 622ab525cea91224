package chatls

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index):
//
//	go test -bench BenchmarkTable2DatabaseBuild   # Table II corpus build
//	go test -bench BenchmarkTable4Baseline        # Table IV baselines
//	go test -bench BenchmarkTable3Comparison      # Table III Pass@5 comparison
//	go test -bench BenchmarkFig5SynthRAG          # Fig. 5 retrieval F1
//	go test -bench BenchmarkAblation              # component ablations
//
// Each benchmark logs the regenerated rows (visible with -v) and reports
// the experiment's headline metric via b.ReportMetric. cmd/experiments
// produces the same tables as standalone output.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/gnn"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synth"
	"repro/internal/synthrag"
)

var (
	benchDBOnce sync.Once
	benchDB     *synthrag.Database
	benchDBErr  error
)

func sharedBenchDB(b *testing.B) *synthrag.Database {
	b.Helper()
	benchDBOnce.Do(func() {
		benchDB, benchDBErr = BuildDatabase(DefaultConfig())
	})
	if benchDBErr != nil {
		b.Fatal(benchDBErr)
	}
	return benchDB
}

// BenchmarkTable2DatabaseBuild measures the SynthRAG database construction:
// graph building, metric learning, and expert-draft synthesis of the
// Table II corpus under the full strategy palette.
func BenchmarkTable2DatabaseBuild(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		db, err := BuildDatabase(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatTable2(Table2(db)))
			b.ReportMetric(float64(len(db.Strategies)), "designs")
		}
	}
}

// BenchmarkTable4Baseline regenerates Table IV: each benchmark synthesized
// with its adapted baseline script.
func BenchmarkTable4Baseline(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows, err := Table4(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatTable4(rows))
			violations := 0
			for _, r := range rows {
				if r.QoR.WNS < 0 {
					violations++
				}
			}
			b.ReportMetric(float64(violations), "violating_designs")
		}
	}
}

// BenchmarkTable3Comparison regenerates Table III: the three pipelines
// customize every benchmark's script at Pass@5.
func BenchmarkTable3Comparison(b *testing.B) {
	db := sharedBenchDB(b)
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows, err := Table3(context.Background(), cfg, db)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatTable3(rows))
			// Headline: on how many designs does ChatLS match-or-beat both
			// raw models on WNS? (Paper: all of them.)
			wins := 0
			for _, r := range rows {
				chatWNS := r.Cells[2].QoR.WNS
				if chatWNS >= r.Cells[0].QoR.WNS && chatWNS >= r.Cells[1].QoR.WNS {
					wins++
				}
			}
			b.ReportMetric(float64(wins), "chatls_wins_or_ties")
		}
	}
}

// BenchmarkFig5SynthRAG regenerates Fig. 5: retrieval F1 over generated SoC
// configurations for SynthRAG and its ablations.
func BenchmarkFig5SynthRAG(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		points, err := Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatFig5(points))
			for _, p := range points {
				if p.Variant == "synthrag" && p.Category == "overall" {
					b.ReportMetric(p.F1, "synthrag_macro_f1")
				}
			}
		}
	}
}

// BenchmarkAblation regenerates the component ablation study.
func BenchmarkAblation(b *testing.B) {
	db := sharedBenchDB(b)
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows, err := Ablations(context.Background(), cfg, db)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatAblations(rows))
		}
	}
}

// BenchmarkRerankSweep regenerates the Eq. 5 rerank-weight ablation.
func BenchmarkRerankSweep(b *testing.B) {
	db := sharedBenchDB(b)
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		points, err := RerankSweep(cfg, db)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatRerankSweep(points))
			for _, p := range points {
				if p.Alpha == 0.7 && p.Gamma == 0.25 {
					b.ReportMetric(p.TraitMatch, "trait_match_full_rerank")
				}
			}
		}
	}
}

// ----------------------------------------------------------------------------
// Substrate micro-benchmarks: the building blocks' standalone cost.

// BenchmarkElaborateJPEG measures RTL-to-netlist elaboration of the largest
// benchmark (jpeg: multiplier bank under deep wrapper hierarchy).
func BenchmarkElaborateJPEG(b *testing.B) {
	d := designs.JPEG()
	lib := liberty.Nangate45()
	for i := 0; i < b.N; i++ {
		sess := synth.NewSession(lib)
		sess.AddSource(d.FileName, d.Source)
		if _, err := sess.Run("read_verilog " + d.FileName + "\ncurrent_design " + d.Top + "\nlink\n"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileUltraSwerv measures a full compile_ultra flow on the
// largest CPU benchmark.
func BenchmarkCompileUltraSwerv(b *testing.B) {
	d := designs.SweRV()
	lib := liberty.Nangate45()
	script := llm.SpliceScript(d.BaselineScript(), []string{"compile_ultra -retime"})
	for i := 0; i < b.N; i++ {
		sess := synth.NewSession(lib)
		sess.AddSource(d.FileName, d.Source)
		if _, err := sess.Run(script); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileUltraSwervCheckpointed is BenchmarkCompileUltraSwerv with
// a warmed elaboration-checkpoint store: every iteration restores SweRV's
// post-link state from the snapshot instead of re-parsing and
// re-elaborating, leaving only the compile_ultra flow itself. The ratio to
// the uncheckpointed benchmark is the Pass@k repeat-run speedup.
func BenchmarkCompileUltraSwervCheckpointed(b *testing.B) {
	d := designs.SweRV()
	lib := liberty.Nangate45()
	script := llm.SpliceScript(d.BaselineScript(), []string{"compile_ultra -retime"})
	store := synth.NewCheckpointStore(0)
	warm := synth.NewSession(lib)
	warm.Checkpoints = store
	warm.AddSource(d.FileName, d.Source)
	if _, err := warm.Run(script); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := synth.NewSession(lib)
		sess.Checkpoints = store
		sess.AddSource(d.FileName, d.Source)
		if _, err := sess.Run(script); err != nil {
			b.Fatal(err)
		}
	}
	if store.Stats().Hits == 0 {
		b.Fatal("no checkpoint hits: the store never restored")
	}
}

// BenchmarkCheckpointRestore isolates the restore path itself: elaborate
// SweRV once, then measure only the snapshot-clone-and-resume of the link
// prefix (no compile). Compare against BenchmarkElaborateJPEG-style fresh
// elaboration to see what a hit saves.
func BenchmarkCheckpointRestore(b *testing.B) {
	d := designs.SweRV()
	lib := liberty.Nangate45()
	prefix := "read_verilog " + d.FileName + "\ncurrent_design " + d.Top + "\nlink\n"
	store := synth.NewCheckpointStore(0)
	warm := synth.NewSession(lib)
	warm.Checkpoints = store
	warm.AddSource(d.FileName, d.Source)
	if _, err := warm.Run(prefix); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := synth.NewSession(lib)
		sess.Checkpoints = store
		sess.AddSource(d.FileName, d.Source)
		if _, err := sess.Run(prefix); err != nil {
			b.Fatal(err)
		}
	}
	if store.Stats().Hits == 0 {
		b.Fatal("no checkpoint hits: the store never restored")
	}
}

// BenchmarkCustomizeChatLS measures one end-to-end ChatLS customization
// (analysis + retrieval + generation + CoT refinement), excluding the
// synthesis run.
func BenchmarkCustomizeChatLS(b *testing.B) {
	db := sharedBenchDB(b)
	lib := liberty.Nangate45()
	task, _, err := NewTask(context.Background(), designs.DynamicNode(), lib)
	if err != nil {
		b.Fatal(err)
	}
	p := NewChatLS(llm.New(llm.GPT4o, 1), db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.CustomizeResult(context.Background(), task, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbedDesignUncached and BenchmarkEmbedDesignCached quantify what
// the serving layer's embedding cache saves per request: the uncached path
// re-parses the RTL and runs the GNN forward pass every time, the cached
// path answers warm repeats from the LRU.
func BenchmarkEmbedDesignUncached(b *testing.B) {
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: liberty.Nangate45()})
	if err != nil {
		b.Fatal(err)
	}
	d := designs.RiscV32i()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.EmbedDesign(d.Source, d.Top); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedDesignCached(b *testing.B) {
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: liberty.Nangate45()})
	if err != nil {
		b.Fatal(err)
	}
	db.EnableCache(8, 8)
	d := designs.RiscV32i()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.EmbedDesign(d.Source, d.Top); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGraphs parses the benchmark designs into design graphs once, for the
// embedding-batch benchmarks.
func benchGraphs(b *testing.B) []*circuitmentor.DesignGraph {
	b.Helper()
	var dgs []*circuitmentor.DesignGraph
	for _, d := range designs.Benchmarks() {
		dg, err := circuitmentor.BuildGraph(d.Source, d.Top)
		if err != nil {
			b.Fatal(err)
		}
		dgs = append(dgs, dg)
	}
	return dgs
}

// BenchmarkEmbedGlobalSerial and BenchmarkEmbedGlobalBatched compare the two
// ways of embedding N concurrent designs: one GNN forward pass per design
// versus a single stacked forward over their disjoint union — the work the
// continuous-batching admission queue coalesces. Their ns/op ratio is the
// per-flush speedup of batching (results are byte-identical; see
// gnn.EmbedBatch).
func BenchmarkEmbedGlobalSerial(b *testing.B) {
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: liberty.Nangate45()})
	if err != nil {
		b.Fatal(err)
	}
	dgs := benchGraphs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dg := range dgs {
			if emb := db.Mentor.EmbedGlobal(dg); len(emb) == 0 {
				b.Fatal("empty embedding")
			}
		}
	}
	b.ReportMetric(float64(len(dgs)), "graphs/op")
}

func BenchmarkEmbedGlobalBatched(b *testing.B) {
	db, err := synthrag.Build(synthrag.BuildConfig{Seed: 2, SkipSynth: true, Lib: liberty.Nangate45()})
	if err != nil {
		b.Fatal(err)
	}
	dgs := benchGraphs(b)
	gs := make([]*gnn.Graph, len(dgs))
	for i, dg := range dgs {
		gs[i] = dg.G
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		embs := db.Mentor.Model.EmbedGlobalBatch(gs)
		if len(embs) != len(gs) {
			b.Fatal("short batch result")
		}
	}
	b.ReportMetric(float64(len(gs)), "graphs/op")
}

// BenchmarkIterativeClosure regenerates the iterative-resynthesis study:
// ChatLS applied for three rounds on the designs whose closure needs (or
// resists) iteration.
func BenchmarkIterativeClosure(b *testing.B) {
	db := sharedBenchDB(b)
	cfg := DefaultConfig()
	cfg.Designs = []*designs.Design{designs.EthMAC(), designs.TinyRocket(), designs.JPEG()}
	for i := 0; i < b.N; i++ {
		rows, err := IterativeClosure(context.Background(), cfg, db, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + FormatIterations(rows))
		}
	}
}
