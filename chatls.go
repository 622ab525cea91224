// Package chatls is the public facade of the ChatLS reproduction: a
// framework that customizes logic-synthesis scripts from natural-language
// requirements (DAC 2025, "ChatLS: Multimodal Retrieval-Augmented Generation
// and Chain-of-Thought for Logic Synthesis Script Customization").
//
// The framework (Fig. 1/2 of the paper) combines four components:
//
//   - CircuitMentor (internal/circuitmentor): graph-based circuit analysis —
//     RTL becomes a hierarchical graph stored in an embedded property-graph
//     database, and a metric-learned GraphSAGE model embeds its modules.
//   - SynthRAG (internal/synthrag): multimodal retrieval — graph-embedding
//     search with domain-specific reranking over an expert strategy
//     database, Cypher queries for design code and library cells, and
//     text-embedding retrieval over the tool manual.
//   - SynthExpert (internal/synthexpert): chain-of-thought refinement where
//     every reasoning step retrieves supporting information and revises the
//     drafted script (hallucinated commands, invalid options, ordering).
//   - A generator LLM (internal/llm): simulated GPT-4o / Claude 3.5
//     profiles sharing one text-driven policy, so pipeline structure — not
//     the generator — differentiates the results.
//
// The synthesis tool itself (internal/synth over internal/netlist and
// internal/sta) is a working logic-synthesis simulator, so script choices
// change QoR through mechanism rather than lookup.
package chatls

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/overload"
	"repro/internal/resilience"
	"repro/internal/synth"
	"repro/internal/synthexpert"
	"repro/internal/synthrag"
)

// DefaultRequirement is the natural-language instruction used across the
// evaluation ("identical prompt engineering" for every model, as in the
// paper).
const DefaultRequirement = "Customize the synthesis script to optimize timing: close all timing " +
	"violations at the given clock period. Basic configurations (clock period, wireload model) " +
	"must not change. Recover area where timing allows."

// Task is one customization problem: a design plus the baseline script and
// its report.
type Task struct {
	Design         *designs.Design
	Requirement    string
	Baseline       string
	BaselineReport string
	Lib            *liberty.Library
}

// NewTask runs the baseline script once and packages the customization
// problem the way the paper's flow does (user provides design, script, and
// tool reports). The context bounds the baseline synthesis run.
func NewTask(ctx context.Context, d *designs.Design, lib *liberty.Library) (*Task, synth.QoR, error) {
	return NewTaskWith(ctx, d, lib, nil)
}

// NewTaskWith is NewTask with an optional shared elaboration-checkpoint
// store: the baseline synthesis restores the design's post-link state from
// the store when a prior run elaborated the same sources, and captures it
// for later runs otherwise. Results are bit-identical with or without the
// store (nil disables checkpointing).
func NewTaskWith(ctx context.Context, d *designs.Design, lib *liberty.Library, ckpt *synth.CheckpointStore) (*Task, synth.QoR, error) {
	sess := synth.NewSession(lib)
	sess.Checkpoints = ckpt
	sess.AddSource(d.FileName, d.Source)
	res, err := sess.RunContext(ctx, d.BaselineScript())
	if err != nil {
		return nil, synth.QoR{}, fmt.Errorf("baseline %s: %w", d.Name, err)
	}
	return &Task{
		Design:         d,
		Requirement:    DefaultRequirement,
		Baseline:       d.BaselineScript(),
		BaselineReport: strings.Join(res.Reports, "\n"),
		Lib:            lib,
	}, *res.QoR, nil
}

// Pipeline generates a customized script for a task. Sample indexes the
// Pass@k attempt. The context bounds the whole generation flow; a cancelled
// or expired context aborts with a resilience.ErrCancelled/ErrTimeout error.
//
// CustomizeResult must not mutate pipeline state: the serving path and
// parallel Pass@k share one instance across goroutines.
type Pipeline interface {
	Name() string
	CustomizeResult(ctx context.Context, t *Task, sample int) (Customization, error)
}

// Customization is the full result of one pipeline call: the script plus
// the per-call reporting.
type Customization struct {
	Script string
	// Steps are SynthExpert's chain-of-thought steps (nil for pipelines
	// without CoT refinement, or when refinement was skipped or degraded).
	Steps []synthexpert.Step
	// Degradation reports which components fell back during this call; never
	// nil for ChatLSPipeline (empty report = full strength), nil for
	// pipelines that do not degrade.
	Degradation *resilience.DegradationReport
}

// RawPipeline is the baseline comparison: the generator sees the
// requirement, the baseline script, the tool report, and the raw RTL —
// exactly the single-shot prompting the paper compares against.
type RawPipeline struct {
	Model *llm.Model
}

// Name identifies the pipeline by its model profile.
func (p *RawPipeline) Name() string { return p.Model.Profile.Name }

// CustomizeResult performs one-shot prompting with the raw design text.
// RawPipeline is stateless, so concurrent calls are safe.
func (p *RawPipeline) CustomizeResult(ctx context.Context, t *Task, sample int) (Customization, error) {
	var b strings.Builder
	b.WriteString("## Requirement\n")
	b.WriteString(t.Requirement)
	b.WriteString("\n\n## Baseline script\n")
	b.WriteString(t.Baseline)
	b.WriteString("\n## Synthesis report\n")
	b.WriteString(t.BaselineReport)
	b.WriteString("\n## RTL\n")
	b.WriteString(t.Design.Source)
	script, err := p.Model.GenerateContext(ctx, llm.GenRequest{Prompt: b.String(), Sample: sample})
	if err != nil {
		return Customization{}, resilience.ContextError(resilience.CompGenerate, err)
	}
	return Customization{Script: script}, nil
}

// ChatLSPipeline is the full framework: CircuitMentor analysis, SynthRAG
// retrieval, generation, and SynthExpert chain-of-thought refinement.
// The Disable flags implement the paper's ablations.
type ChatLSPipeline struct {
	Model  *llm.Model
	DB     *synthrag.Database
	Expert *synthexpert.Expert
	// Rerank weights of Eq. 5.
	Alpha, Beta float64
	// Ablation switches.
	DisableMentor bool // no design-characteristics analysis
	DisableRAG    bool // no retrieved strategies
	DisableExpert bool // no CoT refinement
	// Retry governs how component failures are retried before the pipeline
	// degrades. Zero value means no retries (single attempt).
	Retry resilience.RetryPolicy
	// Inject, when set, is the fault-injection layer consulted before every
	// component call (tests only).
	Inject *resilience.Injector
	// Breakers, when set, maps component names to shared circuit breakers
	// consulted before each guarded stage: an open breaker skips the stage
	// immediately (degrading, like a failed stage) instead of burning
	// retries on a component that has been failing. The server installs one
	// per auxiliary stage; absent entries (and a nil map) mean no breaker.
	Breakers map[string]*resilience.Breaker
	// Costs, when set, is the shared per-stage EWMA cost model: successful
	// stage durations feed it, and optional stages are skipped up front
	// when the remaining context deadline cannot cover their expected cost
	// plus the mandatory generation that follows (recorded as a
	// degradation). Nil disables budget awareness.
	Costs *overload.CostModel
}

// NewChatLS assembles the standard pipeline over a built database.
func NewChatLS(model *llm.Model, db *synthrag.Database) *ChatLSPipeline {
	return &ChatLSPipeline{
		Model:  model,
		DB:     db,
		Expert: synthexpert.New(model, db),
		Alpha:  0.7,
		Beta:   0.3,
		Retry:  resilience.DefaultRetryPolicy(model.Seed),
	}
}

// Name identifies the pipeline, noting active ablations.
func (p *ChatLSPipeline) Name() string {
	name := "chatls"
	if p.DisableMentor {
		name += "-nomentor"
	}
	if p.DisableRAG {
		name += "-norag"
	}
	if p.DisableExpert {
		name += "-noexpert"
	}
	return name
}

// guard executes one component call under the pipeline's retry policy,
// panic-recovery boundary, (in tests) fault injector, and the component's
// circuit breaker when one is installed: an open breaker rejects without
// attempting the call, successes/failures feed the breaker, and a pure
// caller-side cancellation is a no-verdict (the component's health was
// never tested).
func (p *ChatLSPipeline) guard(ctx context.Context, component string, fn func(context.Context) error) error {
	br := p.Breakers[component]
	if !br.Allow() {
		return resilience.BreakerError(component)
	}
	start := time.Now()
	err := resilience.Execute(ctx, resilience.Op{
		Component: component,
		Policy:    p.Retry,
		Injector:  p.Inject,
	}, fn)
	switch {
	case err == nil:
		br.Success()
		p.Costs.Observe(component, time.Since(start))
	case errors.Is(err, resilience.ErrCancelled):
		br.Drop()
	default:
		// Timeouts count against the breaker: a stage that blows the
		// deadline is as sick as one that errors.
		br.Failure()
	}
	return err
}

// overBudget rejects a stage group when the remaining deadline cannot
// cover its expected cost plus the mandatory generation still ahead.
// Unknown costs (cold model, nil model) admit.
func (p *ChatLSPipeline) overBudget(ctx context.Context, lead string, components ...string) error {
	need := p.Costs.Expect(resilience.CompGenerate)
	for _, c := range components {
		need += p.Costs.Expect(c)
	}
	return overload.CheckBudget(ctx, lead, need)
}

func hasErrors(issues []synth.Issue) bool {
	for _, i := range issues {
		if i.Severity == "error" {
			return true
		}
	}
	return false
}

// CustomizeResult runs the full ChatLS flow of Fig. 2 for one sample,
// returning the script together with the CoT steps and the degradation
// report for this call.
//
// The flow is fault-tolerant: each auxiliary component (CircuitMentor,
// SynthRAG embedding and retrieval, SynthExpert) runs under retry with
// backoff and a panic-recovery boundary; if it still fails, the pipeline
// degrades to the next-weaker configuration — proceeding without that
// component's contribution — and records the event in the returned
// Customization.Degradation. Only a generator failure or a context
// cancellation/timeout aborts with an error, so a degraded call always
// yields a runnable script (a wasted attempt in the Pass@k sense, never a
// crash).
//
// CustomizeResult mutates no pipeline state: a single instance over a built
// database is safe for concurrent calls (the database, model, and expert
// are all read-only at serving time).
func (p *ChatLSPipeline) CustomizeResult(ctx context.Context, t *Task, sample int) (Customization, error) {
	report := &resilience.DegradationReport{}
	out := Customization{Degradation: report}

	var b strings.Builder
	b.WriteString("## Requirement\n")
	b.WriteString(t.Requirement)
	b.WriteString("\n")

	var traits []string
	if !p.DisableMentor {
		if berr := p.overBudget(ctx, resilience.CompMentor, resilience.CompMentor); berr != nil {
			report.Record(resilience.CompMentor, "skipped: insufficient deadline budget", berr)
		} else {
			var analysis *circuitmentor.Analysis
			err := p.guard(ctx, resilience.CompMentor, func(ctx context.Context) error {
				var err error
				analysis, err = circuitmentor.AnalyzeContext(ctx, t.Design.Source, t.Design.Top, t.Design.Period, t.Lib)
				return err
			})
			switch {
			case err == nil:
				traits = analysis.Traits
				b.WriteString("\n## Design characteristics\n")
				b.WriteString(analysis.Render())
			case resilience.IsFatal(err):
				return out, err
			default:
				report.Record(resilience.CompMentor, "proceed without design characteristics", err)
			}
		}
	}

	if !p.DisableRAG {
		if berr := p.overBudget(ctx, resilience.CompRAGEmbed, resilience.CompRAGEmbed, resilience.CompRAGRetrieve); berr != nil {
			report.Record(resilience.CompRAGEmbed, "skipped: insufficient deadline budget", berr)
		} else {
			var emb []float64
			err := p.guard(ctx, resilience.CompRAGEmbed, func(ctx context.Context) error {
				var err error
				emb, _, err = p.DB.EmbedDesignContext(ctx, t.Design.Source, t.Design.Top)
				return err
			})
			if err == nil {
				var hits []synthrag.StrategyHit
				err = p.guard(ctx, resilience.CompRAGRetrieve, func(ctx context.Context) error {
					var err error
					hits, err = p.DB.RetrieveStrategiesForContext(ctx, emb, traits, 2, p.Alpha, p.Beta, 0.25)
					return err
				})
				switch {
				case err == nil:
					b.WriteString("\n## Retrieved strategies\n")
					b.WriteString(synthrag.RenderStrategies(hits))
				case resilience.IsFatal(err):
					return out, err
				default:
					report.Record(resilience.CompRAGRetrieve, "proceed without retrieved strategies", err)
				}
			} else if resilience.IsFatal(err) {
				return out, err
			} else {
				report.Record(resilience.CompRAGEmbed, "proceed without retrieved strategies", err)
			}
		}
	}

	b.WriteString("\n## Baseline script\n")
	b.WriteString(t.Baseline)
	b.WriteString("\n## Synthesis report\n")
	b.WriteString(t.BaselineReport)

	// Generation has no weaker fallback, so a budget that cannot cover it
	// aborts the sample before any generator work happens.
	if berr := overload.CheckBudget(ctx, resilience.CompGenerate, p.Costs.Expect(resilience.CompGenerate)); berr != nil {
		return out, berr
	}
	var draft string
	err := p.guard(ctx, resilience.CompGenerate, func(ctx context.Context) error {
		var err error
		draft, err = p.Model.GenerateContext(ctx, llm.GenRequest{Prompt: b.String(), Sample: sample})
		return err
	})
	if err != nil {
		// The generator is the one component with no weaker fallback: without
		// a draft there is nothing to refine or emit.
		return out, err
	}

	if p.DisableExpert {
		out.Script = draft
		return out, nil
	}

	var refined string
	var steps []synthexpert.Step
	err = overload.CheckBudget(ctx, resilience.CompExpert, p.Costs.Expect(resilience.CompExpert))
	if err != nil {
		// Refinement is optional: fall through to the same draft/baseline
		// fallback a failed expert takes.
	} else {
		err = p.guard(ctx, resilience.CompExpert, func(ctx context.Context) error {
			var err error
			refined, steps, err = p.Expert.RefineContext(ctx, draft, t.Baseline)
			return err
		})
	}
	switch {
	case err == nil:
		out.Script = refined
		out.Steps = steps
		return out, nil
	case resilience.IsFatal(err):
		return out, err
	}
	if !hasErrors(synth.ValidateScript(draft)) {
		report.Record(resilience.CompExpert, "emit unrefined draft", err)
		out.Script = draft
		return out, nil
	}
	report.Record(resilience.CompExpert, "draft invalid without refinement; return baseline script", err)
	out.Script = t.Baseline
	return out, nil
}
