package chatls

import (
	"context"
	"fmt"
	"time"

	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/overload"
	"repro/internal/qorlog"
	"repro/internal/resilience"
	"repro/internal/synth"
	"repro/internal/workpool"
)

// SampleOutcome records one Pass@k attempt.
type SampleOutcome struct {
	Script string
	QoR    *synth.QoR
	Err    string // non-empty when the script failed in the tool
	// Degraded lists components that fell back during generation of this
	// sample (empty when the pipeline ran at full strength or does not
	// report degradation).
	Degraded []string
}

// EvalResult is the Pass@k outcome for one (pipeline, design) cell of
// Table III.
type EvalResult struct {
	Pipeline   string
	Design     string
	K          int
	Baseline   synth.QoR
	Best       synth.QoR
	BestSample int // -1 when no sample produced a runnable script
	Valid      int
	Samples    []SampleOutcome
}

// Improved reports whether the best customized script beat the baseline on
// timing.
func (r EvalResult) Improved() bool {
	return r.BestSample >= 0 && BetterTiming(r.Best, r.Baseline)
}

// BetterTiming orders QoR the way the evaluation selects the best sample:
// WNS first, then CPS, then smaller area.
func BetterTiming(a, b synth.QoR) bool {
	if a.WNS != b.WNS {
		return a.WNS > b.WNS
	}
	if a.CPS != b.CPS {
		return a.CPS > b.CPS
	}
	return a.Area < b.Area
}

// EvalOptions tunes how a Pass@k evaluation runs. The zero value is the
// paper's serial protocol with no checkpoint sharing.
type EvalOptions struct {
	// Workers bounds sample-evaluation concurrency; <= 1 is the serial
	// protocol. Samples are seeded by index and folded in index order, so
	// any worker count yields the same samples, best and counts; only
	// wall-clock changes. Pipelines must be safe for concurrent
	// CustomizeResult calls.
	Workers int
	// Checkpoints, when non-nil, is a shared elaboration-checkpoint store:
	// every sample's synthesis run (and the baseline, for entry points that
	// build the task) restores post-link state from it instead of
	// re-elaborating identical sources. Results are bit-identical either way.
	Checkpoints *synth.CheckpointStore
	// Results, when non-nil, is the durable QoR store: each sample's
	// synthesis outcome is looked up by content key (library fingerprint,
	// sources, script) before running the tool, and logged after. A hit
	// skips the run entirely; because the simulator is deterministic and the
	// log round-trips float bits exactly, a served result is bit-identical
	// to a recomputed one. Nil disables result caching.
	//
	// A store that also implements LeasedResultStore (remotecache.Tier)
	// additionally coordinates work fleet-wide: on a miss, the sample claims
	// a lease before synthesizing, so concurrent replicas evaluating the
	// same (library, sources, script) run the tool exactly once between
	// them and the rest serve the published record.
	Results ResultStore
	// Costs, when non-nil, is the per-stage EWMA cost model used for
	// deadline-budget admission: a sample whose expected cost exceeds the
	// remaining context deadline is rejected up front — before any
	// generation, lease claim, or synthesis — with an error wrapping
	// overload.ErrBudget, and observed baseline/sample/synthesis durations
	// feed the model. Nil disables budget checks (beyond an already-expired
	// deadline) and cost learning.
	Costs *overload.CostModel
}

// RunPassK evaluates a pipeline on a design with k samples (the paper's
// Pass@5 protocol): each sample's script runs through the synthesis tool;
// scripts that fail (hallucinated commands, bad options) count as invalid;
// the best valid QoR is reported. When every sample fails, the baseline QoR
// stands (the customization attempt is wasted, not destructive).
//
// Per-sample failures are contained — a failed Customize or synthesis run
// records the error in the sample and the remaining samples still run.
// Only context cancellation/timeout aborts the whole evaluation.
func RunPassK(ctx context.Context, p Pipeline, d *designs.Design, k int, lib *liberty.Library) (EvalResult, error) {
	return RunPassKOpts(ctx, p, d, k, lib, EvalOptions{})
}

// RunPassKOpts is RunPassK with explicit options (sample workers, shared
// checkpoint store, result store, cost model).
func RunPassKOpts(ctx context.Context, p Pipeline, d *designs.Design, k int, lib *liberty.Library, opts EvalOptions) (EvalResult, error) {
	// Budget admission: a nearly-expired context is rejected before the
	// baseline synthesis starts, so the evaluation does no partial work.
	if err := overload.CheckBudget(ctx, overload.StageBaseline, opts.Costs.Expect(overload.StageBaseline)); err != nil {
		return EvalResult{}, err
	}
	start := time.Now()
	task, baseQoR, err := NewTaskWith(ctx, d, lib, opts.Checkpoints)
	if err != nil {
		return EvalResult{}, err
	}
	opts.Costs.Observe(overload.StageBaseline, time.Since(start))
	return EvalTaskOpts(ctx, p, task, baseQoR, k, lib, opts)
}

// EvalTaskOpts runs the Pass@k evaluation over an already-constructed task:
// the entry point for callers that cache baseline synthesis (the serving
// daemon).
func EvalTaskOpts(ctx context.Context, p Pipeline, task *Task, baseQoR synth.QoR, k int, lib *liberty.Library, opts EvalOptions) (EvalResult, error) {
	workers := opts.Workers
	res := EvalResult{
		Pipeline:   p.Name(),
		Design:     task.Design.Name,
		K:          k,
		Baseline:   baseQoR,
		Best:       baseQoR,
		BestSample: -1,
	}
	if workers > k {
		workers = k
	}

	if workers <= 1 {
		for s := 0; s < k; s++ {
			out, fatal := evalSample(ctx, p, task, lib, s, opts)
			if fatal != nil && out == nil {
				return res, fatal
			}
			res.Samples = append(res.Samples, *out)
			if fatal != nil {
				return res, fatal
			}
			accumulate(&res, *out, s)
		}
		return res, nil
	}

	type slot struct {
		out   *SampleOutcome
		fatal error
	}
	slots := make([]slot, k)
	workpool.Run(workers, k, func(s int) {
		slots[s].out, slots[s].fatal = evalSample(ctx, p, task, lib, s, opts)
	})

	// Fold in index order so Best/BestSample match the serial protocol; a
	// fatal error truncates the result at its sample, as the serial loop
	// would have.
	for s := 0; s < k; s++ {
		if slots[s].fatal != nil && slots[s].out == nil {
			return res, slots[s].fatal
		}
		res.Samples = append(res.Samples, *slots[s].out)
		if slots[s].fatal != nil {
			return res, slots[s].fatal
		}
		accumulate(&res, *slots[s].out, s)
	}
	return res, nil
}

func accumulate(res *EvalResult, out SampleOutcome, s int) {
	if out.QoR == nil {
		return
	}
	res.Valid++
	if res.BestSample < 0 || BetterTiming(*out.QoR, res.Best) {
		res.Best = *out.QoR
		res.BestSample = s
	}
}

// evalSample customizes and synthesizes one Pass@k sample. A nil outcome
// with a non-nil error means the failure preceded any recordable sample
// (fatal Customize error); a non-nil outcome with a non-nil error means the
// sample is recorded and the evaluation must then abort (fatal synthesis
// error). When opts.Results holds the outcome for this exact (library,
// sources, script), the synthesis run is skipped and the logged QoR is
// served instead — bit-identical because the simulator is deterministic.
func evalSample(ctx context.Context, p Pipeline, task *Task, lib *liberty.Library, s int, opts EvalOptions) (*SampleOutcome, error) {
	// Budget admission: reject before customization when the remaining
	// deadline cannot cover a whole sample. Returning (nil, err) makes the
	// evaluation abort with no recorded partial sample.
	if err := overload.CheckBudget(ctx, overload.StageSample, opts.Costs.Expect(overload.StageSample)); err != nil {
		return nil, err
	}
	sampleStart := time.Now()
	cres, err := p.CustomizeResult(ctx, task, s)
	if err != nil {
		if resilience.IsFatal(err) {
			return nil, err
		}
		return &SampleOutcome{Err: fmt.Sprintf("customize: %v", err)}, nil
	}
	script := cres.Script
	out := SampleOutcome{Script: script, Degraded: cres.Degradation.Components()}
	var key qorlog.Key
	if opts.Results != nil { // hashing the sources is not free; skip when unused
		key = ResultKey(task.Lib, task.Design, script)
		if rec, ok := opts.Results.Get(key); ok {
			q := qorOf(rec)
			out.QoR = &q
			return &out, nil
		}
		// Budget admission for the synthesis ahead: reject before the lease
		// claim, so a doomed sample never holds fleet-wide work hostage.
		if err := overload.CheckBudget(ctx, overload.StageSynth, opts.Costs.Expect(overload.StageSynth)); err != nil {
			return &out, err
		}
		if ls, ok := opts.Results.(LeasedResultStore); ok {
			rec, done, release := ls.Acquire(ctx, key)
			if done {
				release()
				q := qorOf(rec)
				out.QoR = &q
				return &out, nil
			}
			// We hold the lease (or coordination failed and release is a
			// no-op). Release after the success-path Put publishes the
			// record; on failure the lease lapses with nothing published
			// and siblings recompute — slower, never wrong.
			defer release()
		}
	}
	synthStart := time.Now()
	sess := synth.NewSession(lib)
	sess.Checkpoints = opts.Checkpoints
	sess.AddSource(task.Design.FileName, task.Design.Source)
	run, err := sess.RunContext(ctx, script)
	if err != nil {
		if resilience.IsFatal(err) {
			return &out, err
		}
		out.Err = err.Error()
		return &out, nil
	}
	opts.Costs.Observe(overload.StageSynth, time.Since(synthStart))
	opts.Costs.Observe(overload.StageSample, time.Since(sampleStart))
	out.QoR = run.QoR
	if opts.Results != nil {
		opts.Results.Put(key, recordOf(*run.QoR))
	}
	return &out, nil
}
