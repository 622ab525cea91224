// Package overload implements overload protection for the serving fleet.
// Admission is the server's single admission path: a brownout clamp on
// Pass@k under sustained shedding, a cost shed when the learned request
// cost cannot fit the deadline, an AIMD concurrency limit driven by
// observed completion latency against a moving p50 baseline, and a fixed
// set of worker slots the admitted work runs in. The per-stage EWMA cost
// model and CheckBudget let the pipeline and the evaluator reject work
// whose expected cost exceeds the remaining deadline budget.
//
// Every decision here is deterministic given the sequence of observations
// fed to it: nothing in the package reads a clock, and the cost model only
// stores durations its callers measured. That keeps unit tests and the
// seeded chaos harness reproducible.
package overload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Stage names for the cost model. Pipeline-internal stages reuse the
// resilience component names (mentor, rag_embed, ...); these cover the
// coarser units the server and eval loop account for.
const (
	// StageRequest is a whole /v1/customize request: baseline task plus
	// every Pass@k sample. Admission sheds on this before the limiter.
	StageRequest = "request"
	// StageBaseline is the baseline synthesis run (NewTaskWith) that
	// anchors a Pass@k evaluation or a sweep row.
	StageBaseline = "baseline"
	// StageSample is one Pass@k sample: customize + synthesis + compare.
	StageSample = "sample"
	// StageSynth is a single synthesis tool run (script execution + STA).
	StageSynth = "synth"
)

// ErrBudget is wrapped by every BudgetError; errors.Is(err, ErrBudget)
// identifies deadline-budget rejections across package boundaries.
var ErrBudget = errors.New("remaining deadline cannot cover expected work")

// BudgetError reports that a context's remaining deadline budget cannot
// cover the expected cost of the stage about to run.
type BudgetError struct {
	Stage string
	Need  time.Duration // expected cost of the stage (0 = unknown, deadline already past)
	Have  time.Duration // remaining budget at check time (may be negative)
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("overload: %s stage needs ~%v but deadline budget has %v", e.Stage, e.Need, e.Have)
}

func (e *BudgetError) Unwrap() error { return ErrBudget }

// CheckBudget rejects early when ctx's remaining deadline cannot cover
// need. A context without a deadline always passes; an unknown cost
// (need == 0) only fails once the deadline has already expired. Callers
// invoke this before claiming leases or starting synthesis so a
// nearly-expired request does no partial work.
func CheckBudget(ctx context.Context, stage string, need time.Duration) error {
	deadline, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	have := time.Until(deadline)
	if have <= 0 || (need > 0 && have < need) {
		return &BudgetError{Stage: stage, Need: need, Have: have}
	}
	return nil
}

// CostModel tracks a per-stage EWMA of observed durations. It is the
// "expected work" half of cost-based load shedding: admission paths ask
// Expect(stage) and compare against the remaining deadline. A nil model is
// valid and reports zero cost everywhere (shedding disabled until primed).
type CostModel struct {
	mu    sync.Mutex
	alpha float64
	ewma  map[string]float64 // stage -> nanoseconds
}

// DefaultCostAlpha is the EWMA smoothing factor when none is given: new
// observations move the estimate 20% of the way to the sample, enough to
// track workload drift without thrashing on one slow request.
const DefaultCostAlpha = 0.2

// NewCostModel returns a cost model with the given smoothing factor in
// (0, 1]; alpha <= 0 selects DefaultCostAlpha.
func NewCostModel(alpha float64) *CostModel {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultCostAlpha
	}
	return &CostModel{alpha: alpha, ewma: make(map[string]float64)}
}

// Observe folds one completed-stage duration into the estimate.
func (m *CostModel) Observe(stage string, d time.Duration) {
	if m == nil || d < 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, ok := m.ewma[stage]
	if !ok {
		m.ewma[stage] = float64(d)
		return
	}
	m.ewma[stage] = cur + m.alpha*(float64(d)-cur)
}

// Expect returns the current cost estimate for stage, or 0 when the stage
// has never been observed (callers treat 0 as "unknown, admit").
func (m *CostModel) Expect(stage string) time.Duration {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Duration(m.ewma[stage])
}
