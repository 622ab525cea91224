package chatls

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/designs"
	"repro/internal/llm"
)

// brokenPipeline always emits a script that dies in the tool.
type brokenPipeline struct{}

func (brokenPipeline) Name() string { return "broken" }
func (brokenPipeline) CustomizeResult(ctx context.Context, t *Task, sample int) (Customization, error) {
	return Customization{Script: "optimize_timing -aggressive\n"}, nil
}

// TestRunPassKFallsBackToBaseline: when every sample fails, the evaluation
// reports the baseline QoR (a wasted customization attempt, not a
// destroyed design).
func TestRunPassKFallsBackToBaseline(t *testing.T) {
	res, err := RunPassK(context.Background(), brokenPipeline{}, designs.RiscV32i(), 3, testLib)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid != 0 || res.BestSample != -1 {
		t.Errorf("broken pipeline should produce no valid samples: %+v", res)
	}
	if res.Best != res.Baseline {
		t.Error("best must fall back to baseline")
	}
	if res.Improved() {
		t.Error("fallback must not count as improvement")
	}
	for _, s := range res.Samples {
		if s.Err == "" {
			t.Error("every sample should carry an error")
		}
	}
}

// TestRunPassKParallelMatchesSerial: parallel evaluation must reproduce the
// serial protocol exactly — every sample, the best QoR, and the winning
// index — because samples are seeded by index, not by schedule.
func TestRunPassKParallelMatchesSerial(t *testing.T) {
	d := designs.RiscV32i()
	p := &RawPipeline{Model: llm.New(llm.GPT4o, 20250706)}
	serial, err := RunPassK(context.Background(), p, d, 5, testLib)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunPassKOpts(context.Background(), p, d, 5, testLib, EvalOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel result diverged from serial:\nserial:   %+v\nparallel: %+v", serial, par)
	}
}

// TestCustomizeResultConcurrent: one pipeline instance must tolerate
// concurrent CustomizeResult calls (the serving path shares nothing but the
// immutable model/database). Meaningful under -race.
func TestCustomizeResultConcurrent(t *testing.T) {
	task, _, err := NewTask(context.Background(), designs.RiscV32i(), testLib)
	if err != nil {
		t.Fatal(err)
	}
	p := &RawPipeline{Model: llm.New(llm.GPT4o, 7)}
	want, err := p.CustomizeResult(context.Background(), task, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.CustomizeResult(context.Background(), task, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Script != want.Script {
				t.Error("concurrent CustomizeResult diverged for identical inputs")
			}
		}()
	}
	wg.Wait()
}
