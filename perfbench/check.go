package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/synth"
	"repro/internal/synthrag"
)

// reply mirrors the POST /v1/customize reply fields the check reads.
type reply struct {
	Design     string        `json:"design"`
	K          int           `json:"k"`
	Baseline   synth.QoR     `json:"baseline"`
	Best       synth.QoR     `json:"best"`
	BestSample int           `json:"best_sample"`
	Valid      int           `json:"valid"`
	Script     string        `json:"script"`
	Samples    []replySample `json:"samples"`
	Degraded   []string      `json:"degraded"`
}

type replySample struct {
	QoR      *synth.QoR `json:"qor"`
	Error    string     `json:"error"`
	Degraded []string   `json:"degraded"`
}

// degraded reports any request- or sample-level degradation marker.
func (r *reply) degraded() bool {
	if len(r.Degraded) > 0 {
		return true
	}
	for _, s := range r.Samples {
		if len(s.Degraded) > 0 {
			return true
		}
	}
	return false
}

// checkReply compares a served reply with the reference result of the
// same request: design and k, then the digest of best, best_sample, valid,
// the best script and every sample's QoR (or failure) must match.
func checkReply(refs *refFile, in input, r *reply) error {
	if r.Design != in.Design || r.K != in.K {
		return fmt.Errorf("reply is for %s k=%d, request was %s k=%d", r.Design, r.K, in.Design, in.K)
	}
	want, ok := refs.Serve[refKey(in)]
	if !ok {
		return fmt.Errorf("no reference for %s k=%d%s in %s", in.Design, in.K, refKey(in), refsPath)
	}
	if got := digest(canonOfReply(r)); got != want {
		return fmt.Errorf("reply (best WNS %g, sample %d, %d valid) differs from the reference result: digest %s, want %s",
			r.Best.WNS, r.BestSample, r.Valid, got, want)
	}
	return nil
}

// verdict classifies every outcome of a phase against the references.
type verdict struct {
	attempted, failed, wrong, degraded, good int
	goodSamples                              int // sum of k over good replies
	firstErr                                 error
}

func (v *verdict) note(err error) {
	if v.firstErr == nil {
		v.firstErr = err
	}
}

// judge classifies outcomes: failed (transport error or non-200), degraded
// (200 with a degradation marker; not compared, not good), wrong (200 that
// differs from its reference), good (correct and within the SLO).
func judge(outs []outcome, inputs []input, refs *refFile, slo float64) verdict {
	var v verdict
	for _, o := range outs {
		v.attempted++
		if o.Err != nil || o.Status != 200 {
			v.failed++
			v.note(fmt.Errorf("request %d: status %d: %v %s", o.In, o.Status, o.Err, o.Body))
			continue
		}
		var r reply
		if err := json.Unmarshal(o.Body, &r); err != nil {
			v.wrong++
			v.note(fmt.Errorf("request %d: undecodable reply: %v", o.In, err))
			continue
		}
		if r.degraded() {
			v.degraded++
			continue
		}
		if err := checkReply(refs, inputs[o.In], &r); err != nil {
			v.wrong++
			v.note(fmt.Errorf("request %d (%s): %v", o.In, inputs[o.In].Design, err))
			continue
		}
		if ms(o.Latency) <= slo {
			v.good++
			v.goodSamples += inputs[o.In].K
		}
	}
	return v
}

// references evaluates each input on the serial, cache-free path:
// a freshly built database with no caches or batching, and EvalTaskOpts
// with one worker and no checkpoint or result stores. Inputs are spread
// over workers goroutines; each evaluation itself is serial.
func references(ctx context.Context, inputs []input, workers int) ([]*chatls.EvalResult, error) {
	db, err := chatls.BuildDatabase(chatls.ExperimentConfig{Seed: chatls.ProtocolSeed})
	if err != nil {
		return nil, fmt.Errorf("reference database: %w", err)
	}
	lib := liberty.Nangate45()
	tasks := map[string]*chatls.Task{}
	base := map[string]synth.QoR{}
	for _, d := range designs.Benchmarks() {
		t, q, err := chatls.NewTask(ctx, d, lib)
		if err != nil {
			return nil, err
		}
		tasks[d.Name], base[d.Name] = t, q
	}
	refs := make([]*chatls.EvalResult, len(inputs))
	errs := make([]error, len(inputs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				refs[i], errs[i] = referenceOne(ctx, db, lib, tasks, base, inputs[i])
			}
		}()
	}
	for i := range inputs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference for input %d: %w", i, err)
		}
	}
	return refs, nil
}

func referenceOne(ctx context.Context, db *synthrag.Database, lib *liberty.Library, tasks map[string]*chatls.Task, base map[string]synth.QoR, in input) (*chatls.EvalResult, error) {
	t := *tasks[in.Design]
	t.Requirement = in.Requirement
	p := chatls.NewChatLS(llm.New(llm.GPT4o, chatls.ProtocolSeed), db)
	res, err := chatls.EvalTaskOpts(ctx, p, &t, base[in.Design], in.K, lib, chatls.EvalOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return &res, nil
}
