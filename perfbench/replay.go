package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"time"

	chatls "repro"
	"repro/internal/circuitmentor"
	"repro/internal/designs"
	"repro/internal/liberty"
	"repro/internal/llm"
	"repro/internal/qorlog"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/synthrag"
	"repro/internal/verilog"
)

// The traced replay re-runs a workload's inputs serially through the public
// function of each layer, in the order ChatLSPipeline.CustomizeResult and
// the evaluator's per-sample path call them, timing every call from here:
// nothing inside the program is instrumented. Each replayed sample's script
// and QoR must equal what the timed phase produced; otherwise the per-layer
// rows are rejected, because the replay would not be measuring the same
// work.

// layerTimes accumulates the replay's per-call timings and counts.
type layerTimes struct {
	baselineMS, parseMS, linkMS             []float64
	mentorMS, embedMS, retrieveUS           []float64
	generateMS, promptKB, expertMS, synthMS []float64
	qorGetUS                                []float64
	mentorSum, synthSum, sampleSum          float64 // ms
	samples, steps, revised, synthRuns, bad int
}

// replayer holds the layers one workload runs on: the workload's own
// database (with whatever caches it was served with), a checkpoint store
// and, on the hot mix, a QoR store.
type replayer struct {
	ctx   context.Context
	lib   *liberty.Library
	db    *synthrag.Database
	chat  *chatls.ChatLSPipeline
	ckpt  *synth.CheckpointStore
	store *qorlog.Store
	lt    layerTimes
}

func newReplayer(ctx context.Context, db *synthrag.Database, store *qorlog.Store) *replayer {
	return &replayer{
		ctx:   ctx,
		lib:   liberty.Nangate45(),
		db:    db,
		chat:  chatls.NewChatLS(llm.New(llm.GPT4o, chatls.ProtocolSeed), db),
		ckpt:  synth.NewCheckpointStore(0),
		store: store,
	}
}

// task builds a design's baseline task (timed: task.baseline_ms), and times
// a standalone parse and a fresh link-prefix elaboration of the design.
func (r *replayer) task(d *designs.Design) (*chatls.Task, synth.QoR, error) {
	t0 := time.Now()
	t, q, err := chatls.NewTaskWith(r.ctx, d, r.lib, r.ckpt)
	if err != nil {
		return nil, q, err
	}
	r.lt.baselineMS = append(r.lt.baselineMS, ms(time.Since(t0)))
	t0 = time.Now()
	if _, err := verilog.Parse(d.Source); err != nil {
		return nil, q, err
	}
	r.lt.parseMS = append(r.lt.parseMS, ms(time.Since(t0)))
	sess := synth.NewSession(r.lib)
	sess.AddSource(d.FileName, d.Source)
	t0 = time.Now()
	if _, err := sess.RunContext(r.ctx, fmt.Sprintf("read_verilog %s\ncurrent_design %s\nlink\n", d.FileName, d.Top)); err != nil {
		return nil, q, err
	}
	r.lt.linkMS = append(r.lt.linkMS, ms(time.Since(t0)))
	return t, q, nil
}

// chatlsScript replays ChatLSPipeline.CustomizeResult for one sample:
// CircuitMentor analysis, design embedding, strategy retrieval, generation
// and SynthExpert refinement, assembling the prompt exactly as the pipeline
// does. It returns the script and the time spent in those layers.
func (r *replayer) chatlsScript(t *chatls.Task, sample int) (string, time.Duration, error) {
	var total time.Duration
	var b strings.Builder
	b.WriteString("## Requirement\n")
	b.WriteString(t.Requirement)
	b.WriteString("\n")

	t0 := time.Now()
	an, err := circuitmentor.AnalyzeContext(r.ctx, t.Design.Source, t.Design.Top, t.Design.Period, t.Lib)
	d := time.Since(t0)
	if err != nil {
		return "", 0, fmt.Errorf("mentor: %w", err)
	}
	r.lt.mentorMS = append(r.lt.mentorMS, ms(d))
	r.lt.mentorSum += ms(d)
	total += d
	b.WriteString("\n## Design characteristics\n")
	b.WriteString(an.Render())

	t0 = time.Now()
	emb, _, err := r.db.EmbedDesignContext(r.ctx, t.Design.Source, t.Design.Top)
	d = time.Since(t0)
	if err != nil {
		return "", 0, fmt.Errorf("embed: %w", err)
	}
	r.lt.embedMS = append(r.lt.embedMS, ms(d))
	total += d

	t0 = time.Now()
	hits, err := r.db.RetrieveStrategiesForContext(r.ctx, emb, an.Traits, 2, r.chat.Alpha, r.chat.Beta, 0.25)
	d = time.Since(t0)
	if err != nil {
		return "", 0, fmt.Errorf("retrieve: %w", err)
	}
	r.lt.retrieveUS = append(r.lt.retrieveUS, us(d))
	total += d
	b.WriteString("\n## Retrieved strategies\n")
	b.WriteString(synthrag.RenderStrategies(hits))

	b.WriteString("\n## Baseline script\n")
	b.WriteString(t.Baseline)
	b.WriteString("\n## Synthesis report\n")
	b.WriteString(t.BaselineReport)
	draft, d, err := r.generate(r.chat.Model, b.String(), sample)
	if err != nil {
		return "", 0, err
	}
	total += d

	t0 = time.Now()
	refined, steps, err := r.chat.Expert.RefineContext(r.ctx, draft, t.Baseline)
	d = time.Since(t0)
	if err != nil {
		return "", 0, fmt.Errorf("expert: %w", err)
	}
	r.lt.expertMS = append(r.lt.expertMS, ms(d))
	r.lt.steps += len(steps)
	if refined != draft {
		r.lt.revised++
	}
	total += d
	return refined, total, nil
}

// rawScript replays RawPipeline.Customize: one generation over the
// requirement, baseline, report and the full RTL.
func (r *replayer) rawScript(m *llm.Model, t *chatls.Task, sample int) (string, time.Duration, error) {
	var b strings.Builder
	b.WriteString("## Requirement\n")
	b.WriteString(t.Requirement)
	b.WriteString("\n\n## Baseline script\n")
	b.WriteString(t.Baseline)
	b.WriteString("\n## Synthesis report\n")
	b.WriteString(t.BaselineReport)
	b.WriteString("\n## RTL\n")
	b.WriteString(t.Design.Source)
	return r.generate(m, b.String(), sample)
}

func (r *replayer) generate(m *llm.Model, prompt string, sample int) (string, time.Duration, error) {
	t0 := time.Now()
	out, err := m.GenerateContext(r.ctx, llm.GenRequest{Prompt: prompt, Sample: sample})
	d := time.Since(t0)
	if err != nil {
		return "", 0, fmt.Errorf("generate: %w", err)
	}
	r.lt.generateMS = append(r.lt.generateMS, ms(d))
	r.lt.promptKB = append(r.lt.promptKB, float64(len(prompt))/1024)
	return out, d, nil
}

// evaluate replays the evaluator's per-sample tail: the QoR store lookup
// when the workload has one (chatls.ResultKey plus Store.Get), and on a
// miss the synthesis run (then Store.Put). A script the tool rejects
// yields a nil QoR, as in the served sample.
func (r *replayer) evaluate(t *chatls.Task, script string) (*synth.QoR, time.Duration, error) {
	var total time.Duration
	var key qorlog.Key
	if r.store != nil {
		t0 := time.Now()
		key = chatls.ResultKey(t.Lib, t.Design, script)
		rec, ok := r.store.Get(key)
		d := time.Since(t0)
		r.lt.qorGetUS = append(r.lt.qorGetUS, us(d))
		total += d
		if ok {
			q := synth.QoR{Design: rec.Design, Period: rec.Period, WNS: rec.WNS, CPS: rec.CPS, TNS: rec.TNS,
				Area: rec.Area, Leakage: rec.Leakage, Cells: rec.Cells, Seq: rec.Seq, Violations: rec.Violations}
			return &q, total, nil
		}
	}
	sess := synth.NewSession(r.lib)
	sess.Checkpoints = r.ckpt
	sess.AddSource(t.Design.FileName, t.Design.Source)
	t0 := time.Now()
	run, err := sess.RunContext(r.ctx, script)
	d := time.Since(t0)
	r.lt.synthMS = append(r.lt.synthMS, ms(d))
	r.lt.synthSum += ms(d)
	r.lt.synthRuns++
	total += d
	if err != nil {
		if r.ctx.Err() != nil {
			return nil, total, err
		}
		r.lt.bad++
		return nil, total, nil
	}
	if r.store != nil {
		q := *run.QoR
		r.store.Put(key, qorlog.Record{Design: q.Design, Period: q.Period, WNS: q.WNS, CPS: q.CPS, TNS: q.TNS,
			Area: q.Area, Leakage: q.Leakage, Cells: q.Cells, Seq: q.Seq, Violations: q.Violations})
	}
	return run.QoR, total, nil
}

// sample replays one whole sample and records its layer-time total.
func (r *replayer) sample(script func() (string, time.Duration, error), t *chatls.Task) (string, *synth.QoR, time.Duration, error) {
	sc, d1, err := script()
	if err != nil {
		return "", nil, 0, err
	}
	q, d2, err := r.evaluate(t, sc)
	if err != nil {
		return "", nil, 0, err
	}
	r.lt.samples++
	r.lt.sampleSum += ms(d1 + d2)
	return sc, q, d1 + d2, nil
}

// replayRequests replays served requests in arrival order and checks each
// sample against the served reply. It returns, per replayed request, the
// served service time and the replayed layer-time sum.
func replayRequests(r *replayer, s stream, outs []outcome, limit int) (served, layers []float64, err error) {
	tasks := map[string]*chatls.Task{}
	for _, d := range designs.Benchmarks() {
		t, _, err := r.task(d)
		if err != nil {
			return nil, nil, err
		}
		tasks[d.Name] = t
	}
	for i, o := range outs {
		if i >= limit {
			break
		}
		in := s.inputs[o.In]
		var rp reply
		if err := json.Unmarshal(o.Body, &rp); err != nil {
			return nil, nil, fmt.Errorf("replay: request %d: undecodable reply: %v", i, err)
		}
		t := *tasks[in.Design]
		t.Requirement = in.Requirement
		var sum time.Duration
		for smp := 0; smp < in.K; smp++ {
			smp := smp
			sc, q, d, err := r.sample(func() (string, time.Duration, error) { return r.chatlsScript(&t, smp) }, &t)
			if err != nil {
				return nil, nil, err
			}
			sum += d
			if smp >= len(rp.Samples) || !reflect.DeepEqual(q, rp.Samples[smp].QoR) {
				return nil, nil, fmt.Errorf("replay: request %d (%s) sample %d: QoR %+v differs from the served one", i, in.Design, smp, q)
			}
			if smp == rp.BestSample && sc != rp.Script {
				return nil, nil, fmt.Errorf("replay: request %d (%s) sample %d: script differs from the served best script", i, in.Design, smp)
			}
		}
		served = append(served, ms(o.Service))
		layers = append(layers, ms(sum))
	}
	return served, layers, nil
}

// replaySweep replays one Table III sweep serially (fresh checkpoint store,
// a baseline task per evaluation, as RunPassKOpts builds it) and checks
// every cell's best QoR and valid count against the timed sweep's row.
func replaySweep(r *replayer, order []*designs.Design, rows []chatls.Table3Row) error {
	byDesign := map[string]chatls.Table3Row{}
	for _, row := range rows {
		byDesign[row.Design] = row
	}
	raws := []*llm.Model{llm.New(llm.GPT4o, chatls.ProtocolSeed), llm.New(llm.Claude35, chatls.ProtocolSeed)}
	for _, d := range order {
		want := byDesign[d.Name]
		for p := 0; p < len(chatls.Table3Models); p++ {
			t, base, err := r.task(d)
			if err != nil {
				return err
			}
			cell := chatls.Table3Cell{Model: chatls.Table3Models[p], QoR: base}
			best := -1
			for smp := 0; smp < 5; smp++ {
				smp := smp
				script := func() (string, time.Duration, error) { return r.chatlsScript(t, smp) }
				if p < len(raws) {
					m := raws[p]
					script = func() (string, time.Duration, error) { return r.rawScript(m, t, smp) }
				}
				_, q, _, err := r.sample(script, t)
				if err != nil {
					return err
				}
				if q == nil {
					continue
				}
				cell.Valid++
				if best < 0 || chatls.BetterTiming(*q, cell.QoR) {
					cell.QoR, best = *q, smp
				}
			}
			if p >= len(want.Cells) || cell != want.Cells[p] {
				return fmt.Errorf("replay: %s/%s: %+v differs from the timed sweep's cell", d.Name, cell.Model, cell)
			}
		}
	}
	return nil
}

// dirtyNodes counts STA dirty nodes while installed as the process-wide
// observer (traced runs only, after the server has set up).
type dirtyNodes struct{ n, sum atomic.Int64 }

func (dn *dirtyNodes) install() {
	sta.SetDirtyNodesObserver(func(k int) { dn.n.Add(1); dn.sum.Add(int64(k)) })
}

func (dn *dirtyNodes) mean() float64 { return frac(dn.sum.Load(), dn.n.Load()) }
