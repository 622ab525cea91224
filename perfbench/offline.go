package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/synth"
	"repro/internal/synthrag"
)

// offlineSweep is one passk-offline operation: a Table III Pass@5 sweep over
// the seven benchmark designs and the three pipelines, with a fresh
// checkpoint store, on nproc sample workers.
func offlineSweep(ctx context.Context, db *synthrag.Database, order []*designs.Design, ckpt *synth.CheckpointStore) ([]chatls.Table3Row, error) {
	return chatls.Table3(ctx, chatls.ExperimentConfig{
		Seed:        chatls.ProtocolSeed,
		K:           5,
		Workers:     runtime.NumCPU(),
		Designs:     order,
		Checkpoints: ckpt,
	}, db)
}

// designOrder is the seeded design order of one sweep. Order changes
// neither the work nor the rows, only which design's samples run first.
func designOrder(rng *rand.Rand) []*designs.Design {
	ds := designs.Benchmarks()
	rng.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds
}

// checkRows compares a sweep's rows with the reference Table III rows,
// design by design: every cell's best QoR and valid-sample count must be
// identical.
func checkRows(got []chatls.Table3Row, refs *refFile) error {
	if len(got) != len(refs.Offline) {
		return fmt.Errorf("%d rows, reference %d", len(got), len(refs.Offline))
	}
	for _, r := range got {
		if want, ok := refs.Offline[r.Design]; !ok || rowDigest(r) != want {
			return fmt.Errorf("%s: row %+v differs from the reference", r.Design, r.Cells)
		}
	}
	return nil
}

// runOffline runs passk-offline in this process: build the database as
// cmd/experiments does (no embedding cache, no batching) and warm up with
// one sweep, setupReps times, then run sweeps back to back for the timed
// phase (seconds/rounds of it for an untraced part) and check every
// sweep's rows against the reference. On traced runs it then replays one
// sweep layer by layer and adds the per-layer rows.
func runOffline(ctx context.Context, seed int64, seconds float64, trace bool, rep *report) (*part, error) {
	rng := newRand(seed)
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	res := &part{}
	var db *synthrag.Database
	for r := 0; r < setupReps; r++ {
		db = nil
		runtime.GC()
		t0 := time.Now()
		if db, err = chatls.BuildDatabase(chatls.ExperimentConfig{Seed: chatls.ProtocolSeed}); err != nil {
			return nil, err
		}
		if _, err = offlineSweep(ctx, db, designOrder(rng), synth.NewCheckpointStore(0)); err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
	}

	var smp *sampler
	var dirty *dirtyNodes
	if trace {
		dirty = &dirtyNodes{}
		dirty.install()
		smp = startSampler(nil, "")
	}
	before := takeSnapshot(nil, "", db, nil)
	var orders [][]*designs.Design
	var rows [][]chatls.Table3Row
	var ckpt synth.CheckpointStats
	deadline := before.at.Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		order := designOrder(rng)
		store := synth.NewCheckpointStore(0)
		t0 := time.Now()
		got, err := offlineSweep(ctx, db, order, store)
		cs := store.Stats()
		ckpt.Hits += cs.Hits
		ckpt.Misses += cs.Misses
		res.Sweeps = append(res.Sweeps, ms(time.Since(t0)))
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: sweep %d: %v\n", res.Attempted, err)
			continue
		}
		orders = append(orders, order)
		rows = append(rows, got)
	}
	after := takeSnapshot(nil, "", db, nil)
	res.RSSMB = peakRSSMB()
	var heapPeak float64
	if smp != nil {
		_, heapPeak = smp.stop()
	}
	for i, got := range rows {
		if err := checkRows(got, refs); err != nil {
			res.Wrong++
			fmt.Fprintf(os.Stderr, "perfbench: sweep %d differs from the serial Table III rows: %v\n", i+1, err)
		}
	}
	samples := 5 * sweepCells()
	res.Ops = len(rows) * samples
	res.CPUms = ms(after.cpu - before.cpu)

	if !trace || len(rows) == 0 {
		return res, nil
	}
	r := newReplayer(ctx, db, nil)
	if err := replaySweep(r, orders[0], rows[0]); err != nil {
		return nil, err
	}
	layerSum := r.lt.sampleSum + sum(r.lt.baselineMS)
	p := &phase{
		before: before, after: after, ops: res.Ops, samples: res.Ops,
		heapPeakMB: heapPeak, dirty: dirty, ckpt: &ckpt, lt: r.lt,
		e2eMS:   []float64{res.CPUms / float64(len(res.Sweeps))},
		layerMS: []float64{layerSum},
	}
	addLayerRows(rep, p)
	return res, nil
}

// sweepCells is the number of Table III cells (Pass@5 evaluations) in one
// sweep.
func sweepCells() int { return len(chatls.Table3Models) * len(designs.Benchmarks()) }

// offlineRows adds the end-to-end rows of passk-offline. Throughput is
// taken at the median sweep time rather than as work over the whole phase:
// the median is not moved by a burst from a neighbour on a shared host
// that covers fewer than half of the sweeps. Failed or wrong sweeps fail
// the run through "failed" and "correct".
func offlineRows(rep *report, p *part) {
	cells := sweepCells()
	samples := 5 * cells
	p50 := median(p.Sweeps)
	rep.add(kindE2E, "setup_s", "s", median(p.Setups), fmt.Sprintf("median of %d set-ups: database build and one warm-up sweep", len(p.Setups)))
	rep.add(kindE2E, "latency_p50_ms", "ms", p50, fmt.Sprintf("one Table III Pass@5 sweep (%d samples), %d sweeps", samples, len(p.Sweeps)))
	rep.add(kindInfo, "latency_p90_ms", "ms", quantile(p.Sweeps, 0.9), fmt.Sprintf("%d sweeps", len(p.Sweeps)))
	rep.add(kindE2E, "goodput_rps", "1/s", float64(cells)/(p50/1000), "correct Pass@5 evaluations (Table III cells) per second, at the median sweep time")
	rep.add(kindE2E, "samples_per_s", "1/s", float64(samples)/(p50/1000), "Pass@5 samples per second, at the median sweep time")
	rep.add(kindE2E, "capacity_rps", "1/s", float64(cells)/(p50/1000), "offline runs saturated: capacity equals goodput")
	rep.add(kindE2E, "cpu_ms_per_op", "ms", p.CPUms/float64(max(p.Ops, 1)), "process CPU per sample")
	rep.add(kindE2E, "peak_rss_mb", "MB", p.RSSMB, "process peak RSS through the timed phase")
	rep.add(kindInfo, "fail_frac", "ratio", frac(int64(p.Failed), int64(p.Attempted)), fmt.Sprintf("of %d sweeps", p.Attempted))
	rep.add(kindInfo, "wrong_frac", "ratio", frac(int64(p.Wrong), int64(p.Attempted)), "sweeps differing from the serial Table III rows; must be 0")
}

// offlineReference is the serial Table III at the protocol seed: one
// worker, no checkpoint or result stores, on its own database.
func offlineReference(ctx context.Context) ([]chatls.Table3Row, error) {
	return chatls.Table3(ctx, chatls.ExperimentConfig{Seed: chatls.ProtocolSeed, K: 5, Workers: 1}, nil)
}
