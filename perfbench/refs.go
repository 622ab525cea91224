package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/synth"
)

// refs.json pins the expected output of everything the benchmark can ask
// for: for each pool request the serve workloads may send, the digest of
// its reference result from the serial, cache-free path (a database built
// without caches or batching, chatls.EvalTaskOpts with one worker and no
// stores); for passk-offline, the digest of each design's row of the
// serial Table III. Regenerate it with --write-refs after an intended
// change of outputs.
const refsPath = "perfbench/refs.json"

//go:embed refs.json
var refsJSON []byte

// Pool sizes covered by refs.json: unique requests per (design, k) and
// fresh hot-mix requests per design. A run that needs more fails.
const (
	refUniquePer = 48
	refFreshPer  = 24
)

type refFile struct {
	PoolSeed int64             `json:"pool_seed"`
	Serve    map[string]string `json:"serve"`
	Offline  map[string]string `json:"offline"`
}

// refKey names a request in refs.json: design, k and the ticket tag.
func refKey(in input) string {
	return fmt.Sprintf("%s|%d|%s", in.Design, in.K, strings.TrimPrefix(in.Requirement, chatls.DefaultRequirement))
}

// canon is the part of a result the correctness check compares: best,
// best_sample, valid, the best script and each sample's QoR (or failure),
// plus the baseline.
type canon struct {
	Baseline   synth.QoR
	Best       synth.QoR
	BestSample int
	Valid      int
	Script     string
	Samples    []canonSample
}

type canonSample struct {
	QoR    *synth.QoR
	Failed bool
}

func canonOfResult(r *chatls.EvalResult) canon {
	c := canon{Baseline: r.Baseline, Best: r.Best, BestSample: r.BestSample, Valid: r.Valid}
	if r.BestSample >= 0 {
		c.Script = r.Samples[r.BestSample].Script
	}
	for _, s := range r.Samples {
		c.Samples = append(c.Samples, canonSample{QoR: s.QoR, Failed: s.Err != ""})
	}
	return c
}

func canonOfReply(r *reply) canon {
	c := canon{Baseline: r.Baseline, Best: r.Best, BestSample: r.BestSample, Valid: r.Valid, Script: r.Script}
	for _, s := range r.Samples {
		c.Samples = append(c.Samples, canonSample{QoR: s.QoR, Failed: s.Error != ""})
	}
	return c
}

// digest is a truncated SHA-256 of v's JSON encoding; float64 values
// encode in their shortest exact form, so equal digests mean equal bits.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // QoR structs, strings and ints always marshal
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:16])
}

func rowDigest(r chatls.Table3Row) string { return digest(r.Cells) }

func loadRefs() (*refFile, error) {
	var f refFile
	if err := json.Unmarshal(refsJSON, &f); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", refsPath, err)
	}
	if f.PoolSeed != poolSeed {
		return nil, fmt.Errorf("%s was written for pool seed %d, not %d", refsPath, f.PoolSeed, poolSeed)
	}
	return &f, nil
}

// refPool lists every request refs.json covers.
func refPool() []input {
	var names []string
	for _, d := range designs.Benchmarks() {
		names = append(names, d.Name)
	}
	var pool []input
	for _, d := range names {
		for _, k := range []int{1, 5} {
			for i := 0; i < refUniquePer; i++ {
				pool = append(pool, input{Design: d, Requirement: tagged("u", d, k, i), K: k})
			}
		}
	}
	pool = append(pool, hotSet(names)...)
	for i := 0; i < refFreshPer; i++ {
		for _, d := range names {
			pool = append(pool, input{Design: d, Requirement: tagged("f", d, 5, i), K: 5})
		}
	}
	return pool
}

// writeRefs computes every reference on the serial cache-free path and
// writes refs.json.
func writeRefs(ctx context.Context) error {
	pool := refPool()
	res, err := references(ctx, pool, runtime.NumCPU())
	if err != nil {
		return err
	}
	f := refFile{PoolSeed: poolSeed, Serve: map[string]string{}, Offline: map[string]string{}}
	for i, in := range pool {
		f.Serve[refKey(in)] = digest(canonOfResult(res[i]))
	}
	rows, err := offlineReference(ctx)
	if err != nil {
		return err
	}
	for _, r := range rows {
		f.Offline[r.Design] = rowDigest(r)
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(refsPath, append(b, '\n'), 0o644)
}
