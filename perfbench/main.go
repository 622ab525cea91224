// Command perfbench is the repository benchmark: it starts the real ChatLS
// serving stack in process, drives it with seeded open-loop request
// streams, runs the offline Pass@5 sweep, checks every output against a
// serial cache-free reference, and prints end-to-end metrics (or, with
// --trace 1, per-layer metrics from a serial replay of the same inputs).
//
//	bash perfbench/run.sh --workload serve-unique --seed 1 --seconds 30 --trace 0
//
// run from the repository root (run.sh builds this module first).
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// A human-readable report of every metric goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"
)

// setupReps is how many times each process of a run sets up; setup_s is
// the median over all of a run's set-ups.
const setupReps = 2

// serveSpecs are the served workloads. The rates are about 30% of the
// closed-loop capacity of their mixes on 2 vCPUs (about 20 and 33 req/s).
// Closer to saturation a few percent of CPU lost to a neighbour on a
// shared host becomes a queue: at 12 and 20 req/s the latency quantiles
// moved by 30% and more between runs, at 8 and 12 req/s by up to 23%.
var serveSpecs = map[string]serveSpec{
	"serve-unique": {name: "serve-unique", rate: 6},
	"serve-hot":    {name: "serve-hot", rate: 10, hot: true},
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func main() {
	workload := flag.String("workload", "", "serve-unique, serve-hot or passk-offline")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from the traced replay")
	refs := flag.Bool("write-refs", false, "recompute "+refsPath+" on the serial cache-free path and exit")
	partN := flag.Int("part", -1, "internal: measure round N of an untraced run in this process and print it")
	flag.Parse()
	if *refs {
		if err := writeRefs(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *trace == 1, *partN); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// run measures a workload: in rounds child processes for an untraced run,
// in this process for a traced run or a child's part. Only the whole run
// prints the report and the result line; a part prints what it measured.
func run(workload string, seed int64, seconds int, trace bool, only int) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds %d: must be at least 1", seconds)
	}
	spec, serve := serveSpecs[workload]
	if !serve && workload != "passk-offline" {
		return fmt.Errorf("unknown --workload %q", workload)
	}
	// A hard stop well inside the three minutes a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	rep := &report{workload: workload}
	var p *part
	if trace || only >= 0 {
		// Scratch files (the serve-hot QoR log) live in the working tree.
		dir, err := os.MkdirTemp(".", ".perfbench-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if serve {
			p, err = runServe(ctx, spec, seed, seconds, only, trace, dir, rep)
		} else {
			secs := float64(seconds)
			if only >= 0 {
				secs /= rounds
			}
			p, err = runOffline(ctx, seed+int64(max(only, 0))<<32, secs, trace, rep)
		}
		if err != nil {
			return err
		}
		if only >= 0 {
			b, err := json.Marshal(p)
			if err != nil {
				return err
			}
			_, err = fmt.Printf("%s\n", b)
			return err
		}
	} else {
		parts, err := runParts(ctx, workload, seed, seconds)
		if err != nil {
			return err
		}
		p = pooled(parts)
	}
	if serve {
		serveRows(rep, spec, p)
	} else {
		offlineRows(rep, p)
	}
	rep.write(os.Stderr)
	correct := p.Wrong == 0
	res, err := rep.result(trace, correct, p.Attempted, p.Failed)
	if err != nil {
		return err
	}
	if err := printResult(res); err != nil {
		return err
	}
	if !correct {
		return fmt.Errorf("%s: outputs differ from the reference (wrong_frac > 0)", workload)
	}
	return nil
}
