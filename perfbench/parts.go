package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// An untraced run measures in `rounds` fresh processes, one after the
// other, each setting up on its own and running one round of the timed
// phase; the run pools what they measured. On a shared 2-vCPU host the
// speed of this program differs from process to process for the same work:
// in six processes that each sent the same closed-loop chunk ten times,
// the process means of the rate spread about 1.6 times as much as the noise
// inside a process predicts. A run of one process reads that process's
// luck; pooling several averages it out, as JMH's forks do. A traced run
// stays in one process, because its counters and replay belong to one
// server.

// part is what one process measured: the raw observations, not yet reduced
// to metrics, so that several processes pool exactly.
type part struct {
	Setups []float64 `json:"setups"` // seconds per set-up

	// Served workloads: open-loop replies, closed-loop chunks.
	Lat         []float64 `json:"lat"` // open-loop latency from the scheduled send, ms
	Kinds       []string  `json:"kinds"`
	Lag         []float64 `json:"lag"` // how late each open-loop request was sent, ms
	OpenSecs    float64   `json:"open_secs"`
	Good        int       `json:"good"` // open-loop replies 200, correct, undegraded, within the SLO
	GoodSamples int       `json:"good_samples"`
	CapGood     []int     `json:"cap_good"`     // per closed-loop client
	CapBusy     []float64 `json:"cap_busy"`     // per closed-loop client, seconds
	CapReqs     int       `json:"cap_requests"` // closed-loop requests sent

	// Offline: the time of each sweep, ms.
	Sweeps []float64 `json:"sweeps"`

	// Every workload.
	Attempted int     `json:"attempted"` // requests, or sweeps offline
	Failed    int     `json:"failed"`
	Wrong     int     `json:"wrong"`
	Degraded  int     `json:"degraded"`
	CPUms     float64 `json:"cpu_ms"` // process CPU over the timed phase
	Ops       int     `json:"ops"`    // completed requests, or samples offline
	RSSMB     float64 `json:"rss_mb"`
}

// runParts runs one child process per round and returns what each
// measured. Each child is this program with --part; it shares the run's
// seed and deadline, and the run waits for it to end.
func runParts(ctx context.Context, workload string, seed int64, seconds int) ([]*part, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var parts []*part
	for i := 0; i < rounds; i++ {
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--part", strconv.Itoa(i))
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		cmd.WaitDelay = 5 * time.Second
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		p := &part{}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), p); err != nil {
			return nil, fmt.Errorf("part %d: reading its result: %w", i, err)
		}
		parts = append(parts, p)
	}
	return parts, nil
}

// pooled merges parts: observations are concatenated and counts summed;
// per-client closed-loop tallies add up client by client.
func pooled(parts []*part) *part {
	all := &part{}
	for _, p := range parts {
		all.Setups = append(all.Setups, p.Setups...)
		all.Lat = append(all.Lat, p.Lat...)
		all.Kinds = append(all.Kinds, p.Kinds...)
		all.Lag = append(all.Lag, p.Lag...)
		all.Sweeps = append(all.Sweeps, p.Sweeps...)
		all.OpenSecs += p.OpenSecs
		all.Good += p.Good
		all.GoodSamples += p.GoodSamples
		all.CapReqs += p.CapReqs
		for c := range p.CapGood {
			if c >= len(all.CapGood) {
				all.CapGood = append(all.CapGood, 0)
				all.CapBusy = append(all.CapBusy, 0)
			}
			all.CapGood[c] += p.CapGood[c]
			all.CapBusy[c] += p.CapBusy[c]
		}
		all.Attempted += p.Attempted
		all.Failed += p.Failed
		all.Wrong += p.Wrong
		all.Degraded += p.Degraded
		all.CPUms += p.CPUms
		all.Ops += p.Ops
		all.RSSMB = max(all.RSSMB, p.RSSMB)
	}
	return all
}

// capacity is the saturation goodput: the sum over closed-loop clients of
// good replies per second of that client's busy time. At the end of a
// chunk a client that has run out of work waits for the others; that wait
// depends only on which request happened to come last, so it is left out.
func (p *part) capacity() float64 {
	r := 0.0
	for c := range p.CapGood {
		if p.CapBusy[c] > 0 {
			r += float64(p.CapGood[c]) / p.CapBusy[c]
		}
	}
	return r
}
