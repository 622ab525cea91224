package main

import (
	"bufio"
	"io"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/qorlog"
	"repro/internal/sta"
	"repro/internal/synthrag"
	"repro/internal/vecindex"
)

// snapshot is every counter the program exposes, read at one instant. The
// benchmark takes one before and one after each timed phase and derives the
// per-layer counts and ratios from the difference.
type snapshot struct {
	at       time.Time
	prom     map[string]float64 // /metrics, keyed by series name
	cache    synthrag.CacheStats
	batch    batch.Stats
	qor      qorlog.StoreStats
	staFull  uint64
	staIncr  uint64
	hnswHops int64
	cpu      time.Duration // process user+system CPU (rusage)
	gcCPU    float64       // runtime/metrics, CPU seconds
	totCPU   float64       // runtime/metrics, CPU seconds
	allocB   float64       // cumulative heap allocation, bytes
}

// takeSnapshot reads the counters. db, qor and metricsURL may be zero when
// the phase has no such layer (no server offline, no store storeless).
func takeSnapshot(client *http.Client, metricsURL string, db *synthrag.Database, qor func() qorlog.StoreStats) snapshot {
	s := snapshot{
		at:       time.Now(),
		staFull:  sta.FullAnalyses(),
		staIncr:  sta.IncrementalUpdates(),
		hnswHops: vecindex.HNSWHops(),
		cpu:      processCPU(),
	}
	if metricsURL != "" {
		s.prom = scrape(client, metricsURL)
	}
	if db != nil {
		s.cache = db.CacheStats()
		s.batch = db.BatchStats()
	}
	if qor != nil {
		s.qor = qor()
	}
	rt := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(rt)
	s.gcCPU, s.totCPU, s.allocB = rtFloat(rt[0]), rtFloat(rt[1]), rtFloat(rt[2])
	return s
}

func rtFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// heapInUseBytes is the live heap object bytes right now.
func heapInUseBytes() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return rtFloat(s[0])
}

// scrape parses the Prometheus text exposition into series -> value. A
// failed scrape yields an empty map (every delta then reads 0).
func scrape(client *http.Client, url string) map[string]float64 {
	out := map[string]float64{}
	resp, err := client.Get(url)
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return out
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// delta is after minus before for one /metrics series.
func promDelta(before, after snapshot, name string) float64 {
	return after.prom[name] - before.prom[name]
}
