package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	chatls "repro"
	"repro/internal/designs"
	"repro/internal/llm"
	"repro/internal/qorlog"
	"repro/internal/server"
	"repro/internal/synthrag"
)

// sloMS is the per-request deadline behind goodput and capacity: about
// twice the closed-loop saturation p99 on the serve-unique mix.
const sloMS = 1000

// serveSpec describes one served workload.
type serveSpec struct {
	name string
	rate float64 // offered load of the timed phase, requests per second
	hot  bool    // serve-hot: repeated working set plus a QoR log
}

// stack is the real serving stack, in process, on a loopback listener.
type stack struct {
	db      *synthrag.Database
	srv     *server.Server
	hs      *http.Server
	url     string
	qorDir  string
	served  sync.WaitGroup
	scraper *http.Client // separate from the load connections
}

// startStack builds the database, the server and the listener the way
// chatlsd does with its defaults: checkpoint store and caches on, and a
// QoR log (in a fresh directory under dir) only for the hot mix.
func startStack(spec serveSpec, dir string) (*stack, error) {
	db, err := chatls.BuildDatabase(chatls.ExperimentConfig{Seed: chatls.ProtocolSeed})
	if err != nil {
		return nil, fmt.Errorf("build database: %w", err)
	}
	st := &stack{db: db, scraper: newClient(1)}
	cfg := server.Config{Model: llm.New(llm.GPT4o, chatls.ProtocolSeed), DB: db, Seed: chatls.ProtocolSeed}
	if spec.hot {
		if st.qorDir, err = os.MkdirTemp(dir, "qorlog-"); err != nil {
			return nil, err
		}
		cfg.QoRLogPath = filepath.Join(st.qorDir, "qor.log")
	}
	if st.srv, err = server.New(cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.srv.Handler()}
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return st, nil
}

// stop shuts the listener and the server down and waits for both.
func (st *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = st.hs.Shutdown(ctx) // in-flight requests finished before this returns
	st.served.Wait()
	st.srv.Close()
	st.scraper.CloseIdleConnections()
	if st.qorDir != "" {
		os.RemoveAll(st.qorDir)
	}
}

func (st *stack) snapshot() snapshot {
	return takeSnapshot(st.scraper, st.url+"/metrics", st.db, st.srv.QoRStats)
}

// newStream is the workload's seeded request stream for a timed phase of
// the given length.
func newStream(spec serveSpec, seed int64, names []string, seconds int) stream {
	n := int(spec.rate * float64(seconds))
	if spec.hot {
		return hotStream(seed, names, n, spec.rate)
	}
	return uniqueStream(seed, names, n, spec.rate)
}

// warm brings a fresh stack to steady state before timing: the serve-unique
// stack sees one k=1 request per design (baseline tasks, embeddings,
// retrievals and checkpoints cached), the serve-hot stack additionally
// serves its whole hot set once, which fills the QoR log with it.
func (st *stack) warm(ctx context.Context, client *http.Client, spec serveSpec, s stream, names []string) error {
	var warm []input
	for _, n := range names {
		warm = append(warm, input{Design: n, Requirement: tagged("w", n, 1, 0), K: 1})
	}
	if spec.hot {
		warm = append(warm, s.inputs[:hotKeys]...)
	}
	var arr []arrival
	for i := range warm {
		arr = append(arr, arrival{In: i})
	}
	for _, o := range newLoadGen(client, st.url+"/v1/customize", warm, false).run(ctx, arr) {
		if o.Err != nil || o.Status != 200 {
			return fmt.Errorf("warm-up request for %s: status %d: %v", warm[o.In].Design, o.Status, o.Err)
		}
	}
	return nil
}

// The timed phase of a served workload is `rounds` rounds, each an
// open-loop slice of the seeded stream followed by a closed-loop chunk
// that re-sends the slice's requests capRepeat times back to back. The
// stream covers openShare of --seconds and the chunks take about the rest.
// An untraced run gives each round its own process (see parts.go); a
// traced run runs them all in one.
const (
	rounds    = 3
	openShare = 0.65
	capRepeat = 2
)

// slices splits a stream's arrivals into n consecutive slices, each
// rebased to start at zero.
func (s stream) slices(n int) [][]arrival {
	if len(s.arrivals) == 0 {
		return nil
	}
	span := s.arrivals[len(s.arrivals)-1].At
	out := make([][]arrival, n)
	for _, a := range s.arrivals {
		j := min(int(int64(a.At)*int64(n)/int64(span+1)), n-1)
		out[j] = append(out[j], arrival{At: a.At - time.Duration(int64(span+1)*int64(j)/int64(n)), In: a.In})
	}
	return out
}

// runServe runs one served workload in this process: set up (setupReps
// times), then the timed rounds (only round `only`, or all when it is
// negative), checking every reply against its reference. On traced runs
// it then replays the inputs layer by layer and adds the per-layer rows.
func runServe(ctx context.Context, spec serveSpec, seed int64, seconds, only int, trace bool, dir string, rep *report) (*part, error) {
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, d := range designs.Benchmarks() {
		names = append(names, d.Name)
	}
	conns := runtime.NumCPU()
	s := newStream(spec, seed, names, int(openShare*float64(seconds)))
	res := &part{}

	// Set up setupReps times; keep the last stack.
	var st *stack
	client := newClient(conns)
	defer client.CloseIdleConnections()
	for r := 0; r < setupReps; r++ {
		if st != nil {
			st.stop()
			st = nil
			runtime.GC()
		}
		t0 := time.Now()
		if st, err = startStack(spec, dir); err != nil {
			return nil, err
		}
		if err = st.warm(ctx, client, spec, s, names); err != nil {
			st.stop()
			return nil, err
		}
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			st.stop()
		}
	}()

	drv := newLoadGen(client, st.url+"/v1/customize", s.inputs, trace)
	drv.refs = refs
	var smp *sampler
	var dirty *dirtyNodes
	replayLog := filepath.Join(dir, "replay-qor.log")
	if trace {
		if spec.hot {
			if err = copyFile(filepath.Join(st.qorDir, "qor.log"), replayLog); err != nil {
				return nil, err
			}
		}
		dirty = &dirtyNodes{}
		dirty.install()
		smp = startSampler(st.scraper, st.url+"/metrics")
	}
	capT := newCapacityTally(conns)
	var outs []outcome // open-loop outcomes, in arrival order
	before := st.snapshot()
	for i, sl := range s.slices(rounds) {
		if only >= 0 && i != only {
			continue
		}
		t0 := time.Now()
		outs = append(outs, drv.run(ctx, sl)...)
		res.OpenSecs += time.Since(t0).Seconds()
		var work []int
		for range capRepeat {
			for _, a := range sl {
				work = append(work, a.In)
			}
		}
		capT.run(ctx, drv, s.kinds, work, newRand(seed^0x6361706163697479+int64(i)))
	}
	after := st.snapshot()
	res.RSSMB = peakRSSMB()
	var qdepthMax, heapPeak float64
	if smp != nil {
		qdepthMax, heapPeak = smp.stop()
	}

	v := judge(outs, s.inputs, refs, sloMS)
	cv := judge(capT.outs, s.inputs, refs, sloMS)
	for _, e := range []error{v.firstErr, cv.firstErr} {
		if e != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", e)
		}
	}
	res.Attempted, res.Failed = v.attempted+cv.attempted, v.failed+cv.failed
	res.Wrong, res.Degraded = v.wrong+cv.wrong, v.degraded+cv.degraded
	res.Good, res.GoodSamples = v.good, v.goodSamples
	res.CapGood, res.CapBusy, res.CapReqs = capT.good, capT.busy, len(capT.outs)
	samples := 0
	for _, o := range append(append([]outcome(nil), outs...), capT.outs...) {
		if o.Err == nil && o.Status == 200 {
			res.Ops++
			samples += s.inputs[o.In].K
		}
	}
	res.CPUms = ms(after.cpu - before.cpu)
	for _, o := range outs {
		res.Lat = append(res.Lat, ms(o.Latency))
		res.Lag = append(res.Lag, ms(o.Lag))
		res.Kinds = append(res.Kinds, s.kinds[o.In])
	}
	if !trace {
		return res, nil
	}
	// The replay needs the server gone: it reuses the database serially and,
	// on the hot mix, reopens the QoR log as it stood when set-up ended.
	stopped = true
	st.stop()
	var store *qorlog.Store
	if spec.hot {
		if store, err = qorlog.OpenStore(replayLog, 0, qorlog.Options{}); err != nil {
			return nil, err
		}
		defer store.Close()
	}
	r := newReplayer(ctx, st.db, store)
	p := &phase{before: before, after: after, ops: res.Ops, samples: samples, qdepthMax: qdepthMax, heapPeakMB: heapPeak, dirty: dirty}
	if p.e2eMS, p.layerMS, err = replayRequests(r, s, outs, replayRequestsMax); err != nil {
		return nil, err
	}
	p.lt = r.lt
	addLayerRows(rep, p)
	return res, nil
}

// serveRows adds the end-to-end rows of a served workload.
func serveRows(rep *report, spec serveSpec, p *part) {
	rep.add(kindE2E, "setup_s", "s", median(p.Setups), fmt.Sprintf("median of %d set-ups: database build, server.New, warm-up", len(p.Setups)))
	rep.add(kindE2E, "latency_p50_ms", "ms", kindQuantile(p.Lat, p.Kinds, 0.5),
		fmt.Sprintf("per-kind median from scheduled send, %d requests of %d kinds at %.0f req/s (whole-mix p50 %.1f ms)",
			len(p.Lat), len(distinct(p.Kinds)), spec.rate, median(p.Lat)))
	rep.add(kindInfo, "latency_p90_ms", "ms", kindQuantile(p.Lat, p.Kinds, 0.9),
		fmt.Sprintf("per-kind p90; whole-mix p90 %.1f ms (%d beyond), p95 %.1f ms (%d beyond)",
			quantile(p.Lat, 0.9), len(p.Lat)/10, quantile(p.Lat, 0.95), len(p.Lat)/20))
	rep.add(kindE2E, "goodput_rps", "1/s", float64(p.Good)/p.OpenSecs,
		fmt.Sprintf("%d of %d open-loop replies 200, correct, undegraded, within %d ms", p.Good, len(p.Lat), sloMS))
	rep.add(kindE2E, "samples_per_s", "1/s", float64(p.GoodSamples)/p.OpenSecs, "Pass@k samples in good open-loop replies")
	rep.add(kindE2E, "capacity_rps", "1/s", p.capacity(),
		fmt.Sprintf("saturation goodput: %d requests, %d clients closed loop", p.CapReqs, len(p.CapGood)))
	rep.add(kindE2E, "cpu_ms_per_op", "ms", p.CPUms/float64(max(p.Ops, 1)), fmt.Sprintf("process CPU over %d completed requests, open and closed loop", p.Ops))
	rep.add(kindE2E, "peak_rss_mb", "MB", p.RSSMB, "process peak RSS through the timed phase")
	rep.add(kindInfo, "fail_frac", "ratio", frac(int64(p.Failed), int64(p.Attempted)), fmt.Sprintf("of %d attempted (open and closed loop)", p.Attempted))
	rep.add(kindInfo, "wrong_frac", "ratio", frac(int64(p.Wrong), int64(p.Attempted)), "replies differing from the serial cache-free reference; must be 0")
	rep.add(kindInfo, "degraded_frac", "ratio", frac(int64(p.Degraded), int64(p.Attempted)), "replies with a degraded marker")
	rep.add(kindInfo, "sched_lag_p95_ms", "ms", quantile(p.Lag, 0.95), "how late the generator sent; validity check")
}

// distinct returns the set of xs.
func distinct(xs []string) map[string]bool {
	m := map[string]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// replayRequestsMax bounds how many of the timed phase's requests the
// traced replay re-runs (in arrival order), keeping a traced run short.
const replayRequestsMax = 60

// copyFile copies src to dst.
func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// sampler polls the server's queue-depth gauge and the live heap during a
// traced timed phase.
type sampler struct {
	done     chan struct{}
	finished chan struct{}
	qmax     float64
	heapMax  float64
}

func startSampler(client *http.Client, url string) *sampler {
	s := &sampler{done: make(chan struct{}), finished: make(chan struct{})}
	go func() {
		defer close(s.finished)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			if url != "" {
				if q := scrape(client, url)["chatlsd_queue_depth"]; q > s.qmax {
					s.qmax = q
				}
			}
			if h := heapInUseBytes(); h > s.heapMax {
				s.heapMax = h
			}
			select {
			case <-s.done:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// stop ends sampling and returns the largest queue depth and live heap
// (MiB) seen.
func (s *sampler) stop() (qmax, heapMB float64) {
	close(s.done)
	<-s.finished
	return s.qmax, s.heapMax / (1 << 20)
}
