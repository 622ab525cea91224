package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"sort"
	"sync"
	"time"

	chatls "repro"
)

// input is one distinct POST /v1/customize body. The server receives only
// these generated bodies; everything about them derives from the seed.
type input struct {
	Design      string `json:"design"`
	Requirement string `json:"requirement"`
	K           int    `json:"k"`
}

// arrival schedules one send of inputs[In] at offset At from the start of a
// phase.
type arrival struct {
	At time.Duration
	In int
}

// stream is a seeded open-loop request schedule over a table of distinct
// inputs (several arrivals may share an input on the hot mix). kinds[i]
// names the kind of inputs[i]: requests of one kind do the same work, so
// their latencies come from one distribution.
type stream struct {
	inputs   []input
	kinds    []string
	arrivals []arrival
}

// generatorKeywords are the requirement words the simulated generator reads
// as evidence. Ticket tags must contain none of them, so a tag changes the
// prompt-seeded sampling but never what the generator is asked to do.
var generatorKeywords = []string{"timing", "close", "slack", "violation", "area", "smaller"}

// tagAlphabet has no vowels, so no English word (and no generator keyword)
// can appear inside a tag.
const tagAlphabet = "BCDFGHJKLMNPQRSTVWXZ23456789"

// ticketTag draws a requirement suffix that makes a request unique.
func ticketTag(rng *rand.Rand) string {
	b := make([]byte, 10)
	for i := range b {
		b[i] = tagAlphabet[rng.Intn(len(tagAlphabet))]
	}
	return " (ticket " + string(b) + ")"
}

// poolSeed fixes the ticket tags of every request the benchmark can send,
// so every run of a workload does the same work and replies can be checked
// against the references in refs.json. The workload seed sets the order and
// the arrival times. (Drawing tags from the workload seed made the work
// itself differ between seeds: cpu_ms_per_op moved by about 10% between
// seeds at 126 requests, on top of the run-to-run noise.)
const poolSeed = 20250706

// tagged is the i-th pool requirement of one stream (kind "u" unique,
// "h" hot set, "f" fresh) for a design and k: the default requirement plus a
// ticket tag derived from the pool seed. Prefixes are stable, so a longer
// run sends a superset of a shorter run's requests.
func tagged(kind, design string, k, i int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d|%d", poolSeed, kind, design, k, i)
	return chatls.DefaultRequirement + ticketTag(rand.New(rand.NewSource(int64(h.Sum64()))))
}

// poissonTimes returns n arrival offsets of a Poisson process at the given
// rate, conditioned on exactly n arrivals in [0, n/rate): sorted uniform
// draws from the pool seed. Every run offers the same load with the same
// bursts; the workload seed decides which requests meet them. (Drawing the
// instants from the workload seed as well left the latency quantiles
// noticeably less steady from run to run.)
func poissonTimes(n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(poolSeed))
	span := float64(n) / rate
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = rng.Float64() * span
	}
	sort.Float64s(ts)
	out := make([]time.Duration, n)
	for i, t := range ts {
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// uniqueStream is the serve-unique mix: n requests (rounded to whole
// strata) on the chatls pipeline, each with its own ticket tag. Designs
// and k ∈ {1, 5} are stratified, every (design, k) pair equally often, in
// seeded order: each draw is uniform while the work mix is the same for
// every seed. The seed sets which request fills each arrival slot, with
// each (design, k) pair spread evenly over the phase.
func uniqueStream(seed int64, designs []string, n int, rate float64) stream {
	rng := rand.New(rand.NewSource(seed))
	per := max(1, n/(2*len(designs)))
	var s stream
	for _, d := range designs {
		for _, k := range []int{1, 5} {
			for i := 0; i < per; i++ {
				s.inputs = append(s.inputs, input{Design: d, Requirement: tagged("u", d, k, i), K: k})
			}
		}
	}
	rng.Shuffle(len(s.inputs), func(i, j int) { s.inputs[i], s.inputs[j] = s.inputs[j], s.inputs[i] })
	for _, in := range s.inputs {
		s.kinds = append(s.kinds, fmt.Sprintf("%s|%d", in.Design, in.K))
	}
	order := interleave(rng, s.kinds)
	for i, at := range poissonTimes(len(s.inputs), rate) {
		s.arrivals = append(s.arrivals, arrival{At: at, In: order[i]})
	}
	return s
}

// Hot-mix shape: hotKeys (design, requirement) pairs take hotShare of the
// requests with Zipf(zipfS) popularity; the rest carry fresh tags.
const (
	hotKeys  = 14
	hotShare = 0.8
	zipfS    = 1.0
)

// hotStream is the serve-hot mix, all k=5. inputs[0:hotKeys] are the hot
// set by popularity rank: rank r is design r mod len(designs) with
// requirement variant r / len(designs), so every design appears twice.
// Request counts per rank are the Zipf quotas (largest remainder) and the
// fresh requests are spread evenly over the designs, so the mix is the same
// for every seed; the seed sets the order.
func hotStream(seed int64, designs []string, n int, rate float64) stream {
	rng := rand.New(rand.NewSource(seed))
	s := stream{inputs: hotSet(designs)}
	for r := range s.inputs {
		s.kinds = append(s.kinds, fmt.Sprint("hot|", r)) // each hot key is its own kind
	}
	nHot := int(math.Round(hotShare * float64(n)))
	var seq []int
	for r, c := range zipfQuotas(hotKeys, nHot) {
		for j := 0; j < c; j++ {
			seq = append(seq, r)
		}
	}
	for i := 0; i < n-nHot; i++ {
		d := designs[i%len(designs)]
		s.inputs = append(s.inputs, input{Design: d, Requirement: tagged("f", d, 5, i/len(designs)), K: 5})
		s.kinds = append(s.kinds, "fresh|"+d)
		seq = append(seq, len(s.inputs)-1)
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	kinds := make([]string, len(seq))
	for i, in := range seq {
		kinds[i] = s.kinds[in]
	}
	order := interleave(rng, kinds)
	for i, at := range poissonTimes(n, rate) {
		s.arrivals = append(s.arrivals, arrival{At: at, In: seq[order[i]]})
	}
	return s
}

// interleave orders items so that each kind's occurrences spread evenly
// over the sequence: the j-th of c occurrences of a kind lands at a seeded
// point in the j-th c-th of it. Every position still holds a seeded draw,
// but the slow requests of one kind (jpeg or aes at k=5, fresh requests
// that miss the store) cannot bunch up by chance. Left to a plain shuffle,
// such bunches queued behind one another and made the tail latency swing
// from seed to seed.
func interleave(rng *rand.Rand, kinds []string) []int {
	count := map[string]int{}
	for _, k := range kinds {
		count[k]++
	}
	seen := map[string]int{}
	key := make([]float64, len(kinds))
	order := make([]int, len(kinds))
	for i, k := range kinds {
		key[i] = (float64(seen[k]) + rng.Float64()) / float64(count[k])
		seen[k]++
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return key[order[a]] < key[order[b]] })
	return order
}

// hotSet is the serve-hot working set, by popularity rank.
func hotSet(designs []string) []input {
	var hot []input
	for r := 0; r < hotKeys; r++ {
		d := designs[r%len(designs)]
		hot = append(hot, input{Design: d, Requirement: tagged("h", d, 5, r/len(designs)), K: 5})
	}
	return hot
}

// zipfQuotas splits total requests over keys ranks with weight 1/(r+1)^s,
// rounding by largest remainder so the quotas sum to total exactly.
func zipfQuotas(keys, total int) []int {
	w := make([]float64, keys)
	var norm float64
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), zipfS)
		norm += w[r]
	}
	out := make([]int, keys)
	rem := make([]int, keys)
	left := total
	for r := range w {
		exact := w[r] / norm * float64(total)
		out[r] = int(exact)
		left -= out[r]
		rem[r] = r
		w[r] = exact - float64(out[r])
	}
	sort.SliceStable(rem, func(i, j int) bool { return w[rem[i]] > w[rem[j]] })
	for i := 0; i < left; i++ {
		out[rem[i]]++
	}
	return out
}

// outcome is what the load generator observed for one arrival.
type outcome struct {
	In    int
	Sched time.Duration // scheduled offset from phase start
	// Lag is how late the generator issued the request: a validity check
	// on the run, not a property of the server.
	Lag time.Duration
	// Latency runs from the scheduled send to the last reply byte, so time
	// spent waiting behind a stalled request counts against it.
	Latency time.Duration
	// Service runs from connection acquisition to the last reply byte
	// (traced runs only): it excludes the wait for a free connection.
	Service time.Duration
	Status  int
	Body    []byte
	Err     error
}

// loadGen sends scheduled requests open loop over a bounded pool of
// keep-alive connections.
type loadGen struct {
	client *http.Client
	url    string
	inputs []input
	bodies [][]byte
	refs   *refFile // judges capacity passes as they finish
	trace  bool
}

// newClient returns a client limited to conns keep-alive connections;
// requests beyond that wait for a free connection inside the client.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

func newLoadGen(client *http.Client, url string, inputs []input, trace bool) *loadGen {
	d := &loadGen{client: client, url: url, inputs: inputs, trace: trace}
	for _, in := range inputs {
		b, err := json.Marshal(in)
		if err != nil {
			panic(err) // plain strings and ints always marshal
		}
		d.bodies = append(d.bodies, b)
	}
	return d
}

// run sends every arrival at its scheduled offset from now, regardless of
// how many replies are outstanding, and returns once every reply is in.
// Arrivals not yet sent when ctx ends are recorded as failed.
func (d *loadGen) run(ctx context.Context, arrivals []arrival) []outcome {
	out := make([]outcome, len(arrivals))
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	var wg sync.WaitGroup
	for i, a := range arrivals {
		out[i].In, out[i].Sched = a.In, a.At
		if wait := time.Until(start.Add(a.At)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		wg.Add(1)
		go func(o *outcome, sched time.Time) {
			defer wg.Done()
			o.Lag = time.Since(sched)
			d.send(ctx, o, sched)
		}(&out[i], start.Add(a.At))
	}
	wg.Wait()
	return out
}

func (d *loadGen) send(ctx context.Context, o *outcome, sched time.Time) {
	var gotConn time.Time
	if d.trace {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { gotConn = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url, bytes.NewReader(d.bodies[o.In]))
	if err != nil {
		o.Err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		o.Err = err
		o.Latency = time.Since(sched)
		return
	}
	o.Body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	o.Latency = done.Sub(sched)
	if !gotConn.IsZero() {
		o.Service = done.Sub(gotConn)
	}
	o.Status = resp.StatusCode
	if err != nil {
		o.Err = fmt.Errorf("read reply: %w", err)
	}
}
