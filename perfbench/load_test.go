package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	chatls "repro"
)

var testDesigns = []string{"aes", "dynamic_node", "ethmac", "jpeg", "riscv32i", "swerv", "tinyRocket"}

// sent is what the server receives from a stream: each request body with
// its send time.
func sent(s stream) []string {
	var out []string
	for _, a := range s.arrivals {
		in := s.inputs[a.In]
		out = append(out, fmt.Sprintf("%v %s %d %s", a.At, in.Design, in.K, in.Requirement))
	}
	return out
}

func TestStreamsAreSeeded(t *testing.T) {
	for name, gen := range map[string]func(int64) stream{
		"serve-unique": func(seed int64) stream { return uniqueStream(seed, testDesigns, 240, 12) },
		"serve-hot":    func(seed int64) stream { return hotStream(seed, testDesigns, 400, 20) },
	} {
		a, b, c := sent(gen(1)), sent(gen(1)), sent(gen(2))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different request streams", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", name)
		}
	}
}

func TestStreamMixIsFixed(t *testing.T) {
	count := func(s stream) map[input]int {
		m := map[input]int{}
		for _, a := range s.arrivals {
			m[s.inputs[a.In]]++
		}
		return m
	}
	if !reflect.DeepEqual(count(uniqueStream(1, testDesigns, 240, 12)), count(uniqueStream(9, testDesigns, 240, 12))) {
		t.Error("serve-unique: the request mix depends on the seed")
	}
	if !reflect.DeepEqual(count(hotStream(1, testDesigns, 400, 20)), count(hotStream(9, testDesigns, 400, 20))) {
		t.Error("serve-hot: the request mix depends on the seed")
	}
	u := count(uniqueStream(3, testDesigns, 240, 12))
	for in, n := range u {
		if n != 1 {
			t.Errorf("serve-unique sends %s k=%d %d times", in.Design, in.K, n)
		}
	}
	hot := 0
	s := hotStream(3, testDesigns, 400, 20)
	for _, a := range s.arrivals {
		if a.In < hotKeys {
			hot++
		}
	}
	if hot != 320 {
		t.Errorf("serve-hot: %d of 400 requests from the hot set, want 320", hot)
	}
}

func TestTicketTagsAvoidGeneratorKeywords(t *testing.T) {
	seen := map[string]bool{}
	for _, in := range refPool() {
		tag := strings.ToLower(strings.TrimPrefix(in.Requirement, chatls.DefaultRequirement))
		if tag == "" || tag == strings.ToLower(in.Requirement) {
			t.Fatalf("requirement %q carries no ticket tag", in.Requirement)
		}
		for _, kw := range generatorKeywords {
			if strings.Contains(tag, kw) {
				t.Errorf("tag %q contains generator keyword %q", tag, kw)
			}
		}
		if seen[in.Requirement] {
			t.Errorf("requirement %q appears twice in the pool", in.Requirement)
		}
		seen[in.Requirement] = true
	}
	for i := 0; i < 10000; i++ {
		tag := strings.ToLower(ticketTag(newRand(int64(i))))
		for _, kw := range generatorKeywords {
			if strings.Contains(tag, kw) {
				t.Fatalf("tag %q contains generator keyword %q", tag, kw)
			}
		}
	}
}

// A handler that stalls on one request must raise the measured latency of
// the requests scheduled behind it, because latency runs from the
// scheduled send, not from when a connection became free.
func TestStalledHandlerDelaysLaterRequests(t *testing.T) {
	const stall = 400 * time.Millisecond
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 2 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	inputs := []input{{Design: "aes", K: 1}}
	var arr []arrival
	for i := 0; i < 10; i++ {
		arr = append(arr, arrival{At: time.Duration(i) * 20 * time.Millisecond})
	}
	outs := newLoadGen(client, ts.URL, inputs, true).run(context.Background(), arr)
	stallEnd := 20*time.Millisecond + stall
	for i, o := range outs {
		if o.Err != nil || o.Status != 200 {
			t.Fatalf("request %d: status %d, %v", i, o.Status, o.Err)
		}
		if i < 2 {
			continue
		}
		// Slack for timer and scheduling jitter.
		if want := stallEnd - o.Sched - 30*time.Millisecond; o.Latency < want {
			t.Errorf("request %d scheduled at %v: latency %v, want at least %v behind the stall", i, o.Sched, o.Latency, want)
		}
		if o.Service > 100*time.Millisecond {
			t.Errorf("request %d: service time %v; only request 1 stalled", i, o.Service)
		}
	}
	if outs[0].Latency > 100*time.Millisecond {
		t.Errorf("request 0 ran before the stall but took %v", outs[0].Latency)
	}
}

func TestZipfQuotas(t *testing.T) {
	q := zipfQuotas(hotKeys, 320)
	total := 0
	for r, c := range q {
		total += c
		if r > 0 && c > q[r-1] {
			t.Errorf("rank %d gets %d requests, more than rank %d's %d", r, c, r-1, q[r-1])
		}
	}
	if total != 320 {
		t.Errorf("quotas sum to %d, want 320", total)
	}
}

// The timed rounds send every arrival of the stream exactly once, in order,
// each slice starting at zero and no longer than its share of the span.
func TestSlicesPartitionTheStream(t *testing.T) {
	for name, s := range map[string]stream{
		"unique": uniqueStream(4, testDesigns, 126, 6),
		"hot":    hotStream(4, testDesigns, 225, 10),
	} {
		span := s.arrivals[len(s.arrivals)-1].At
		var got []int
		for j, sl := range s.slices(3) {
			if len(sl) == 0 {
				t.Fatalf("%s: slice %d is empty", name, j)
			}
			for i, a := range sl {
				if a.At < 0 || a.At > span/3+time.Nanosecond || (i > 0 && a.At < sl[i-1].At) {
					t.Errorf("%s: slice %d arrival %d at %v, span %v", name, j, i, a.At, span)
				}
				got = append(got, a.In)
			}
		}
		var want []int
		for _, a := range s.arrivals {
			want = append(want, a.In)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: slices send %d arrivals out of order or not once each", name, len(got))
		}
	}
}

// Per-kind quantiles combine by a count-weighted geometric mean.
func TestKindQuantile(t *testing.T) {
	lat := []float64{10, 10, 10, 1000}
	kinds := []string{"a", "a", "a", "b"}
	want := math.Exp((3*math.Log(10) + math.Log(1000)) / 4)
	if got := kindQuantile(lat, kinds, 0.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("kindQuantile = %v, want %v", got, want)
	}
}
