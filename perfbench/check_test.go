package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// serveOnce starts the serve-unique stack and sends each input once.
func serveOnce(t *testing.T, inputs []input) []outcome {
	t.Helper()
	st, err := startStack(serveSpecs["serve-unique"], t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.stop()
	client := newClient(2)
	defer client.CloseIdleConnections()
	var arr []arrival
	for i := range inputs {
		arr = append(arr, arrival{In: i})
	}
	return newLoadGen(client, st.url+"/v1/customize", inputs, false).run(context.Background(), arr)
}

// The correctness check passes real replies and fails every doctored one.
func TestCheckRejectsDoctoredReply(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	inputs := []input{refPool()[0], refPool()[refUniquePer]} // aes k=1 and k=5
	outs := serveOnce(t, inputs)
	if v := judge(outs, inputs, refs, sloMS); v.wrong != 0 || v.failed != 0 || v.degraded != 0 {
		t.Fatalf("honest replies judged %+v", v)
	}
	doctor := map[string]func(*reply){
		"best WNS":     func(r *reply) { r.Best.WNS += 0.01 },
		"best sample":  func(r *reply) { r.BestSample++ },
		"valid count":  func(r *reply) { r.Valid-- },
		"best script":  func(r *reply) { r.Script += "compile\n" },
		"sample QoR":   func(r *reply) { r.Samples[len(r.Samples)-1].QoR = nil },
		"sample area":  func(r *reply) { q := *r.Samples[0].QoR; q.Area *= 1.0001; r.Samples[0].QoR = &q },
		"baseline TNS": func(r *reply) { r.Baseline.TNS -= 1 },
	}
	for name, fn := range doctor {
		for i, o := range outs {
			var r reply
			if err := json.Unmarshal(o.Body, &r); err != nil {
				t.Fatal(err)
			}
			if r.Samples[0].QoR == nil {
				t.Fatalf("request %d: sample 0 failed; pick a pool input whose first sample is valid", i)
			}
			fn(&r)
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			bad := o
			bad.Body = b
			if v := judge([]outcome{bad}, inputs, refs, sloMS); v.wrong != 1 {
				t.Errorf("doctored %s on request %d judged %+v, want wrong", name, i, v)
			}
		}
	}
}

// refs.json must be what the serial cache-free path computes today, for a
// sample of the pool and for the offline rows.
func TestRefsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes references")
	}
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	pool := refPool()
	var sample []input
	for i := 0; i < len(pool); i += 61 {
		sample = append(sample, pool[i])
	}
	res, err := references(context.Background(), sample, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range sample {
		if got := digest(canonOfResult(res[i])); got != refs.Serve[refKey(in)] {
			t.Errorf("%s: reference digest %s, refs.json has %s", refKey(in), got, refs.Serve[refKey(in)])
		}
	}
	rows, err := offlineReference(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if got := rowDigest(r); got != refs.Offline[r.Design] {
			t.Errorf("offline %s: row digest %s, refs.json has %s", r.Design, got, refs.Offline[r.Design])
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var e2e, layer []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(e2eMetrics, ",") {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", e2e, e2eMetrics)
	}
	if strings.Join(layer, ",") != strings.Join(layerMetrics, ",") {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", layer, layerMetrics)
	}
	for _, w := range bj.Workloads {
		if _, ok := serveSpecs[w.Name]; !ok && w.Name != "passk-offline" {
			t.Errorf("BENCHMARK.json workload %s is unknown to the benchmark", w.Name)
		}
	}
}

// Every request a run of run_seconds can send has a reference.
func TestRefsCoverRunSeconds(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range serveSpecs {
		s := newStream(spec, 1, testDesigns, bj.RunSeconds)
		if span := s.arrivals[len(s.arrivals)-1].At; span > time.Duration(bj.RunSeconds)*time.Second {
			t.Errorf("%s: arrivals span %v, beyond run_seconds", spec.name, span)
		}
		for _, in := range s.inputs {
			if _, ok := refs.Serve[refKey(in)]; !ok {
				t.Errorf("%s: no reference for %s", spec.name, refKey(in))
			}
		}
	}
}
