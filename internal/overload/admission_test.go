package overload

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdmissionRunsEveryAdmittedRequest hammers an admission at its ceiling
// (one worker slot, one queue place, so the limit is 2) from eight
// goroutines with constant-latency completions, the shape of a server
// handler under a burst. Every request the limit admits must get a worker
// slot and run; no more than one may run at once; and with constant latency
// the limit never moves off its ceiling.
func TestAdmissionRunsEveryAdmittedRequest(t *testing.T) {
	const workers, queue, goroutines, perG = 1, 1, 8, 3000
	a := NewAdmission(workers, queue, time.Minute, NewCostModel(0))

	var admitted, ran, rejected, running, overlap atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tk, err := a.Admit()
				if errors.Is(err, ErrLimit) {
					rejected.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("unexpected rejection: %v", err)
					return
				}
				admitted.Add(1)
				if running.Add(1) > workers {
					overlap.Add(1)
				}
				runtime.Gosched()
				running.Add(-1)
				ran.Add(1)
				tk.Done(time.Millisecond)
			}
		}()
	}
	wg.Wait()

	if admitted.Load() == 0 {
		t.Fatal("nothing was admitted")
	}
	if admitted.Load() != ran.Load() {
		t.Errorf("admitted %d requests but only %d ran", admitted.Load(), ran.Load())
	}
	if n := overlap.Load(); n != 0 {
		t.Errorf("%d admissions ran alongside another with only %d worker slot", n, workers)
	}
	st := a.State()
	if st.Sheds != rejected.Load() {
		t.Errorf("sheds = %d, want the %d ErrLimit rejections", st.Sheds, rejected.Load())
	}
	if st.Limit != workers+queue {
		t.Errorf("limit = %d, want ceiling %d under constant latency", st.Limit, workers+queue)
	}
	if st.Inflight != 0 || st.Queued != 0 || st.Busy != 0 {
		t.Errorf("idle admission not idle: %+v", st)
	}
}

// TestAdmissionCostShedProbe: while the learned request cost exceeds the
// deadline, seven of every eight admissions shed with ErrCost before the
// limiter is consulted, and the eighth probes through.
func TestAdmissionCostShedProbe(t *testing.T) {
	costs := NewCostModel(0)
	costs.Observe(StageRequest, 10*time.Second)
	a := NewAdmission(1, 1, 2*time.Second, costs)
	for i := 1; i < probeEvery; i++ {
		if _, err := a.Admit(); !errors.Is(err, ErrCost) {
			t.Fatalf("admission %d: err = %v, want ErrCost", i, err)
		}
	}
	tk, err := a.Admit()
	if err != nil {
		t.Fatalf("probe admission: %v", err)
	}
	tk.Done(time.Second)
	if st := a.State(); st.Sheds != probeEvery-1 || st.Inflight != 0 {
		t.Errorf("sheds/inflight = %d/%d, want %d/0", st.Sheds, st.Inflight, probeEvery-1)
	}
}

// TestAdmissionBrownoutClamp: a full window of shed outcomes clamps k>1 to
// one sample; k=1 is never reported as clamped.
func TestAdmissionBrownoutClamp(t *testing.T) {
	a := NewAdmission(1, 1, time.Second, nil)
	if k, clamped := a.Clamp(5); k != 5 || clamped {
		t.Fatalf("cold clamp = %d/%v, want 5/false", k, clamped)
	}
	for i := 0; i < brownoutWindow; i++ {
		a.Note(ErrLimit)
	}
	if k, clamped := a.Clamp(5); k != 1 || !clamped {
		t.Fatalf("browned-out clamp = %d/%v, want 1/true", k, clamped)
	}
	if k, clamped := a.Clamp(1); k != 1 || clamped {
		t.Fatalf("browned-out k=1 clamp = %d/%v, want 1/false", k, clamped)
	}
	if st := a.State(); !st.Brownout || st.BrownoutEntries != 1 {
		t.Errorf("state = %+v, want brownout entered once", st)
	}
}

// TestAdmissionCloseDrains: Close waits for the running request and for the
// one queued behind it, and admits nothing new once it has begun.
func TestAdmissionCloseDrains(t *testing.T) {
	a := NewAdmission(1, 1, time.Minute, nil)
	first, err := a.Admit()
	if err != nil {
		t.Fatal(err)
	}
	second := make(chan Ticket)
	go func() {
		tk, err := a.Admit()
		if err != nil {
			t.Error(err)
		}
		second <- tk
	}()
	for a.State().Queued != 1 {
		time.Sleep(time.Millisecond)
	}

	// The limit is full, so until Close begins Admit refuses with
	// ErrLimit rather than blocking.
	closed := make(chan struct{})
	go func() { a.Close(); close(closed) }()
	for {
		if _, err := a.Admit(); errors.Is(err, ErrClosed) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	first.Done(time.Millisecond)
	tk := <-second // the queued request still gets its slot
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted request was still running")
	case <-time.After(20 * time.Millisecond):
	}
	tk.Done(time.Millisecond)
	<-closed
	if st := a.State(); st.Inflight != 0 || st.Busy != 0 || st.Queued != 0 {
		t.Errorf("drained admission not idle: %+v", st)
	}
}

// TestAdmissionCloseRacesAdmit runs admissions concurrently with Close.
// Under -race this checks that no admission can slip in after the drain
// has started waiting (the WaitGroup Add/Wait race).
func TestAdmissionCloseRacesAdmit(t *testing.T) {
	for round := 0; round < 50; round++ {
		a := NewAdmission(2, 2, time.Minute, nil)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					tk, err := a.Admit()
					if errors.Is(err, ErrClosed) {
						return
					}
					if err == nil {
						tk.Done(time.Millisecond)
					}
				}
			}()
		}
		runtime.Gosched()
		a.Close()
		if st := a.State(); st.Inflight != 0 {
			t.Fatalf("round %d: Close returned with %d admitted requests in flight", round, st.Inflight)
		}
		wg.Wait()
	}
}
