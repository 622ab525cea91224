package overload

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestLimiterStartsAtInitialAndBounds(t *testing.T) {
	l := newLimiter(10)
	if int(l.limit) != 10 || l.ceiling != 10 {
		t.Fatalf("limit/ceiling = %v/%d, want 10/10 (start at the ceiling)", l.limit, l.ceiling)
	}
	if l = newLimiter(0); l.ceiling != limiterFloor {
		t.Fatalf("ceiling below the floor = %d, want %d", l.ceiling, limiterFloor)
	}
	st := NewAdmission(2, 3, time.Second, nil).State()
	if st.Limit != 5 || st.Ceiling != 5 || st.Floor != 1 {
		t.Fatalf("admission limit/ceiling/floor = %d/%d/%d, want 5/5/1 (workers+queue, floor 1)",
			st.Limit, st.Ceiling, st.Floor)
	}
}

func TestLimiterAcquireShedsAtLimit(t *testing.T) {
	l := newLimiter(2)
	if !l.acquire() || !l.acquire() {
		t.Fatal("first two acquires should succeed")
	}
	if l.acquire() {
		t.Fatal("third acquire should shed at limit 2")
	}
	l.release(time.Millisecond)
	if !l.acquire() {
		t.Fatal("acquire after release should succeed")
	}
	if l.inflight != 2 {
		t.Fatalf("inflight = %d, want 2", l.inflight)
	}
}

// feed simulates n completions at latency d.
func feed(l *limiter, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		l.acquire()
		l.release(d)
	}
}

func TestLimiterContractsUnderLatencySpikeAndReexpands(t *testing.T) {
	l := newLimiter(16)

	// Calm phase: one full window establishes a ~10ms baseline.
	feed(&l, limiterWindow, 10*time.Millisecond)
	if b := l.baseline; b == 0 || b > 15*time.Millisecond {
		t.Fatalf("baseline = %v, want ~10ms", b)
	}
	if int(l.limit) != 16 {
		t.Fatalf("limit after calm phase = %v, want ceiling 16", l.limit)
	}

	// Spike: 20x the baseline. Limit must contract toward the floor.
	feed(&l, 200, 200*time.Millisecond)
	contracted := int(l.limit)
	if contracted >= 16 {
		t.Fatalf("limit did not contract under spike: %d", contracted)
	}
	if contracted < limiterFloor {
		t.Fatalf("limit fell below floor: %d", contracted)
	}

	// Spike clears: fast completions re-expand the limit.
	feed(&l, 400, 10*time.Millisecond)
	if got := int(l.limit); got <= contracted {
		t.Fatalf("limit did not re-expand after spike: %d (was %d)", got, contracted)
	}
}

func TestLimiterBaselineResistsSustainedSpike(t *testing.T) {
	l := newLimiter(8)
	feed(&l, limiterWindow, time.Millisecond)
	base := l.baseline
	// A sustained spike may drift the baseline upward, but only by
	// baselineInflate per half-window re-anchor — after a full window of
	// it (two re-anchors) it must still be far below the spike latency.
	feed(&l, limiterWindow, 100*time.Millisecond)
	if got := l.baseline; got > 4*base {
		t.Fatalf("baseline inflated too fast: %v -> %v", base, got)
	}
	if got := int(l.limit); got > 4 {
		t.Fatalf("limit = %d, want strong contraction under sustained spike", got)
	}
}

func TestLimiterDeterministic(t *testing.T) {
	run := func() []int {
		l := newLimiter(12)
		var limits []int
		for i := 0; i < 4*limiterWindow; i++ {
			d := time.Millisecond
			if i%7 == 0 {
				d = 50 * time.Millisecond
			}
			feed(&l, 1, d)
			limits = append(limits, int(l.limit))
		}
		return limits
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic limit at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCostModelEWMA(t *testing.T) {
	m := NewCostModel(0.5)
	if m.Expect(StageSample) != 0 {
		t.Fatal("unknown stage should report 0")
	}
	m.Observe(StageSample, 100*time.Millisecond)
	if got := m.Expect(StageSample); got != 100*time.Millisecond {
		t.Fatalf("first observation should seed the estimate, got %v", got)
	}
	m.Observe(StageSample, 200*time.Millisecond)
	if got := m.Expect(StageSample); got != 150*time.Millisecond {
		t.Fatalf("ewma after 100,200 with alpha .5 = %v, want 150ms", got)
	}
	m.Observe(StageBaseline, time.Second)
	if got := m.Expect(StageBaseline); got != time.Second {
		t.Fatalf("stages must be tracked separately, baseline = %v", got)
	}
}

func TestCostModelNilSafe(t *testing.T) {
	var m *CostModel
	m.Observe(StageSample, time.Second)
	if m.Expect(StageSample) != 0 {
		t.Fatal("nil model must report zero cost")
	}
}

func TestCheckBudget(t *testing.T) {
	if err := CheckBudget(context.Background(), StageSample, time.Hour); err != nil {
		t.Fatalf("no deadline should always pass: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := CheckBudget(ctx, StageSample, 0); err != nil {
		t.Fatalf("unknown cost with live deadline should pass: %v", err)
	}
	err := CheckBudget(ctx, StageSample, time.Hour)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Stage != StageSample || be.Need != time.Hour {
		t.Fatalf("budget error detail = %+v", err)
	}
	// Expired deadline fails even with unknown cost.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if err := CheckBudget(expired, StageSynth, 0); !errors.Is(err, ErrBudget) {
		t.Fatalf("expired deadline should fail: %v", err)
	}
}

func TestBrownoutHysteresis(t *testing.T) {
	var b brownout
	// Sheds before the window fills must not activate.
	for i := 0; i < brownoutWindow-1; i++ {
		b.note(true)
	}
	if b.active {
		t.Fatal("brownout before a full window of evidence")
	}
	b.note(true)
	if !b.active {
		t.Fatal("full window of sheds should activate brownout")
	}
	if b.entries != 1 {
		t.Fatalf("entries = %d, want 1", b.entries)
	}
	// Recovery: brownout holds until a whole window passes without a shed.
	for i := 0; i < brownoutWindow-1; i++ {
		b.note(false)
	}
	if !b.active {
		t.Fatal("brownout should persist above the exit fraction (hysteresis)")
	}
	b.note(false)
	if b.active {
		t.Fatal("brownout should clear once the shed fraction reaches the exit fraction")
	}
	// Re-entry on a full window needs only the enter fraction of sheds.
	for i := 0; i < brownoutWindow/2-1; i++ {
		b.note(true)
	}
	if b.active {
		t.Fatal("brownout re-entered below the enter fraction")
	}
	b.note(true)
	if !b.active || b.entries != 2 {
		t.Fatalf("re-entry: active=%v entries=%d", b.active, b.entries)
	}
}
