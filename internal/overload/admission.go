package overload

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// Rejections Admit returns. The server maps ErrLimit to 429 and ErrCost and
// ErrClosed to 503.
var (
	// ErrLimit: the adaptive concurrency limit is reached.
	ErrLimit = errors.New("overload: concurrency limit reached")
	// ErrCost: the learned end-to-end request cost no longer fits the
	// deadline, so running the work could only end in a timeout.
	ErrCost = errors.New("overload: expected request cost exceeds the deadline")
	// ErrClosed: Close has begun draining; nothing new is admitted.
	ErrClosed = errors.New("overload: admission closed")
)

// Admission tuning. None of it is configurable: the limiter's ceiling is
// the worker slots plus the queue depth, and everything else is fixed.
const (
	// limiterFloor is the smallest the adaptive limit may shrink to.
	limiterFloor = 1
	// limiterWindow is the number of recent latencies kept for the moving
	// p50 baseline.
	limiterWindow = 64
	// limiterThreshold is the congestion trigger: a completion slower than
	// limiterThreshold x baseline counts as congested.
	limiterThreshold = 2.0
	// limiterDecrease is the multiplicative backoff on congestion.
	limiterDecrease = 0.9
	// baselineInflate bounds how far the baseline may rise per re-anchor
	// (every half window), so a sustained spike cannot quickly redefine
	// "normal".
	baselineInflate = 1.25

	// brownoutWindow is the number of recent admission outcomes tracked.
	brownoutWindow = 64
	// brownoutEnter activates brownout when the shed fraction over a full
	// window reaches it; brownoutExit deactivates it once the fraction
	// falls to it or below, that is after a whole window with no shed.
	// Enter > exit gives hysteresis.
	brownoutEnter = 0.5
	brownoutExit  = 0.0

	// probeEvery admits every probeEvery-th would-be cost shed anyway, so
	// the cost model keeps re-learning and a recovered backend un-sheds
	// itself.
	probeEvery = 8
)

// Admission owns the whole admission policy of the serving path, in the
// order a request meets it:
//
//   - Clamp: under brownout (sustained shedding) Pass@k clamps to one
//     sample, so the server serves a weaker answer rather than more errors;
//   - Admit: the cost shed with its deterministic probe, then the AIMD
//     limit, then a wait for one of the worker slots;
//   - Ticket.Done: frees the slot and feeds the latency to the limiter;
//   - Note: records each request's outcome for the brownout window.
//
// Because the limit never exceeds workers+queueDepth, every request the
// limit admits runs: it waits for a slot instead of being refused a second
// time. Close stops admitting and waits for every admitted request. All
// methods are safe for concurrent use.
type Admission struct {
	costs    *CostModel
	deadline time.Duration
	slots    chan struct{} // one token per running request

	mu       sync.Mutex
	closed   bool
	admitted sync.WaitGroup // Add under mu while !closed, so Close's Wait cannot race it
	limiter  limiter
	brownout brownout
	probes   int64 // would-be cost sheds seen, for the 1-in-probeEvery probe
	sheds    int64
	queued   int // admitted, waiting for a slot
	busy     int // holding a slot
}

// NewAdmission builds the admission path for workers concurrent requests
// with up to queueDepth more waiting (both clamped to at least 1). costs
// supplies the expected request cost the cost shed compares with deadline;
// a nil model never sheds.
func NewAdmission(workers, queueDepth int, deadline time.Duration, costs *CostModel) *Admission {
	workers = max(workers, 1)
	queueDepth = max(queueDepth, 1)
	return &Admission{
		costs:    costs,
		deadline: deadline,
		slots:    make(chan struct{}, workers),
		limiter:  newLimiter(workers + queueDepth),
	}
}

// Clamp returns the Pass@k the request is served with and whether
// brownout lowered it. Clamping before the singleflight key is computed
// lets browned-out requests coalesce with each other.
func (a *Admission) Clamp(k int) (int, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if k > 1 && a.brownout.active {
		return 1, true
	}
	return k, false
}

// Ticket is one admitted request holding a worker slot. Call Done exactly
// once when the work finishes.
type Ticket struct{ a *Admission }

// Admit decides one request: ErrCost when the expected request cost exceeds
// the deadline (bar the probe), ErrLimit at the adaptive limit, ErrClosed
// after Close. Otherwise it blocks until a worker slot is free and returns
// the ticket; the wait is bounded because the limit never exceeds the
// slots plus the queue depth.
func (a *Admission) Admit() (Ticket, error) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return Ticket{}, ErrClosed
	}
	if a.costs.Expect(StageRequest) > a.deadline {
		a.probes++
		if a.probes%probeEvery != 0 {
			a.sheds++
			a.mu.Unlock()
			return Ticket{}, ErrCost
		}
	}
	if !a.limiter.acquire() {
		a.sheds++
		a.mu.Unlock()
		return Ticket{}, ErrLimit
	}
	a.queued++
	a.admitted.Add(1)
	a.mu.Unlock()

	a.slots <- struct{}{}
	a.mu.Lock()
	a.queued--
	a.busy++
	a.mu.Unlock()
	return Ticket{a}, nil
}

// Done frees the ticket's worker slot and folds the request's latency
// (slot wait plus service time, the congestion signal AIMD needs) into the
// limiter.
func (t Ticket) Done(latency time.Duration) {
	a := t.a
	<-a.slots
	a.mu.Lock()
	a.busy--
	a.limiter.release(latency)
	a.mu.Unlock()
	a.admitted.Done()
}

// Note records one request's outcome in the brownout window: a shed when
// err is an ErrLimit or ErrCost rejection, admitted otherwise.
func (a *Admission) Note(err error) {
	shed := errors.Is(err, ErrLimit) || errors.Is(err, ErrCost)
	a.mu.Lock()
	a.brownout.note(shed)
	a.mu.Unlock()
}

// Close stops admitting and waits until every admitted request has called
// Done. Safe to call more than once.
func (a *Admission) Close() {
	a.mu.Lock()
	a.closed = true
	a.mu.Unlock()
	a.admitted.Wait()
}

// State is a snapshot of the admission path for /healthz and /metrics.
type State struct {
	Limit, Floor, Ceiling int
	Inflight              int   // admitted and not yet done
	Queued                int   // admitted, waiting for a worker slot
	Busy                  int   // holding a worker slot
	Sheds                 int64 // ErrLimit plus ErrCost rejections
	Brownout              bool
	BrownoutEntries       int64
}

// State returns the current snapshot.
func (a *Admission) State() State {
	a.mu.Lock()
	defer a.mu.Unlock()
	return State{
		Limit:           int(a.limiter.limit),
		Floor:           limiterFloor,
		Ceiling:         a.limiter.ceiling,
		Inflight:        a.limiter.inflight,
		Queued:          a.queued,
		Busy:            a.busy,
		Sheds:           a.sheds,
		Brownout:        a.brownout.active,
		BrownoutEntries: a.brownout.entries,
	}
}

// limiter is an AIMD adaptive concurrency limit. Completions feed observed
// latencies into a ring of the last limiterWindow; every half window the
// baseline re-anchors to the window median, rising by at most
// baselineInflate per re-anchor. A completion slower than
// limiterThreshold x baseline multiplicatively shrinks the limit
// (rate-limited to one decrease per `limit` completions, the AIMD analogue
// of once-per-RTT); an on-time completion additively grows it by 1/limit.
// The limit starts at its ceiling and stays within [limiterFloor, ceiling].
// Not synchronized: Admission holds its lock around every call.
type limiter struct {
	ceiling  int
	limit    float64
	inflight int

	ring     [limiterWindow]time.Duration
	sorted   [limiterWindow]time.Duration // median scratch
	ringIdx  int
	ringLen  int
	obs      int64 // total observations, drives re-anchoring
	baseline time.Duration
	cooldown int64 // observation count before the next decrease is allowed
}

func newLimiter(ceiling int) limiter {
	ceiling = max(ceiling, limiterFloor)
	return limiter{ceiling: ceiling, limit: float64(ceiling)}
}

// acquire claims an in-flight slot, returning false at the current limit.
func (l *limiter) acquire() bool {
	if l.inflight >= int(l.limit) {
		return false
	}
	l.inflight++
	return true
}

// release returns a slot and folds the observed completion latency into
// the AIMD feedback loop.
func (l *limiter) release(latency time.Duration) {
	if l.inflight > 0 {
		l.inflight--
	}
	latency = max(latency, 0)

	l.ring[l.ringIdx] = latency
	l.ringIdx = (l.ringIdx + 1) % limiterWindow
	if l.ringLen < limiterWindow {
		l.ringLen++
	}
	l.obs++

	// Re-anchor the baseline every half window: take the window median,
	// but never let the baseline climb more than baselineInflate per
	// re-anchor — a sustained spike must not redefine "normal" before the
	// limiter has contracted.
	if l.obs%(limiterWindow/2) == 0 && l.ringLen >= limiterWindow/4 {
		med := l.median()
		if l.baseline == 0 {
			l.baseline = med
		} else {
			l.baseline = min(med, time.Duration(float64(l.baseline)*baselineInflate))
		}
		l.baseline = max(l.baseline, time.Microsecond)
	}

	if l.baseline == 0 {
		return // not enough history yet
	}
	if float64(latency) > limiterThreshold*float64(l.baseline) {
		if l.obs >= l.cooldown {
			l.limit = max(l.limit*limiterDecrease, limiterFloor)
			// One multiplicative decrease per `limit` completions: the
			// slow completions already in flight belong to the same
			// congestion event and must not each shrink the limit.
			l.cooldown = l.obs + int64(l.limit)
		}
		return
	}
	if l.limit < float64(l.ceiling) {
		l.limit = min(l.limit+1/l.limit, float64(l.ceiling))
	}
}

// median of the filled portion of the ring.
func (l *limiter) median() time.Duration {
	buf := l.sorted[:l.ringLen]
	copy(buf, l.ring[:l.ringLen])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[l.ringLen/2]
}

// brownout tracks the shed fraction over a sliding window of admission
// outcomes behind a hysteresis latch. Not synchronized: Admission holds its
// lock around every call.
type brownout struct {
	ring    [brownoutWindow]bool // true = shed
	idx     int
	n       int
	sheds   int
	active  bool
	entries int64
}

// note records one admission outcome and re-evaluates the latch.
func (b *brownout) note(shed bool) {
	if b.n == brownoutWindow {
		if b.ring[b.idx] {
			b.sheds--
		}
	} else {
		b.n++
	}
	b.ring[b.idx] = shed
	if shed {
		b.sheds++
	}
	b.idx = (b.idx + 1) % brownoutWindow

	frac := float64(b.sheds) / float64(b.n)
	if !b.active {
		// Entering requires a full window of evidence; a couple of sheds
		// on a cold server must not brown it out.
		if b.n == brownoutWindow && frac >= brownoutEnter {
			b.active = true
			b.entries++
		}
	} else if frac <= brownoutExit {
		b.active = false
	}
}
