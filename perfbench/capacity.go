package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// capacityTally accumulates the closed-loop chunks behind capacity_rps.
// Each chunk sends a fixed list of requests back to back over conns
// clients (closed loop, so no backlog can build); the tally keeps, per
// client, its good replies and its busy time.
type capacityTally struct {
	outs []outcome
	good []int     // per client: replies that are 200, correct, undegraded and within the SLO
	busy []float64 // per client, seconds: from chunk start to the client's last reply
}

func newCapacityTally(conns int) *capacityTally {
	return &capacityTally{good: make([]int, conns), busy: make([]float64, conns)}
}

// run sends work once, closed loop, in a seeded order that spreads each
// kind of request evenly (so identical hot requests rarely meet in
// singleflight by chance).
func (t *capacityTally) run(ctx context.Context, drv *loadGen, kinds []string, work []int, rng *rand.Rand) {
	ks := make([]string, len(work))
	for i, in := range work {
		ks[i] = kinds[in]
	}
	order := make([]int, len(work))
	for i, j := range interleave(rng, ks) {
		order[i] = work[j]
	}
	perClient, busy := closedLoop(ctx, drv, order, len(t.good))
	for c, outs := range perClient {
		t.outs = append(t.outs, outs...)
		t.good[c] += judge(outs, drv.inputs, drv.refs, sloMS).good
		t.busy[c] += busy[c].Seconds()
	}
}

// closedLoop sends each request in order once over conns clients, each
// client sending its next request as soon as its previous reply is in. It
// returns each client's outcomes and busy time (start to its last reply).
// Each outcome's Sched is its send time, so its Latency is the service
// time the client saw.
func closedLoop(ctx context.Context, drv *loadGen, order []int, conns int) ([][]outcome, []time.Duration) {
	var next atomic.Int64
	outs := make([][]outcome, conns)
	busy := make([]time.Duration, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				sent := time.Now()
				o := outcome{In: order[i], Sched: sent.Sub(start)}
				drv.send(ctx, &o, sent)
				outs[c] = append(outs[c], o)
				busy[c] = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return outs, busy
}
