package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// frac is num/den with an empty base reading as 0; every ratio the
// benchmark prints is accompanied by its base count.
func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// kindQuantile is the q-quantile of request latency taken per kind of
// request, combined over kinds by a geometric mean weighted by each kind's
// request count. Requests of one kind do the same work, so each kind's
// latencies form one distribution and its quantile moves smoothly with the
// program's speed. A quantile of the whole mix does not: the mix is a few
// clusters of very different cost (k=1 or k=5, small or large design), and
// its quantiles jump between clusters from run to run.
func kindQuantile(lat []float64, kinds []string, q float64) float64 {
	byKind := map[string][]float64{}
	for i, x := range lat {
		byKind[kinds[i]] = append(byKind[kinds[i]], x)
	}
	logSum := 0.0
	for _, xs := range byKind {
		logSum += float64(len(xs)) * math.Log(math.Max(quantile(xs, q), 1e-6))
	}
	if len(lat) == 0 {
		return 0
	}
	return math.Exp(logSum / float64(len(lat)))
}
