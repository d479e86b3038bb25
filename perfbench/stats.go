package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a list of durations with the summary statistics the
// benchmark reports.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q <= 1) in
// milliseconds; 0 for an empty list.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return ms(sorted[rank])
}

func (s samples) p50() float64 { return s.quantile(0.5) }
func (s samples) p99() float64 { return s.quantile(0.99) }

// tail returns the highest percentile with at least ten samples beyond
// it, as a label and a value in milliseconds; ok is false below 20
// samples.
func (s samples) tail() (label string, v float64, ok bool) {
	if len(s) < 20 {
		return "", 0, false
	}
	q := 1 - 10/float64(len(s))
	return fmt.Sprintf("p%.4g", 100*q), s.quantile(q), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of xs (the mean of the middle pair for
// an even count); 0 for an empty list.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio guards a division whose denominator may be zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowRate returns the median completion rate over windows of about
// one second: the completions, in time order, are cut into equal-count
// groups, and each group's rate is its count over the time since the
// previous group ended (start for the first).  A median of windows
// keeps a few seconds of neighbour load on a shared host from moving
// the rate.
func windowRate(start time.Time, events []time.Time, counts []int) float64 {
	idx := make([]int, len(events))
	total := 0
	for i := range idx {
		idx[i] = i
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	sort.Slice(idx, func(a, b int) bool { return events[idx[a]].Before(events[idx[b]]) })
	n := max(1, int(events[idx[len(idx)-1]].Sub(start)/time.Second))
	var rates []float64
	prev, acc, group := start, 0, 0
	for _, i := range idx {
		acc += counts[i]
		group += counts[i]
		if acc*n >= total*(len(rates)+1) {
			rates = append(rates, float64(group)/events[i].Sub(prev).Seconds())
			prev, group = events[i], 0
		}
	}
	return medianFloat(rates)
}
