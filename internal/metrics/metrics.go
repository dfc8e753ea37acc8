// Package metrics provides the statistics plumbing shared by the SleepScale
// simulators: streaming moments, exact sample percentiles, histograms and
// weighted tallies. Everything is allocation-conscious and cheap per query
// because the policy manager evaluates thousands of candidate policies per
// decision epoch, each ending in a p95/p99 read: exact percentiles come from
// O(n) expected selection in a reused scratch buffer, never from a sort.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Stream accumulates count, mean and variance of a sequence of observations
// using Welford's online algorithm. The zero value is ready to use.
type Stream struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddN records the same observation n times.
func (s *Stream) AddN(x float64, n int) {
	for i := 0; i < n; i++ {
		s.Add(x)
	}
}

// Merge folds another stream into s (parallel Welford combination).
func (s *Stream) Merge(o Stream) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	d := o.mean - s.mean
	mean := s.mean + d*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	mn, mx := s.min, s.max
	if o.min < mn {
		mn = o.min
	}
	if o.max > mx {
		mx = o.max
	}
	*s = Stream{n: n, mean: mean, m2: m2, min: mn, max: mx}
}

// Count reports the number of observations.
func (s *Stream) Count() int { return s.n }

// Mean reports the sample mean, or 0 when empty.
func (s *Stream) Mean() float64 { return s.mean }

// Variance reports the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev reports the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CV reports the coefficient of variation (stddev / mean), or 0 when the mean
// is zero.
func (s *Stream) CV() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.StdDev() / s.mean
}

// Min reports the smallest observation, or 0 when empty.
func (s *Stream) Min() float64 { return s.min }

// Max reports the largest observation, or 0 when empty.
func (s *Stream) Max() float64 { return s.max }

// Sum reports mean × count.
func (s *Stream) Sum() float64 { return s.mean * float64(s.n) }

// StreamState is the full internal state of a Stream, exposed so long-running
// consumers (the serve daemon's checkpoints) can persist and restore the
// moments bit-for-bit.
type StreamState struct {
	N                  int
	Mean, M2, Min, Max float64
}

// State captures the stream's internal state exactly.
func (s *Stream) State() StreamState {
	return StreamState{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max}
}

// SetState overwrites the stream with a previously captured state; a stream
// restored this way continues bit-identically to the original.
func (s *Stream) SetState(st StreamState) {
	s.n, s.mean, s.m2, s.min, s.max = st.N, st.Mean, st.M2, st.Min, st.Max
}

// String implements fmt.Stringer.
func (s *Stream) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Sample collects raw observations so that exact percentiles can be computed.
// It keeps every observation; the SleepScale evaluator works with runs of
// roughly 10⁴–10⁶ jobs, which fits comfortably in memory.
//
// Observations are stored in insertion order and are never reordered. Order
// statistics (Percentile, PercentileNearestRank) are found by selection in a
// scratch copy, not by sorting it: introselect, that is median-of-three
// Hoare partitioning with a depth limit of 2·log₂ n past which only the
// remaining subrange is sorted, so one query costs O(n) expected and
// O(n log n) at worst. The copy stays partitioned around the last rank
// selected, so a later query on an unchanged sample searches only the side
// of that rank it needs: p99 after p95 scans just the tail above p95. Ranks
// follow the order sort.Float64s sorts to, NaN first and then ascending, so
// every percentile is the value a sorted copy would give (a tie between -0
// and +0 may come back with either sign, as it may from the sort).
// FractionAbove is one linear count over the observations. Reset, TrimFront
// and TrimBack keep the underlying capacity, making a Sample reusable with
// zero steady-state allocations.
type Sample struct {
	xs      []float64 // insertion order, never reordered
	scratch []float64 // permutation of xs for selection, NaNs first
	ready   bool      // scratch holds the current xs
	nans    int       // scratch[:nans] are the NaNs
	// pivot is the last rank selected: scratch[pivot] holds that order
	// statistic, with nothing after it smaller and nothing before it
	// larger. It is nans-1 before any selection.
	pivot int
	Stream
}

// NewSample returns a Sample with capacity hint n.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.ready = false
	s.Stream.Add(x)
}

// Reset discards all observations but keeps the underlying capacity.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.scratch = s.scratch[:0]
	s.ready = false
	s.Stream = Stream{}
}

// TrimFront discards the first n observations in insertion order (e.g. a
// simulation warm-up period) and recomputes the streaming moments over the
// remainder. Trimming more than the sample size empties it.
func (s *Sample) TrimFront(n int) {
	if n <= 0 {
		return
	}
	if n >= len(s.xs) {
		s.Reset()
		return
	}
	s.xs = s.xs[:copy(s.xs, s.xs[n:])]
	s.ready = false
	s.Stream = Stream{}
	for _, x := range s.xs {
		s.Stream.Add(x)
	}
}

// TrimBack discards the last n observations in insertion order (e.g. jobs
// retroactively lost on a crashing server) and recomputes the streaming
// moments over the remainder. Because Welford accumulation is a left fold,
// the rebuilt moments are bit-identical to a stream that never saw the
// removed suffix. Trimming more than the sample size empties it.
func (s *Sample) TrimBack(n int) {
	if n <= 0 {
		return
	}
	if n >= len(s.xs) {
		s.Reset()
		return
	}
	s.xs = s.xs[:len(s.xs)-n]
	s.ready = false
	s.Stream = Stream{}
	for _, x := range s.xs {
		s.Stream.Add(x)
	}
}

// Values returns the raw observations in insertion order. The slice aliases
// internal storage; callers must not modify it.
func (s *Sample) Values() []float64 { return s.xs }

// Percentile reports the p-th percentile (0 ≤ p ≤ 100) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return s.orderStat(0)
	}
	if p >= 100 {
		return s.orderStat(n - 1)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.orderStat(lo)
	}
	frac := rank - float64(lo)
	// Selecting lo first leaves hi = lo+1 as the minimum of the partition
	// above it, which orderStat finds with one linear scan.
	x := s.orderStat(lo)
	return x*(1-frac) + s.orderStat(hi)*frac
}

// PercentileNearestRank reports the p-th percentile by the ceiling nearest-rank
// rule: the smallest observation x such that at least p% of the sample is ≤ x.
// It returns 0 for an empty sample.
func (s *Sample) PercentileNearestRank(p float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return s.orderStat(idx)
}

// FractionAbove reports the fraction of observations greater than or equal
// to x, i.e. the empirical Pr(X ≥ x). NaN observations never count.
func (s *Sample) FractionAbove(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	c := 0
	for _, v := range s.xs {
		if v >= x {
			c++
		}
	}
	return float64(c) / float64(len(s.xs))
}

// orderStat returns the observation of 0-based rank k in sort.Float64s
// order, selecting it in the scratch copy on the side of the last selected
// rank that holds k.
func (s *Sample) orderStat(k int) float64 {
	if !s.ready {
		s.load()
	}
	a := s.scratch
	switch {
	case k < s.nans: // the NaNs order first and are already in place
	case k > s.pivot:
		selectRank(a[s.pivot+1:], k-s.pivot-1)
		s.pivot = k
	case k < s.pivot:
		selectRank(a[s.nans:s.pivot], k-s.nans)
		s.pivot = k
	}
	return a[k]
}

// load copies the observations into the scratch buffer and moves the NaNs
// to its front, so selection runs over NaN-free values with plain <.
func (s *Sample) load() {
	a := append(s.scratch[:0], s.xs...)
	nans := 0
	for i, x := range a {
		if math.IsNaN(x) {
			a[i], a[nans] = a[nans], x
			nans++
		}
	}
	s.scratch, s.nans, s.pivot, s.ready = a, nans, nans-1, true
}

// insertionMax is the longest subrange selectRank finishes by insertion sort.
const insertionMax = 12

// selectRank reorders a, which must hold no NaN, so that a[k] is the value an
// ascending sort would put there, with no smaller value after it and no
// larger one before it. It is introselect: median-of-three Hoare
// partitioning narrows the subrange holding k, and after 2·log₂ len(a)
// rounds the remaining subrange is sorted outright, bounding the worst case
// at O(n log n). A k at the low end of the subrange, which is where the
// upper rank of an interpolated percentile lands, is found by one linear
// minimum scan instead.
func selectRank(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for limit := 2 * bits.Len(uint(len(a))); hi-lo >= insertionMax; limit-- {
		switch {
		case k == lo:
			m := lo
			for i := lo + 1; i <= hi; i++ {
				if a[i] < a[m] {
					m = i
				}
			}
			a[lo], a[m] = a[m], a[lo]
			return
		case limit == 0:
			sort.Float64s(a[lo : hi+1])
			return
		}
		// Order a[lo] ≤ a[mid] ≤ a[hi]; the ends then stop both scans.
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
			if a[mid] < a[lo] {
				a[mid], a[lo] = a[lo], a[mid]
			}
		}
		p := a[mid]
		i, j := lo, hi
		for {
			for i++; a[i] < p; i++ {
			}
			for j--; p < a[j]; j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		// Now a[lo..j] ≤ p ≤ a[j+1..hi], and when the scans met (i == j)
		// a[j] == p already sits at its sorted rank.
		switch {
		case k > j:
			lo = j + 1
		case k == j && i == j:
			return
		default:
			hi = j
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// WeightedTally accumulates time-weighted occupancy per named bucket, e.g.
// seconds of residency per power state.
type WeightedTally struct {
	weights map[string]float64
	order   []string
	total   float64
}

// NewWeightedTally returns an empty tally.
func NewWeightedTally() *WeightedTally {
	return &WeightedTally{weights: make(map[string]float64)}
}

// Add accumulates weight w (usually seconds) in bucket name.
func (t *WeightedTally) Add(name string, w float64) {
	if _, ok := t.weights[name]; !ok {
		t.order = append(t.order, name)
	}
	t.weights[name] += w
	t.total += w
}

// Reset empties the tally in place, keeping the map and slice storage so a
// reused tally accumulates again without allocating.
func (t *WeightedTally) Reset() {
	clear(t.weights)
	t.order = t.order[:0]
	t.total = 0
}

// Get reports the accumulated weight of bucket name.
func (t *WeightedTally) Get(name string) float64 { return t.weights[name] }

// Total reports the sum of all weights.
func (t *WeightedTally) Total() float64 { return t.total }

// Fraction reports bucket name's share of the total weight.
func (t *WeightedTally) Fraction(name string) float64 {
	if t.total == 0 {
		return 0
	}
	return t.weights[name] / t.total
}

// Names returns the bucket names in first-seen order.
func (t *WeightedTally) Names() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// Merge folds another tally into t.
func (t *WeightedTally) Merge(o *WeightedTally) {
	for _, name := range o.order {
		t.Add(name, o.weights[name])
	}
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi); observations
// outside the range land in saturated edge buckets.
type Histogram struct {
	Lo, Hi  float64
	Buckets []int
	n       int
}

// NewHistogram returns a histogram with nb buckets covering [lo, hi).
func NewHistogram(lo, hi float64, nb int) *Histogram {
	if nb < 1 {
		nb = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, nb)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
	h.n++
}

// Count reports the number of recorded observations.
func (h *Histogram) Count() int { return h.n }

// BucketMid reports the midpoint of bucket i.
func (h *Histogram) BucketMid(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Buckets))
	return h.Lo + w*(float64(i)+0.5)
}

// Mode reports the midpoint of the most populated bucket.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Buckets {
		if c > h.Buckets[best] {
			best = i
		}
	}
	return h.BucketMid(best)
}
