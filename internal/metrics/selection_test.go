package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"
)

// selectionRanks are the percentiles the selection oracle queries: both
// ends, the interpolated interior, and the p95/p99 pair the queue engine
// reads back to back.
var selectionRanks = []float64{0, 0.1, 1, 50, 94.9, 95, 99, 99.9, 100}

// refSorted is the reference the selection must reproduce: a copy sorted
// with sort.Float64s.
func refSorted(xs []float64) []float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return ys
}

// refPercentile indexes a sorted copy the way Percentile used to.
func refPercentile(ys []float64, p float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	if p <= 0 {
		return ys[0]
	}
	if p >= 100 {
		return ys[len(ys)-1]
	}
	rank := p / 100 * float64(len(ys)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return ys[lo]
	}
	frac := rank - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

// refNearestRank indexes a sorted copy by the ceiling nearest-rank rule.
func refNearestRank(ys []float64, p float64) float64 {
	n := len(ys)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return ys[idx]
}

// refFractionAbove binary-searches a sorted copy for Pr(X ≥ x).
func refFractionAbove(ys []float64, x float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	return float64(len(ys)-sort.SearchFloat64s(ys, x)) / float64(len(ys))
}

// sameValue compares bit for bit, except that a -0/+0 tie compares with ==:
// sort.Float64s is itself unstable on signed zeros.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// checkAgainstSort queries s at every selection rank, in increasing or
// decreasing order, alternating interpolated and nearest-rank lookups so
// each query starts from the partition the previous one left behind, and
// compares each answer with the sorted reference.
func checkAgainstSort(t *testing.T, tag string, s *Sample, descending bool) {
	t.Helper()
	ys := refSorted(s.Values())
	for i := range selectionRanks {
		p := selectionRanks[i]
		if descending {
			p = selectionRanks[len(selectionRanks)-1-i]
		}
		got, want := s.Percentile(p), refPercentile(ys, p)
		if !sameValue(got, want) {
			t.Fatalf("%s: Percentile(%v) = %v (%#x), sorted reference %v (%#x)",
				tag, p, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		got, want = s.PercentileNearestRank(p), refNearestRank(ys, p)
		if !sameValue(got, want) {
			t.Fatalf("%s: PercentileNearestRank(%v) = %v, sorted reference %v", tag, p, got, want)
		}
	}
	thresholds := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1)}
	if len(ys) > 0 {
		thresholds = append(thresholds, ys[0], ys[len(ys)/2], ys[len(ys)-1])
	}
	for _, x := range thresholds {
		if got, want := s.FractionAbove(x), refFractionAbove(ys, x); got != want {
			t.Fatalf("%s: FractionAbove(%v) = %v, sorted reference %v", tag, x, got, want)
		}
	}
}

// namedInput is one input shape of the selection oracle.
type namedInput struct {
	shape string
	xs    []float64
}

// selectionInputs builds the oracle's input shapes at size n: random draws
// and the patterns that defeat naive pivot choices or stress ties.
func selectionInputs(n int, rng *rand.Rand) []namedInput {
	gen := func(shape string, f func(i int) float64) namedInput {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return namedInput{shape, xs}
	}
	return []namedInput{
		gen("random", func(int) float64 { return rng.ExpFloat64() }),
		gen("duplicates", func(int) float64 { return float64(rng.Intn(7)) * 0.5 }),
		gen("nan", func(int) float64 {
			if rng.Intn(5) == 0 {
				return math.NaN()
			}
			return rng.NormFloat64()
		}),
		gen("inf", func(int) float64 {
			switch rng.Intn(6) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return rng.NormFloat64()
		}),
		gen("signed-zeros", func(int) float64 {
			switch rng.Intn(3) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return 0
			}
			return rng.NormFloat64()
		}),
		gen("all-equal", func(int) float64 { return 3.25 }),
		gen("sorted", func(i int) float64 { return float64(i) }),
		gen("reversed", func(i int) float64 { return float64(n - i) }),
		gen("organ-pipe", func(i int) float64 { return float64(min(i, n-1-i)) }),
		gen("two-valued", func(int) float64 { return float64(rng.Intn(2)) }),
	}
}

// TestSampleSelectionMatchesSort is the equivalence oracle for order
// statistics by selection: every percentile, nearest-rank percentile and
// tail fraction must equal indexing a sort.Float64s copy, across sizes,
// adversarial shapes, rank orders and interleaved mutations.
func TestSampleSelectionMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 3, 15, 16, 17, 200, 100_000} {
		for _, in := range selectionInputs(n, rng) {
			shape, xs := in.shape, in.xs
			for _, desc := range []bool{false, true} {
				tag := func(step string) string {
					order := "increasing"
					if desc {
						order = "decreasing"
					}
					return shape + "/" + order + "/" + step + "/n=" + strconv.Itoa(n)
				}
				s := NewSample(0)
				for _, x := range xs {
					s.Add(x)
				}
				checkAgainstSort(t, tag("fresh"), s, desc)
				checkAgainstSort(t, tag("repeat"), s, !desc)
				for i := 0; i < 3; i++ {
					s.Add(xs[rng.Intn(n)])
				}
				s.Add(math.NaN())
				checkAgainstSort(t, tag("add"), s, desc)
				s.TrimFront(n / 3)
				checkAgainstSort(t, tag("trim-front"), s, desc)
				s.TrimBack(n / 4)
				checkAgainstSort(t, tag("trim-back"), s, !desc)
				s.Reset()
				checkAgainstSort(t, tag("reset"), s, desc)
				for _, x := range xs[:(n+1)/2] {
					s.Add(x)
				}
				checkAgainstSort(t, tag("refill"), s, desc)
			}
		}
	}
}

// TestSampleSelectionAdversarialCost pins the depth limit: on the inputs
// that drive plain quickselect quadratic, a p95-then-p99 query at n = 10⁵
// must cost within a small constant factor of sort.Float64s on the same
// input. Each side keeps its fastest of several runs, which is robust to a
// noisy host; a quadratic blow-up would be three orders of magnitude over.
func TestSampleSelectionAdversarialCost(t *testing.T) {
	const n, runs, factor = 100_000, 5, 10
	rng := rand.New(rand.NewSource(3))
	s := NewSample(n)
	buf := make([]float64, n)
	for _, in := range selectionInputs(n, rng) {
		switch in.shape {
		case "all-equal", "sorted", "reversed", "organ-pipe", "two-valued":
		default:
			continue
		}
		xs := in.xs
		sel, srt := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for r := 0; r < runs; r++ {
			s.Reset()
			for _, x := range xs {
				s.Add(x)
			}
			start := time.Now()
			_ = s.Percentile(95)
			_ = s.Percentile(99)
			sel = min(sel, time.Since(start))

			copy(buf, xs)
			start = time.Now()
			sort.Float64s(buf)
			srt = min(srt, time.Since(start))
		}
		t.Logf("%s: selection %v, sort.Float64s %v", in.shape, sel, srt)
		if sel > factor*srt && sel > time.Millisecond {
			t.Errorf("%s: selection took %v, sort.Float64s %v: more than %d× slower", in.shape, sel, srt, factor)
		}
	}
}

// FuzzSamplePercentile checks the selection against the sorted reference on
// arbitrary samples: each 8-byte chunk of data is one observation (every NaN
// is canonicalised, since sorting does not order NaN payloads), and the
// sample is queried at p, at q, trimmed, and queried again.
func FuzzSamplePercentile(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			u := math.Float64bits(x)
			for i := 0; i < 8; i++ {
				b = append(b, byte(u>>(8*i)))
			}
		}
		return b
	}
	f.Add(enc(3, 1, 2), 95.0, 99.0, uint8(1))
	f.Add(enc(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2), 50.0, 94.9, uint8(0))
	f.Add(enc(math.NaN(), 5, math.Inf(-1), 0, math.Copysign(0, -1), math.Inf(1), 2), 0.1, 100.0, uint8(2))
	f.Add(enc(9, 8, 7, 6, 5, 4, 3, 2, 1, 0, -1, -2, -3, -4, -5, -6, -7, -8), 99.9, 1.0, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, p, q float64, trim uint8) {
		if math.IsNaN(p) || math.IsNaN(q) || math.IsInf(p, 0) || math.IsInf(q, 0) {
			return
		}
		s := NewSample(0)
		for ; len(data) >= 8; data = data[8:] {
			var u uint64
			for i := 0; i < 8; i++ {
				u |= uint64(data[i]) << (8 * i)
			}
			x := math.Float64frombits(u)
			if math.IsNaN(x) {
				x = math.NaN()
			}
			s.Add(x)
		}
		check := func(step string) {
			ys := refSorted(s.Values())
			for _, r := range []float64{p, q, p} {
				if got, want := s.Percentile(r), refPercentile(ys, r); !sameValue(got, want) {
					t.Fatalf("%s: Percentile(%v) = %v, sorted reference %v", step, r, got, want)
				}
				if got, want := s.PercentileNearestRank(r), refNearestRank(ys, r); !sameValue(got, want) {
					t.Fatalf("%s: PercentileNearestRank(%v) = %v, sorted reference %v", step, r, got, want)
				}
				if got, want := s.FractionAbove(r), refFractionAbove(ys, r); got != want {
					t.Fatalf("%s: FractionAbove(%v) = %v, sorted reference %v", step, r, got, want)
				}
			}
		}
		check("fresh")
		s.TrimFront(int(trim & 3))
		s.TrimBack(int(trim >> 2 & 3))
		check("trimmed")
	})
}
