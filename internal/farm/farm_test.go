package farm

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sleepscale/internal/queue"
)

func testCfg() queue.Config {
	return queue.Config{
		Frequency:    1,
		FreqExponent: 1,
		ActivePower:  250,
		IdlePower:    250,
		Phases: []queue.SleepPhase{
			{Name: "sleep", Power: 75.5, WakeLatency: 1e-3, EnterAfter: 0},
		},
	}
}

func expJobs(n int, lambda, mu float64, seed int64) []queue.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]queue.Job, n)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / lambda
		jobs[i] = queue.Job{Arrival: tnow, Size: rng.ExpFloat64() / mu}
	}
	return jobs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, testCfg(), &RoundRobin{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := New(2, testCfg(), nil); err == nil {
		t.Error("nil dispatcher accepted")
	}
	if _, err := New(2, queue.Config{}, &RoundRobin{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSingleServerFarmMatchesEngine(t *testing.T) {
	jobs := expJobs(20000, 2, 5, 1)
	farmRes, err := Run(1, testCfg(), &RoundRobin{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	single, err := queue.Simulate(jobs, testCfg(), queue.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if farmRes.Jobs != single.Jobs {
		t.Fatalf("jobs %d != %d", farmRes.Jobs, single.Jobs)
	}
	if math.Abs(farmRes.MeanResponse-single.MeanResponse) > 1e-9 {
		t.Errorf("mean response %v != %v", farmRes.MeanResponse, single.MeanResponse)
	}
	if math.Abs(farmRes.Energy-single.Energy) > 1e-6 {
		t.Errorf("energy %v != %v", farmRes.Energy, single.Energy)
	}
}

func TestRoundRobinBalance(t *testing.T) {
	jobs := expJobs(10000, 4, 5, 2)
	res, err := Run(4, testCfg(), &RoundRobin{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, share := range res.JobShare {
		if math.Abs(share-0.25) > 1e-9 {
			t.Errorf("server %d share %v, want exactly 0.25", i, share)
		}
	}
}

func TestRandomRoughBalance(t *testing.T) {
	jobs := expJobs(20000, 4, 5, 3)
	res, err := Run(4, testCfg(), &Random{Rng: rand.New(rand.NewSource(9))}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, share := range res.JobShare {
		if math.Abs(share-0.25) > 0.02 {
			t.Errorf("server %d share %v, want ≈0.25", i, share)
		}
	}
}

func TestJSQBeatsRandomOnResponse(t *testing.T) {
	// At moderate load, join-shortest-queue should clearly beat random
	// dispatch on mean response.
	jobs := expJobs(30000, 12, 5, 4) // 4 servers, per-server ρ = 0.6
	jsq, err := Run(4, testCfg(), JSQ{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Run(4, testCfg(), &Random{Rng: rand.New(rand.NewSource(5))}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if jsq.MeanResponse >= rnd.MeanResponse {
		t.Errorf("JSQ response %v not below random %v", jsq.MeanResponse, rnd.MeanResponse)
	}
}

// TestScaleOutSleepOpportunity reproduces the [6]-style observation: with a
// fixed aggregate load spread over more servers, each server idles more, so
// sleep states recover a larger share of the (larger) provisioned capacity —
// total power grows sub-linearly in k.
func TestScaleOutSleepOpportunity(t *testing.T) {
	const (
		mu          = 5.0
		totalLambda = 4.0 // aggregate ρ·µ for one server at 0.8
	)
	jobs := expJobs(40000, totalLambda, mu, 6)
	var powers []float64
	for _, k := range []int{1, 2, 4} {
		res, err := Run(k, testCfg(), JSQ{}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		powers = append(powers, res.TotalAvgPower)
	}
	// Doubling the farm must cost far less than doubling the power: the
	// idle servers sleep. (Busy power 250, sleep 75.5: a fully idle extra
	// server adds ~75.5 W, not 250 W.)
	if powers[1] > powers[0]*1.6 {
		t.Errorf("2 servers draw %.1f W vs 1 server %.1f W — sleep not exploited",
			powers[1], powers[0])
	}
	if powers[2] > powers[0]*2.6 {
		t.Errorf("4 servers draw %.1f W vs 1 server %.1f W — sleep not exploited",
			powers[2], powers[0])
	}
	// And response improves with scale-out.
	r1, err := Run(1, testCfg(), JSQ{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(4, testCfg(), JSQ{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r4.MeanResponse >= r1.MeanResponse {
		t.Errorf("scale-out did not improve response: %v vs %v",
			r4.MeanResponse, r1.MeanResponse)
	}
}

func TestPerServerPolicySwitch(t *testing.T) {
	f, err := New(2, testCfg(), &RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	// Slow server 1 down mid-run; its queued jobs take twice as long.
	slow := testCfg()
	slow.Frequency = 0.5
	if _, _, err := f.Process(queue.Job{Arrival: 0, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Process(queue.Job{Arrival: 0.1, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Server(1).SetConfigAt(2, slow); err != nil {
		t.Fatal(err)
	}
	resp, srv, err := f.Process(queue.Job{Arrival: 3, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if srv != 0 { // round robin: third job goes to server 0
		t.Fatalf("job went to server %d", srv)
	}
	_ = resp
	resp, srv, err = f.Process(queue.Job{Arrival: 3, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if srv != 1 {
		t.Fatalf("job went to server %d", srv)
	}
	// Server 1 at f=0.5: service takes 2 s plus 1 ms wake.
	if math.Abs(resp-2.001) > 1e-9 {
		t.Errorf("slowed server response = %v, want 2.001", resp)
	}
}

func TestDispatcherNames(t *testing.T) {
	if (&RoundRobin{}).Name() != "round-robin" {
		t.Error("round robin name")
	}
	if (&Random{}).Name() != "random" {
		t.Error("random name")
	}
	if (JSQ{}).Name() != "jsq" {
		t.Error("jsq name")
	}
}

func TestFinishEmptyFarm(t *testing.T) {
	f, err := New(3, testCfg(), JSQ{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Finish(100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 0 {
		t.Errorf("jobs = %d", res.Jobs)
	}
	// Three idle servers for 100 s at 75.5 W each.
	want := 3 * 100 * 75.5
	if math.Abs(res.Energy-want) > 1e-6 {
		t.Errorf("idle energy = %v, want %v", res.Energy, want)
	}
}

// sequentialRun replays Run's sequential path explicitly (dispatch one job at
// a time through a Farm), as the reference for the parallel preassigned path.
func sequentialRun(t *testing.T, k int, cfg queue.Config, disp Dispatcher, jobs []queue.Job) Result {
	t.Helper()
	f, err := New(k, cfg, disp)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if _, _, err := f.Process(j); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	last := 0.0
	for i := 0; i < f.Size(); i++ {
		if ft := f.Server(i).FreeAt(); ft > last {
			last = ft
		}
	}
	res, err := f.Finish(last)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireResultsEqual(t *testing.T, got, want Result) {
	t.Helper()
	if got.Jobs != want.Jobs || got.MeanResponse != want.MeanResponse ||
		got.TotalAvgPower != want.TotalAvgPower || got.Energy != want.Energy {
		t.Fatalf("aggregate diverges:\n got Jobs=%d Mean=%.17g Power=%.17g Energy=%.17g\nwant Jobs=%d Mean=%.17g Power=%.17g Energy=%.17g",
			got.Jobs, got.MeanResponse, got.TotalAvgPower, got.Energy,
			want.Jobs, want.MeanResponse, want.TotalAvgPower, want.Energy)
	}
	if len(got.PerServer) != len(want.PerServer) || len(got.JobShare) != len(want.JobShare) {
		t.Fatalf("shape diverges: %d/%d servers, %d/%d shares",
			len(got.PerServer), len(want.PerServer), len(got.JobShare), len(want.JobShare))
	}
	for i := range got.PerServer {
		g, w := got.PerServer[i], want.PerServer[i]
		if g.Jobs != w.Jobs || g.Energy != w.Energy || g.MeanResponse != w.MeanResponse ||
			g.ResponseP95 != w.ResponseP95 || g.Duration != w.Duration || g.Wakes != w.Wakes {
			t.Fatalf("server %d diverges:\n got %+v\nwant %+v", i, g, w)
		}
		if got.JobShare[i] != want.JobShare[i] {
			t.Fatalf("server %d share %.17g != %.17g", i, got.JobShare[i], want.JobShare[i])
		}
	}
}

// TestRunParallelMatchesSequentialRoundRobin pins the preassigned parallel
// path to the sequential dispatch bit-for-bit.
func TestRunParallelMatchesSequentialRoundRobin(t *testing.T) {
	jobs := expJobs(30000, 8, 5, 3)
	for _, k := range []int{2, 4, 7} {
		want := sequentialRun(t, k, testCfg(), &RoundRobin{}, jobs)
		got, err := Run(k, testCfg(), &RoundRobin{}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		requireResultsEqual(t, got, want)
	}
}

// TestRunParallelMatchesSequentialRandom does the same for the random
// dispatcher: Preassign must consume the Rng exactly as Pick would.
func TestRunParallelMatchesSequentialRandom(t *testing.T) {
	jobs := expJobs(30000, 8, 5, 4)
	const k = 5
	want := sequentialRun(t, k, testCfg(), &Random{Rng: rand.New(rand.NewSource(99))}, jobs)
	got, err := Run(k, testCfg(), &Random{Rng: rand.New(rand.NewSource(99))}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, got, want)
}

// TestRunJSQStaysSequential: JSQ routing depends on queue state, so it must
// not implement the preassigned fast path.
func TestRunJSQStaysSequential(t *testing.T) {
	if _, ok := interface{}(JSQ{}).(Preassigner); ok {
		t.Fatal("JSQ must not implement Preassigner: its routing is state-dependent")
	}
}

// TestRunParallelRejectsBadPreassign: an out-of-range preassignment must
// surface as an error, mirroring the sequential dispatcher check.
type badPreassigner struct{ RoundRobin }

func (badPreassigner) Preassign(k int, jobs []queue.Job, dst []int) {
	for i := range jobs {
		dst[i] = k // out of range
	}
}

func TestRunParallelRejectsBadPreassign(t *testing.T) {
	jobs := expJobs(100, 8, 5, 5)
	if _, err := Run(3, testCfg(), &badPreassigner{}, jobs); err == nil {
		t.Fatal("out-of-range preassignment accepted")
	}
}

// sliceSource adapts a job slice to queue.JobSource for the streaming tests.
type sliceSource struct {
	jobs []queue.Job
	pos  int
}

func (s *sliceSource) Next(buf []queue.Job) (int, bool) {
	n := copy(buf, s.jobs[s.pos:])
	s.pos += n
	return n, s.pos < len(s.jobs)
}

// failingFarmSource exposes a deferred error.
type failingFarmSource struct{ sliceSource }

func (f *failingFarmSource) Err() error { return errSynthetic }

var errSynthetic = fmt.Errorf("synthetic farm source failure")

// TestPooledScratchStableAcrossRuns: the preassigned path's pooled scratch
// and engines must not leak state between runs — repeated identical runs
// stay bit-identical, including after an interleaved differently-shaped run.
func TestPooledScratchStableAcrossRuns(t *testing.T) {
	jobs := expJobs(20000, 8, 5, 21)
	first, err := Run(4, testCfg(), &RoundRobin{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Different shape in between re-dirties the pooled buffers.
	if _, err := Run(7, testCfg(), &RoundRobin{}, jobs[:5000]); err != nil {
		t.Fatal(err)
	}
	again, err := Run(4, testCfg(), &RoundRobin{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, again, first)
}

// TestPooledScratchConcurrentRuns exercises pool handout under the race
// detector: concurrent preassigned runs must not share scratch.
func TestPooledScratchConcurrentRuns(t *testing.T) {
	jobs := expJobs(8000, 8, 5, 31)
	want, err := Run(3, testCfg(), &RoundRobin{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	results := make([]Result, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = Run(3, testCfg(), &RoundRobin{}, jobs)
		}(g)
	}
	wg.Wait()
	for g := range errs {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		requireResultsEqual(t, results[g], want)
	}
}
