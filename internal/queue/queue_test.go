package queue

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

// handCfg is a hand-checkable configuration: one sleep phase entered 0.5 s
// after the queue empties, 30 W asleep, 0.1 s wake, 250 W active/idle.
func handCfg() Config {
	return Config{
		Frequency:    1,
		FreqExponent: 1,
		ActivePower:  250,
		IdlePower:    250,
		Phases: []SleepPhase{
			{Name: "sleep", Power: 30, WakeLatency: 0.1, EnterAfter: 0.5},
		},
	}
}

// TestHandComputedScenario walks a three-job schedule whose energy, times and
// responses were computed by hand (see comments).
func TestHandComputedScenario(t *testing.T) {
	jobs := []Job{
		{Arrival: 1, Size: 2},  // idle 0→1: pre 0.5·250 + sleep 0.5·30; wake 0.1·250
		{Arrival: 2, Size: 1},  // arrives busy, queues
		{Arrival: 10, Size: 1}, // idle 4.1→10: pre 0.5·250 + sleep 5.4·30; wake 0.1·250
	}
	res, err := Simulate(jobs, handCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Departures: J1 at 3.1 (start 1.1), J2 at 4.1, J3 at 11.1 (start 10.1).
	approx(t, "duration", res.Duration, 11.1, 1e-12)
	approx(t, "busy", res.BusyTime, 4, 1e-12)
	approx(t, "wake", res.WakeTime, 0.2, 1e-12)
	approx(t, "idle", res.IdleTime, 6.9, 1e-12)
	if res.Wakes != 2 {
		t.Errorf("wakes = %d, want 2", res.Wakes)
	}
	// Energy: idle1 125+15, wake1 25, svc 500+250, idle2 125+162, wake2 25, svc 250.
	approx(t, "energy", res.Energy, 1477, 1e-12)
	approx(t, "avg power", res.AvgPower, 1477/11.1, 1e-12)
	approx(t, "mean response", res.MeanResponse, (2.1+2.1+1.1)/3, 1e-12)
	approx(t, "residency sleep", res.Residency["sleep"], 0.5+5.4, 1e-12)
	approx(t, "residency pre", res.Residency[PreSleepBucket], 1.0, 1e-12)
	approx(t, "measured util", res.MeasuredUtilization, 4/11.1, 1e-12)
	if res.Jobs != 3 {
		t.Errorf("jobs = %d, want 3", res.Jobs)
	}
}

// TestShortIdleNoWake: an idle gap shorter than τ₁ must not trigger a wake.
func TestShortIdleNoWake(t *testing.T) {
	jobs := []Job{
		{Arrival: 0, Size: 1},
		{Arrival: 1.2, Size: 1}, // idle gap 0.2 < τ₁ = 0.5: still in C0(a)
	}
	res, err := Simulate(jobs, handCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wakes != 0 {
		t.Errorf("wakes = %d, want 0", res.Wakes)
	}
	approx(t, "J2 response", res.MeanResponse, 1.0, 1e-12) // both responses are 1.0
	// Idle 0.2 s at 250 W; no sleep residency.
	if res.Residency["sleep"] != 0 {
		t.Errorf("sleep residency = %v, want 0", res.Residency["sleep"])
	}
	approx(t, "energy", res.Energy, 2*250+0.2*250, 1e-12)
}

// TestEnterDelayBoundary: arrival exactly at τ₁ counts as entered.
func TestEnterDelayBoundary(t *testing.T) {
	jobs := []Job{
		{Arrival: 0, Size: 1},
		{Arrival: 1.5, Size: 1}, // idle offset exactly 0.5 = τ₁
	}
	res, err := Simulate(jobs, handCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wakes != 1 {
		t.Errorf("wakes = %d, want 1 (boundary arrival is in-phase)", res.Wakes)
	}
}

// TestImmediateSleepSequence exercises a two-phase sequence with τ₁ = 0:
// C0(i)S0(i) immediately, then C6S3 after 2 s.
func TestImmediateSleepSequence(t *testing.T) {
	cfg := Config{
		Frequency: 1, FreqExponent: 1, ActivePower: 250, IdlePower: 250,
		Phases: []SleepPhase{
			{Name: "shallow", Power: 135.5, WakeLatency: 0, EnterAfter: 0},
			{Name: "deep", Power: 28.1, WakeLatency: 1, EnterAfter: 2},
		},
	}
	jobs := []Job{
		{Arrival: 1, Size: 1},    // idle [0,1): all shallow (1 s), wake 0 → start 1
		{Arrival: 10, Size: 1},   // idle [2,10): shallow 2 s, deep 6 s, wake 1 → start 11
		{Arrival: 12.5, Size: 1}, // idle [12,12.5): shallow 0.5 s, wake 0
	}
	res, err := Simulate(jobs, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "shallow residency", res.Residency["shallow"], 1+2+0.5, 1e-12)
	approx(t, "deep residency", res.Residency["deep"], 6, 1e-12)
	if res.Wakes != 1 { // only the deep wake has positive latency
		t.Errorf("wakes = %d, want 1", res.Wakes)
	}
	// Responses: 1.0, 2.0 (wake 1 + svc 1), 1.0.
	approx(t, "mean response", res.MeanResponse, (1.0+2.0+1.0)/3, 1e-12)
	// Energy: 3 svc·250 + idle(1·135.5 + 2·135.5 + 6·28.1 + 0.5·135.5) + wake 1·250
	wantE := 750 + 3.5*135.5 + 6*28.1 + 250.0
	approx(t, "energy", res.Energy, wantE, 1e-12)
}

// TestMM1MeanResponse: with no sleep states and exponential traffic the
// simulator must reproduce the M/M/1 mean response 1/(µf − λ).
func TestMM1MeanResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		mu  = 10.0 // service rate at f=1
		rho = 0.5
		f   = 0.8
		n   = 400000
	)
	lambda := rho * mu
	jobs := make([]Job, n)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / lambda
		jobs[i] = Job{Arrival: tnow, Size: rng.ExpFloat64() / mu}
	}
	cfg := Config{Frequency: f, FreqExponent: 1, ActivePower: 250, IdlePower: 135.5,
		Phases: []SleepPhase{{Name: "idle", Power: 135.5, WakeLatency: 0, EnterAfter: 0}}}
	res, err := Simulate(jobs, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (mu*f - lambda)
	approx(t, "E[R]", res.MeanResponse, want, 0.03)
	// Effective utilization is λ/(µf).
	approx(t, "util", res.MeasuredUtilization, lambda/(mu*f), 0.02)
	// Average power: ρ_eff·250 + (1−ρ_eff)·135.5 with w=0.
	rhoEff := lambda / (mu * f)
	approx(t, "E[P]", res.AvgPower, rhoEff*250+(1-rhoEff)*135.5, 0.02)
}

// TestMemoryBoundServiceIndependentOfFrequency: β=0 ⇒ service times ignore f.
func TestMemoryBoundServiceIndependentOfFrequency(t *testing.T) {
	jobs := []Job{{Arrival: 0, Size: 2}}
	for _, f := range []float64{0.2, 0.5, 1.0} {
		cfg := Config{Frequency: f, FreqExponent: 0, ActivePower: 100, IdlePower: 100}
		res, err := Simulate(jobs, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		approx(t, "response", res.MeanResponse, 2, 1e-12)
	}
}

// TestSubLinearScaling: β=0.5 ⇒ service time = size/√f.
func TestSubLinearScaling(t *testing.T) {
	cfg := Config{Frequency: 0.25, FreqExponent: 0.5, ActivePower: 1, IdlePower: 1}
	if got := cfg.ServiceTime(1); math.Abs(got-2) > 1e-12 {
		t.Errorf("service time = %v, want 2 (1/√0.25)", got)
	}
	cfg.FreqExponent = 1
	if got := cfg.ServiceTime(1); math.Abs(got-4) > 1e-12 {
		t.Errorf("service time = %v, want 4", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Frequency: 0, FreqExponent: 1},
		{Frequency: 1.5, FreqExponent: 1},
		{Frequency: 1, FreqExponent: -0.1},
		{Frequency: 1, FreqExponent: 2},
		{Frequency: 1, FreqExponent: 1, ActivePower: -1},
		{Frequency: 1, FreqExponent: 1, Phases: []SleepPhase{{EnterAfter: -1}}},
		{Frequency: 1, FreqExponent: 1, Phases: []SleepPhase{
			{EnterAfter: 2}, {EnterAfter: 1},
		}},
		{Frequency: 1, FreqExponent: 1, Phases: []SleepPhase{{Power: -5}}},
		{Frequency: 1, FreqExponent: 1, Phases: []SleepPhase{{WakeLatency: -1}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	good := Config{Frequency: 0.5, FreqExponent: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestOutOfOrderArrivalsRejected(t *testing.T) {
	eng, err := NewEngine(handCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Process(Job{Arrival: 5, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Process(Job{Arrival: 4, Size: 1}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("out-of-order arrival: err = %v, want ErrOutOfOrder", err)
	}
	if _, err := eng.Process(Job{Arrival: 6, Size: -1}); err == nil {
		t.Error("negative size accepted")
	}
}

// TestProcessRejectsBadJobs is the engine's ingress table: every malformed
// job is rejected with its typed sentinel — non-finite values first, then
// order, then sign — and leaves the engine exactly as it was, so the next
// good job is served as if the bad one never arrived.
func TestProcessRejectsBadJobs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		job  Job
		want error
	}{
		{"nan arrival", Job{Arrival: nan, Size: 1}, ErrNonFinite},
		{"+inf arrival", Job{Arrival: inf, Size: 1}, ErrNonFinite},
		{"-inf arrival", Job{Arrival: -inf, Size: 1}, ErrNonFinite},
		{"nan size", Job{Arrival: 6, Size: nan}, ErrNonFinite},
		{"+inf size", Job{Arrival: 6, Size: inf}, ErrNonFinite},
		{"-inf size", Job{Arrival: 6, Size: -inf}, ErrNonFinite},
		{"nan arrival, negative size", Job{Arrival: nan, Size: -1}, ErrNonFinite},
		{"early arrival", Job{Arrival: 4, Size: 1}, ErrOutOfOrder},
		{"negative size", Job{Arrival: 6, Size: -1}, ErrNegativeSize},
		{"early arrival, negative size", Job{Arrival: 4, Size: -1}, ErrOutOfOrder},
	}
	warm := func() *Engine {
		t.Helper()
		eng, err := NewEngine(handCfg(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Process(Job{Arrival: 5, Size: 1}); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	next := Job{Arrival: 7, Size: 0.5}
	ref := warm()
	wantResp, err := ref.Process(next)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		eng := warm()
		before := eng.State()
		if _, err := eng.Process(tc.job); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if !reflect.DeepEqual(eng.State(), before) {
			t.Errorf("%s: rejected job changed the engine state", tc.name)
		}
		if got, err := eng.Process(next); err != nil || got != wantResp || !reflect.DeepEqual(eng.State(), ref.State()) {
			t.Errorf("%s: next job after the rejection: response %v (err %v), want %v and the reference state", tc.name, got, err, wantResp)
		}
	}
}

// TestClockedCallsRejectNaN: the engine's clocked control calls order
// against the last arrival with NaN-safe guards, so a NaN instant is
// refused and leaves the engine state as it was.
func TestClockedCallsRejectNaN(t *testing.T) {
	nan := math.NaN()
	calls := []struct {
		name string
		down bool
		call func(*Engine) error
	}{
		{"WakeAt", false, func(e *Engine) error { return e.WakeAt(nan) }},
		{"SetConfigAt", false, func(e *Engine) error { return e.SetConfigAt(nan, handCfg()) }},
		{"CrashAt", false, func(e *Engine) error { return e.CrashAt(nan, 0) }},
		{"RejoinAt", true, func(e *Engine) error { return e.RejoinAt(nan) }},
	}
	for _, c := range calls {
		eng, err := NewEngine(handCfg(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Process(Job{Arrival: 5, Size: 1}); err != nil {
			t.Fatal(err)
		}
		if c.down {
			if err := eng.CrashAt(5.5, 0); err != nil {
				t.Fatal(err)
			}
		}
		before := eng.State()
		if err := c.call(eng); err == nil {
			t.Errorf("%s(NaN) accepted", c.name)
		}
		if !reflect.DeepEqual(eng.State(), before) {
			t.Errorf("%s(NaN) changed the engine state", c.name)
		}
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	if _, err := Simulate(nil, Config{}, Options{}); err == nil {
		t.Error("zero config accepted")
	}
}

// TestEngineSetConfigAt verifies mid-run policy switching: idle before the
// switch bills at the old schedule, the sleep clock re-anchors at the switch.
func TestEngineSetConfigAt(t *testing.T) {
	cfgA := Config{Frequency: 1, FreqExponent: 1, ActivePower: 200, IdlePower: 200,
		Phases: []SleepPhase{{Name: "a", Power: 50, WakeLatency: 0, EnterAfter: 0}}}
	cfgB := Config{Frequency: 0.5, FreqExponent: 1, ActivePower: 100, IdlePower: 100,
		Phases: []SleepPhase{{Name: "b", Power: 10, WakeLatency: 0.2, EnterAfter: 1}}}
	eng, err := NewEngine(cfgA, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Job 1 under A: arrives 1, size 1 → idle [0,1) in "a" (50 W), svc 1 at
	// 200 W, departs 2.
	if _, err := eng.Process(Job{Arrival: 1, Size: 1}); err != nil {
		t.Fatal(err)
	}
	// Switch at t=4: idle [2,4) billed in "a" (2 s·50 W); anchor moves to 4.
	if err := eng.SetConfigAt(4, cfgB); err != nil {
		t.Fatal(err)
	}
	// Job 2 under B: arrives 6 → idle [4,6): pre-sleep [4,5) @100, "b" [5,6)
	// @10; wake 0.2 @100; svc 1/0.5=2 @100 → departs 8.2, response 2.2.
	resp, err := eng.Process(Job{Arrival: 6, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "response under B", resp, 2.2, 1e-12)
	res, err := eng.Finish(8.2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "residency a", res.Residency["a"], 3, 1e-12)
	approx(t, "residency b", res.Residency["b"], 1, 1e-12)
	approx(t, "residency pre", res.Residency[PreSleepBucket], 1, 1e-12)
	wantE := 1*50 + 1*200 + 2*50 + 1*100 + 1*10 + 0.2*100 + 2*100
	approx(t, "energy", res.Energy, wantE, 1e-12)
	if res.Wakes != 1 {
		t.Errorf("wakes = %d, want 1", res.Wakes)
	}
}

func TestSetConfigWhileBusyKeepsBacklogSpeed(t *testing.T) {
	cfgA := Config{Frequency: 1, FreqExponent: 1, ActivePower: 100, IdlePower: 100}
	cfgB := Config{Frequency: 0.5, FreqExponent: 1, ActivePower: 100, IdlePower: 100}
	eng, _ := NewEngine(cfgA, 0)
	if _, err := eng.Process(Job{Arrival: 0, Size: 10}); err != nil {
		t.Fatal(err)
	}
	if got := eng.FreeAt(); got != 10 {
		t.Fatalf("freeAt = %v, want 10", got)
	}
	if err := eng.SetConfigAt(5, cfgB); err != nil {
		t.Fatal(err)
	}
	// In-flight work still departs at 10; a job queued behind it runs at 0.5.
	resp, err := eng.Process(Job{Arrival: 6, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "queued response", resp, 10+2-6, 1e-12)
	// Remaining work at t=6: 4 s of the in-flight job plus 2 s queued.
	if got := eng.Backlog(6); math.Abs(got-6) > 1e-12 {
		t.Errorf("backlog at 6 = %v, want 6", got)
	}
	if got := eng.Backlog(100); got != 0 {
		t.Errorf("backlog after drain = %v, want 0", got)
	}
}

func TestSetConfigBeforeLastArrivalRejected(t *testing.T) {
	eng, _ := NewEngine(handCfg(), 0)
	if _, err := eng.Process(Job{Arrival: 5, Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetConfigAt(4, handCfg()); err == nil {
		t.Error("switch before last arrival accepted")
	}
	bad := Config{}
	if err := eng.SetConfigAt(6, bad); err == nil {
		t.Error("invalid config accepted in switch")
	}
}

func TestWarmupDiscardsEarlyResponses(t *testing.T) {
	jobs := []Job{
		{Arrival: 0, Size: 5},  // response 5
		{Arrival: 10, Size: 1}, // response 1
		{Arrival: 20, Size: 1}, // response 1
	}
	cfg := Config{Frequency: 1, FreqExponent: 1, ActivePower: 1, IdlePower: 1}
	res, err := Simulate(jobs, cfg, Options{Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 2 {
		t.Errorf("jobs after warmup = %d, want 2", res.Jobs)
	}
	approx(t, "mean response", res.MeanResponse, 1, 1e-12)
}

// Property: time partition busy+wake+idle = duration, and energy is bounded
// by [minPower, maxPower]·duration, for random job streams and configs.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, nf, np uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		freq := 0.2 + float64(nf)/255*0.8
		nPhases := int(np) % 3
		cfg := Config{
			Frequency: freq, FreqExponent: 1,
			ActivePower: 250, IdlePower: 250,
		}
		tau := 0.0
		pw := 150.0
		for i := 0; i < nPhases; i++ {
			tau += rng.Float64()
			pw /= 2
			cfg.Phases = append(cfg.Phases, SleepPhase{
				Name: string(rune('a' + i)), Power: pw,
				WakeLatency: rng.Float64() * 0.1, EnterAfter: tau,
			})
		}
		n := 200
		jobs := make([]Job, n)
		tnow := 0.0
		for i := range jobs {
			tnow += rng.ExpFloat64() * 0.5
			jobs[i] = Job{Arrival: tnow, Size: rng.ExpFloat64() * 0.2}
		}
		res, err := Simulate(jobs, cfg, Options{})
		if err != nil {
			return false
		}
		if math.Abs(res.BusyTime+res.WakeTime+res.IdleTime-res.Duration) > 1e-6*res.Duration {
			return false
		}
		minP, maxP := 250.0, 250.0
		for _, ph := range cfg.Phases {
			if ph.Power < minP {
				minP = ph.Power
			}
		}
		if res.Energy < minP*res.Duration-1e-6 || res.Energy > maxP*res.Duration+1e-6 {
			return false
		}
		// Residency buckets partition idle time.
		var idleSum float64
		for _, v := range res.Residency {
			idleSum += v
		}
		return math.Abs(idleSum-res.IdleTime) < 1e-6*math.Max(1, res.IdleTime)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: response time of every job is at least its service time, and
// departures respect FCFS (non-decreasing).
func TestFCFSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := handCfg()
		eng, err := NewEngine(cfg, 0)
		if err != nil {
			return false
		}
		tnow, prevDep := 0.0, 0.0
		for i := 0; i < 300; i++ {
			tnow += rng.ExpFloat64() * 0.3
			size := rng.ExpFloat64() * 0.2
			resp, err := eng.Process(Job{Arrival: tnow, Size: size})
			if err != nil {
				return false
			}
			if resp < size-1e-12 {
				return false
			}
			dep := tnow + resp
			if dep < prevDep-1e-12 {
				return false
			}
			prevDep = dep
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: lowering frequency never lowers mean response time (CPU-bound,
// same job stream, no wake latency differences).
func TestFrequencyMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	jobs := make([]Job, 500)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64()
		jobs[i] = Job{Arrival: tnow, Size: rng.ExpFloat64() * 0.3}
	}
	base := Config{FreqExponent: 1, ActivePower: 1, IdlePower: 1}
	prev := -1.0
	for _, f := range []float64{1.0, 0.8, 0.6, 0.5} {
		cfg := base
		cfg.Frequency = f
		res, err := Simulate(jobs, cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && res.MeanResponse < prev-1e-9 {
			t.Fatalf("mean response decreased when slowing to f=%v", f)
		}
		prev = res.MeanResponse
	}
}

func TestEmptyJobStream(t *testing.T) {
	res, err := Simulate(nil, handCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 0 || res.Duration != 0 || res.Energy != 0 {
		t.Errorf("empty stream should produce zero result, got %+v", res)
	}
}

func TestFinishBillsTrailingIdle(t *testing.T) {
	eng, _ := NewEngine(handCfg(), 0)
	if _, err := eng.Process(Job{Arrival: 0, Size: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Finish(3) // departs at 1; trailing idle [1,3): pre 0.5, sleep 1.5
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "duration", res.Duration, 3, 1e-12)
	approx(t, "energy", res.Energy, 250+0.5*250+1.5*30, 1e-12)
	// Finish before freeAt clamps to freeAt.
	eng2, _ := NewEngine(handCfg(), 0)
	if _, err := eng2.Process(Job{Arrival: 0, Size: 2}); err != nil {
		t.Fatal(err)
	}
	res2, err := eng2.Finish(1)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "clamped duration", res2.Duration, 2, 1e-12)
}

func TestSnapshotDeltas(t *testing.T) {
	eng, _ := NewEngine(handCfg(), 0)
	s0 := eng.Snapshot()
	if s0.Jobs != 0 || s0.Energy != 0 {
		t.Fatalf("fresh snapshot not zero: %+v", s0)
	}
	if _, err := eng.Process(Job{Arrival: 0, Size: 1}); err != nil {
		t.Fatal(err)
	}
	s1 := eng.Snapshot()
	if s1.Jobs != 1 {
		t.Errorf("jobs = %d, want 1", s1.Jobs)
	}
	if s1.Energy <= s0.Energy {
		t.Errorf("energy did not increase")
	}
}

// TestWarmupLongerThanRunKeepsFullSample pins the pre-existing guard: a
// warm-up spanning the whole run (or more) leaves the sample untrimmed.
func TestWarmupLongerThanRunKeepsFullSample(t *testing.T) {
	jobs := []Job{
		{Arrival: 0, Size: 5},
		{Arrival: 10, Size: 1},
	}
	cfg := Config{Frequency: 1, FreqExponent: 1, ActivePower: 1, IdlePower: 1}
	for _, warm := range []int{2, 3, 100} {
		res, err := Simulate(jobs, cfg, Options{Warmup: warm})
		if err != nil {
			t.Fatal(err)
		}
		if res.Jobs != 2 {
			t.Errorf("Warmup=%d: jobs = %d, want full sample of 2", warm, res.Jobs)
		}
		approx(t, "mean response", res.MeanResponse, 3, 1e-12)
	}
}

// chunkedSource adapts a job slice to JobSource with deliberately awkward
// chunk boundaries, for SimulateSource equivalence.
type chunkedSource struct {
	jobs []Job
	pos  int
	step int
}

func (s *chunkedSource) Next(buf []Job) (int, bool) {
	lim := s.step
	if lim > len(buf) {
		lim = len(buf)
	}
	n := copy(buf[:lim], s.jobs[s.pos:])
	s.pos += n
	return n, s.pos < len(s.jobs)
}

// TestSimulateSourceMatchesSimulate pins the streaming batch driver to the
// materialized Simulate bit for bit, across chunk shapes and warm-up trims.
func TestSimulateSourceMatchesSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	jobs := make([]Job, 5000)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() * 2
		jobs[i] = Job{Arrival: tnow, Size: rng.ExpFloat64() * 0.5}
	}
	for _, opts := range []Options{{}, {Warmup: 100}} {
		want, err := Simulate(jobs, handCfg(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range []int{1, 7, 100000} {
			got, err := SimulateSource(&chunkedSource{jobs: jobs, step: step}, handCfg(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Jobs != want.Jobs || got.MeanResponse != want.MeanResponse ||
				got.ResponseP95 != want.ResponseP95 || got.Energy != want.Energy ||
				got.Duration != want.Duration || got.Wakes != want.Wakes {
				t.Fatalf("step %d warmup %d diverges:\n got %+v\nwant %+v",
					step, opts.Warmup, got, want)
			}
		}
	}
}

// erroringSource exposes a deferred error after its jobs run out.
type erroringSource struct{ n int }

func (s *erroringSource) Next(buf []Job) (int, bool) {
	if s.n >= 3 || len(buf) == 0 {
		return 0, false
	}
	buf[0] = Job{Arrival: float64(s.n), Size: 0.1}
	s.n++
	return 1, true
}
func (s *erroringSource) Err() error { return errors.New("synthetic source failure") }

func TestSimulateSourceSurfacesSourceError(t *testing.T) {
	if _, err := SimulateSource(&erroringSource{}, handCfg(), Options{}); err == nil {
		t.Fatal("source error not surfaced")
	}
}

// TestNextFreeAtMatchesEngine pins the dispatch shadow recursion to the
// engine bit for bit: over a random multi-phase stream,
// Config.NextFreeAtAnchored applied to the previous FreeAt (as both freeAt
// and anchor) must land exactly on the engine's FreeAt after every Process —
// the property the farm package's parallel JSQ mode rests on.
func TestNextFreeAtMatchesEngine(t *testing.T) {
	cfg := Config{
		Frequency:    0.7,
		FreqExponent: 1,
		ActivePower:  200,
		IdlePower:    140,
		Phases: []SleepPhase{
			{Name: "shallow", Power: 80, WakeLatency: 1e-3, EnterAfter: 0},
			{Name: "deep", Power: 15, WakeLatency: 5, EnterAfter: 2},
		},
	}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	tnow, shadow := 0.0, 0.0
	for i := 0; i < 5000; i++ {
		tnow += rng.ExpFloat64() * 0.8
		j := Job{Arrival: tnow, Size: rng.ExpFloat64() * 0.3}
		shadow = cfg.NextFreeAtAnchored(shadow, shadow, j)
		if _, err := eng.Process(j); err != nil {
			t.Fatal(err)
		}
		if got := eng.FreeAt(); got != shadow {
			t.Fatalf("job %d: shadow freeAt %.17g, engine %.17g", i, shadow, got)
		}
	}
}

// TestNextFreeAtPhaseless covers the no-sleep configuration: the recursion
// must still match (wake latency is zero, idle entry never happens).
func TestNextFreeAtPhaseless(t *testing.T) {
	cfg := Config{Frequency: 1, FreqExponent: 1, ActivePower: 100, IdlePower: 50}
	eng, err := NewEngine(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	shadow := 0.0
	for i, j := range []Job{{Arrival: 1, Size: 2}, {Arrival: 1.5, Size: 0.25}, {Arrival: 9, Size: 1}} {
		shadow = cfg.NextFreeAtAnchored(shadow, shadow, j)
		if _, err := eng.Process(j); err != nil {
			t.Fatal(err)
		}
		if got := eng.FreeAt(); got != shadow {
			t.Fatalf("job %d: shadow freeAt %.17g, engine %.17g", i, shadow, got)
		}
	}
}
