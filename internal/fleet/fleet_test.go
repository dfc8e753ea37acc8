package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"sleepscale/internal/colstore"
	"sleepscale/internal/core"
	"sleepscale/internal/farm"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
)

func flatTrace(slots int, util float64) *trace.Trace {
	t := &trace.Trace{Name: "flat", SlotSeconds: 1, Utilization: make([]float64, slots)}
	for i := range t.Utilization {
		t.Utilization[i] = util
	}
	return t
}

func fleetJobs(n int, lambda, mu float64, seed int64) []queue.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]queue.Job, n)
	tnow := 0.0
	for i := range jobs {
		tnow += rng.ExpFloat64() / lambda
		jobs[i] = queue.Job{Arrival: tnow, Size: rng.ExpFloat64() / mu}
	}
	return jobs
}

// staticStrategy pins one policy for every epoch.
type staticStrategy struct{ pol policy.Policy }

func (s *staticStrategy) Name() string { return "static-test" }
func (s *staticStrategy) Decide(core.DecideInput) (policy.Policy, error) {
	return s.pol, nil
}

// rngStrategy consumes the decision RNG every epoch, so any divergence in
// the decide stream between two drivers shows up as different policies —
// the sharpest possible probe of bit-for-bit decision equivalence.
type rngStrategy struct{ plans []policy.SleepPlan }

func newRngStrategy() *rngStrategy {
	return &rngStrategy{plans: []policy.SleepPlan{
		policy.NoSleep(),
		policy.SingleState(power.Sleep),
		policy.SingleState(power.DeeperSleep),
		policy.DelayedState(power.DeepSleep, 0.5),
	}}
}

func (s *rngStrategy) Name() string { return "rng-test" }
func (s *rngStrategy) Decide(in core.DecideInput) (policy.Policy, error) {
	pl := s.plans[in.Rng.Intn(len(s.plans))]
	f := 0.4 + 0.6*in.Rng.Float64()
	return policy.Policy{Frequency: f, Plan: pl}, nil
}

// sharedCfg is the shared-mode coordinator configuration runnerCfg
// describes for the single-server runner: one fleet predictor, no quorum, no
// parking.
func sharedCfg(tr *trace.Trace, strat core.Strategy, seed int64, k int, disp farm.Dispatcher) Config {
	return Config{
		Servers:      k,
		FreqExponent: 1,
		Profile:      power.Xeon(),
		Trace:        tr,
		EpochSlots:   4,
		Strategy:     strat,
		Predictor:    predict.NewNaivePrevious(),
		Seed:         seed,
		Dispatcher:   disp,
	}
}

// runShared builds a shared-mode coordinator and runs jobs through it.
func runShared(t *testing.T, cfg Config, jobs []queue.Job) *Report {
	t.Helper()
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func runnerCfg(tr *trace.Trace, strat core.Strategy, seed int64) core.RunnerConfig {
	return core.RunnerConfig{
		FreqExponent: 1,
		Profile:      power.Xeon(),
		Trace:        tr,
		EpochSlots:   4,
		Predictor:    predict.NewNaivePrevious(),
		Strategy:     strat,
		Seed:         seed,
	}
}

// TestCoordinatorRunIsRepeatable: a reused coordinator must reproduce its
// own run exactly when the predictor state is equivalent (static strategy,
// reset source) — the reuse contract the benchmark leans on.
func TestCoordinatorRunIsRepeatable(t *testing.T) {
	tr := flatTrace(12, 0.3)
	jobs := fleetJobs(300, 30, 5, 3)
	pol := policy.Policy{Frequency: 0.9, Plan: policy.SingleState(power.DeepSleep)}
	coord, err := New(Config{
		Servers: 5, FreqExponent: 1, Profile: power.Xeon(), Trace: tr,
		EpochSlots: 4, Strategy: &staticStrategy{pol: pol},
		PerServer:    true,
		NewPredictor: func() predict.Predictor { return predict.NewNaivePrevious() },
		Seed:         1, Dispatcher: farm.JSQ{},
		Quorum: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	jobsA, meanA, energyA := first.Jobs, first.MeanResponse, first.Energy
	epochsA := append([]core.EpochRecord(nil), first.Epochs...)
	for run := 0; run < 2; run++ {
		rep, err := coord.Run(stream.Slice(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Jobs != jobsA || rep.MeanResponse != meanA || rep.Energy != energyA {
			t.Fatalf("run %d diverged: %d/%.17g/%.17g != %d/%.17g/%.17g",
				run, rep.Jobs, rep.MeanResponse, rep.Energy, jobsA, meanA, energyA)
		}
		for i := range rep.Epochs {
			if rep.Epochs[i].Jobs != epochsA[i].Jobs || rep.Epochs[i].Energy != epochsA[i].Energy {
				t.Fatalf("run %d epoch %d diverged", run, i)
			}
		}
	}
}

// TestCoordinatorPerServerStaticMatchesShared: with a static strategy,
// per-server decisions are identical to the shared decision, so everything
// except the Predicted column must match the shared-mode coordinator.
func TestCoordinatorPerServerStaticMatchesShared(t *testing.T) {
	tr := flatTrace(12, 0.4)
	jobs := fleetJobs(400, 35, 5, 7)
	pol := policy.Policy{Frequency: 0.8, Plan: policy.SingleState(power.DeepSleep)}
	const k = 7

	want := runShared(t, sharedCfg(tr, &staticStrategy{pol: pol}, 1, k, farm.JSQ{}), jobs)
	coord, err := New(Config{
		Servers: k, FreqExponent: 1, Profile: power.Xeon(), Trace: tr,
		EpochSlots: 4, Strategy: &staticStrategy{pol: pol},
		PerServer:    true,
		NewPredictor: func() predict.Predictor { return predict.NewNaivePrevious() },
		Seed:         1, Dispatcher: farm.JSQ{},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if got.Jobs != want.Jobs || got.MeanResponse != want.MeanResponse ||
		got.P95Response != want.P95Response || got.AvgPower != want.AvgPower ||
		got.Energy != want.Energy {
		t.Fatalf("aggregates diverge:\n got %+v\nwant %+v", got.RunReport, want.RunReport)
	}
	for i := range got.Epochs {
		g, w := got.Epochs[i], want.Epochs[i]
		if g.Jobs != w.Jobs || g.MeanDelay != w.MeanDelay || g.P95Delay != w.P95Delay ||
			g.Realized != w.Realized || g.Energy != w.Energy || g.BusyTime != w.BusyTime {
			t.Fatalf("epoch %d diverges:\n got %+v\nwant %+v", i, g, w)
		}
	}
	// Per-server mode counts one plan epoch per active server.
	if got.PlanEpochs[pol.Plan.Name] != k*len(got.Epochs) {
		t.Fatalf("plan epochs %v, want %d", got.PlanEpochs, k*len(got.Epochs))
	}
}

// TestCoordinatorK1MatchesRunSource anchors shared mode to the single-server
// runner: at k = 1 every dispatcher routes every job to the one engine, which
// sees the same jobs under the same per-epoch switches and the same decision
// stream, so every epoch record and every aggregate must equal
// core.RunSource's bit for bit — except MeanResponse, which the fleet
// re-weights as Σ mean·jobs / jobs and so reads (m·n)/n for the runner's m.
func TestCoordinatorK1MatchesRunSource(t *testing.T) {
	tr := flatTrace(12, 0.3)
	disps := []func() farm.Dispatcher{
		func() farm.Dispatcher { return farm.JSQ{} },
		func() farm.Dispatcher { return &farm.RoundRobin{} },
		func() farm.Dispatcher { return &farm.LeastWorkLeft{} },
	}
	for _, mk := range disps {
		for seed := int64(1); seed <= 3; seed++ {
			jobs := fleetJobs(50, 5, 5, seed+10)
			want, err := core.RunSource(runnerCfg(tr, newRngStrategy(), seed), stream.Slice(jobs))
			if err != nil {
				t.Fatal(err)
			}
			got := runShared(t, sharedCfg(tr, newRngStrategy(), seed, 1, mk()), jobs)
			tag := fmt.Sprintf("%s seed=%d", mk().Name(), seed)
			if !reflect.DeepEqual(got.Epochs, want.Epochs) {
				t.Fatalf("%s: epoch records diverge:\n got %+v\nwant %+v", tag, got.Epochs, want.Epochs)
			}
			if !reflect.DeepEqual(got.PlanEpochs, want.PlanEpochs) {
				t.Fatalf("%s: plan epochs %v != %v", tag, got.PlanEpochs, want.PlanEpochs)
			}
			if got.Jobs != want.Jobs || got.P95Response != want.P95Response ||
				got.AvgPower != want.AvgPower || got.Energy != want.Energy ||
				got.Duration != want.Duration || got.MeanFrequency != want.MeanFrequency {
				t.Fatalf("%s: aggregates diverge:\n got %+v\nwant %+v", tag, got.RunReport, want)
			}
			n := float64(want.Jobs)
			if wantMean := want.MeanResponse * n / n; got.MeanResponse != wantMean {
				t.Fatalf("%s: MeanResponse %.17g, want (m·n)/n = %.17g (m = %.17g)",
					tag, got.MeanResponse, wantMean, want.MeanResponse)
			}
		}
	}
}

// TestCoordinatorSharedBasics: a shared-mode run reports its shape, one
// record per epoch, and fleet aggregates that are the per-server sums.
func TestCoordinatorSharedBasics(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	cfg := sharedCfg(flatTrace(20, 0.6), &staticStrategy{pol: pol}, 1, 3, &farm.RoundRobin{})
	cfg.EpochSlots = 5
	rep := runShared(t, cfg, fleetJobs(200, 9, 5, 4))
	if rep.Jobs == 0 {
		t.Fatal("no jobs served")
	}
	if rep.Servers != 3 || rep.Dispatcher != "round-robin" {
		t.Errorf("report identifies %d servers / %q", rep.Servers, rep.Dispatcher)
	}
	if len(rep.Epochs) != 4 || len(rep.PerServer) != 3 {
		t.Fatalf("report shape: %d epochs, %d servers", len(rep.Epochs), len(rep.PerServer))
	}
	jobs, watts := 0, 0.0
	for _, sr := range rep.PerServer {
		jobs += sr.Jobs
		watts += sr.AvgPower
	}
	if jobs != rep.Jobs {
		t.Errorf("per-server jobs sum %d != total %d", jobs, rep.Jobs)
	}
	if math.Abs(watts-rep.AvgPower) > 1e-9 {
		t.Errorf("AvgPower %v != per-server sum %v", rep.AvgPower, watts)
	}
}

// TestCoordinatorScaleOutSpreadsLoad: with JSQ over more servers, the same
// aggregate stream must yield a lower mean response while total power grows
// sub-linearly (idle servers sleep) — the §7 scale-out story through the
// epoch loop.
func TestCoordinatorScaleOutSpreadsLoad(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	tr := flatTrace(60, 0.8)
	jobs := fleetJobs(240, 4, 5, 5)
	one := runShared(t, sharedCfg(tr, &staticStrategy{pol: pol}, 1, 1, farm.JSQ{}), jobs)
	four := runShared(t, sharedCfg(tr, &staticStrategy{pol: pol}, 1, 4, farm.JSQ{}), jobs)
	if four.MeanResponse >= one.MeanResponse {
		t.Errorf("scale-out did not improve response: %v vs %v", four.MeanResponse, one.MeanResponse)
	}
	if four.AvgPower >= 4*one.AvgPower {
		t.Errorf("4 servers draw %v W ≥ 4× one server's %v W — sleep not exploited", four.AvgPower, one.AvgPower)
	}
}

// TestCoordinatorEpochEnergySumsToReportEnergy: epoch energy deltas sum the
// whole fleet's counters, so they add up to the report's energy.
func TestCoordinatorEpochEnergySumsToReportEnergy(t *testing.T) {
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	cfg := sharedCfg(flatTrace(12, 0.4), &staticStrategy{pol: pol}, 1, 3, farm.JSQ{})
	cfg.EpochSlots = 3
	rep := runShared(t, cfg, fleetJobs(150, 6, 5, 6))
	var energy float64
	for _, e := range rep.Epochs {
		energy += e.Energy
	}
	if math.Abs(energy-rep.Energy) > 1e-6*rep.Energy {
		t.Fatalf("fleet epoch energies sum to %g, report says %g", energy, rep.Energy)
	}
}

// TestCoordinatorRejectsBadJobs: the coordinator checks arrival order across
// the whole stream, not per server. At k = 3 each of the three out-of-order
// jobs lands on a different server, so no engine sees the disorder; at
// k = 1 the one engine would. Both must fail at the coordinator's ingress
// with queue.ErrOutOfOrder, as must non-finite and negative jobs with their
// sentinels — with and without fault injection.
func TestCoordinatorRejectsBadJobs(t *testing.T) {
	outOfOrder := []queue.Job{{Arrival: 4.5, Size: 3}, {Arrival: 6, Size: 0.1}, {Arrival: 5, Size: 0.1}}
	cases := []struct {
		name string
		k    int
		jobs []queue.Job
		want error
	}{
		{"out-of-order k=1", 1, outOfOrder, queue.ErrOutOfOrder},
		{"out-of-order k=3", 3, outOfOrder, queue.ErrOutOfOrder},
		{"negative size", 3, []queue.Job{{Arrival: 1, Size: 0.1}, {Arrival: 2, Size: -1}}, queue.ErrNegativeSize},
		{"NaN arrival", 3, []queue.Job{{Arrival: 1, Size: 0.1}, {Arrival: math.NaN(), Size: 0.1}}, queue.ErrNonFinite},
		{"+Inf size", 3, []queue.Job{{Arrival: 1, Size: math.Inf(1)}}, queue.ErrNonFinite},
	}
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeepSleep)}
	for _, tc := range cases {
		for _, faults := range []bool{false, true} {
			cfg := sharedCfg(flatTrace(12, 0.3), &staticStrategy{pol: pol}, 1, tc.k, farm.JSQ{})
			if faults {
				cfg.Faults = emptySchedule(t)
			}
			coord, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := coord.Run(stream.Slice(tc.jobs))
			if !errors.Is(err, tc.want) {
				jobs := -1
				if rep != nil {
					jobs = rep.Jobs
				}
				t.Errorf("%s faults=%v: err = %v (jobs %d), want %v", tc.name, faults, err, jobs, tc.want)
			}
		}
	}
}

// TestCoordinatorHeterogeneousPerServer: a strategy keying off per-server
// predictions must produce genuinely different per-server policies on a
// skewed fleet, and the run must still complete with consistent accounting.
func TestCoordinatorHeterogeneousPerServer(t *testing.T) {
	tr := flatTrace(16, 0.5)
	jobs := fleetJobs(600, 40, 5, 11)
	strat := newRngStrategy()
	const k = 4
	distinct := make(map[string]bool)
	coord, err := New(Config{
		Servers: k, FreqExponent: 1, Profile: power.Xeon(), Trace: tr,
		EpochSlots: 4, Strategy: strat,
		PerServer:    true,
		NewPredictor: func() predict.Predictor { return predict.NewNaivePrevious() },
		Seed:         3, Dispatcher: &farm.LeastWorkLeft{},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.cfg.Observer = func(Epoch) {
		for s := 0; s < k; s++ {
			pol, parked := coord.Installed(s)
			if !parked {
				distinct[pol.String()] = true
			}
		}
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs == 0 {
		t.Fatal("no jobs served")
	}
	if len(distinct) < 2 {
		t.Fatalf("per-server decisions never diverged: %v", distinct)
	}
	total := 0
	for s := range rep.PerServer {
		total += rep.PerServer[s].Jobs
	}
	if total != rep.Jobs {
		t.Fatalf("per-server jobs sum %d != %d", total, rep.Jobs)
	}
}

// TestQuorumInvariantAndRotation: with Quorum=2 over 6 servers and a
// deep-sleeping strategy, every epoch must keep exactly min(Q, active)
// servers shallow, the duty window must rotate so every server gets capped,
// and every server must also get its deep-sleep epochs.
func TestQuorumInvariantAndRotation(t *testing.T) {
	const k, q = 6, 2
	tr := flatTrace(24, 0.2)
	jobs := fleetJobs(300, 12, 5, 5)
	pol := policy.Policy{Frequency: 1, Plan: policy.SingleState(power.DeeperSleep)}
	var coord *Coordinator
	capped := make([]int, k)
	deep := make([]int, k)
	cfg := Config{
		Servers: k, FreqExponent: 1, Profile: power.Xeon(), Trace: tr,
		EpochSlots: 2, Strategy: &staticStrategy{pol: pol},
		Predictor: predict.NewNaivePrevious(),
		Seed:      1, Dispatcher: farm.JSQ{},
		Quorum: q,
		Observer: func(fe Epoch) {
			if fe.Shallow < q {
				t.Fatalf("epoch %d: shallow %d < quorum %d", fe.Index, fe.Shallow, q)
			}
			for s := 0; s < k; s++ {
				p, parked := coord.Installed(s)
				if parked {
					continue
				}
				if p.Plan.DeepestState().CPU <= power.C1 {
					capped[s]++
				} else {
					deep[s]++
				}
			}
		},
	}
	var err error
	coord, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FleetEpochs) != 12 {
		t.Fatalf("epochs %d != 12", len(rep.FleetEpochs))
	}
	for _, fe := range rep.FleetEpochs {
		if fe.Shallow != q {
			t.Fatalf("epoch %d: shallow %d != %d with a deep strategy", fe.Index, fe.Shallow, q)
		}
	}
	for s := 0; s < k; s++ {
		if capped[s] == 0 {
			t.Fatalf("server %d never entered the duty window: %v", s, capped)
		}
		if deep[s] == 0 {
			t.Fatalf("server %d never slept deep: %v", s, deep)
		}
	}
}

// TestParkRoutesOnlyActive: under constant low demand the fleet shrinks to
// the floor and parked servers must never receive a job.
func TestParkRoutesOnlyActive(t *testing.T) {
	const k = 4
	tr := flatTrace(12, 0.05)
	jobs := fleetJobs(100, 2, 5, 9)
	pol := policy.Policy{Frequency: 1, Plan: policy.NoSleep()}
	coord, err := New(Config{
		Servers: k, FreqExponent: 1, Profile: power.Xeon(), Trace: tr,
		EpochSlots: 2, Strategy: &staticStrategy{pol: pol},
		Predictor: predict.NewNaivePrevious(),
		Seed:      1, Dispatcher: farm.JSQ{},
		Park: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range rep.FleetEpochs {
		if fe.Active != 1 || fe.Parked != k-1 {
			t.Fatalf("epoch %d: active/parked %d/%d, want 1/%d", fe.Index, fe.Active, fe.Parked, k-1)
		}
	}
	if rep.PerServer[0].Jobs != rep.Jobs || rep.Jobs == 0 {
		t.Fatalf("server 0 served %d of %d", rep.PerServer[0].Jobs, rep.Jobs)
	}
	for s := 1; s < k; s++ {
		if rep.PerServer[s].Jobs != 0 {
			t.Fatalf("parked server %d served %d jobs", s, rep.PerServer[s].Jobs)
		}
	}
	if rep.EnergyProportionality <= 0 || rep.EnergyProportionality > 1 {
		t.Fatalf("energy proportionality %g outside (0, 1]", rep.EnergyProportionality)
	}
	if rep.PeakPower != float64(k)*power.Xeon().ActivePower(1) {
		t.Fatalf("peak power %g", rep.PeakPower)
	}
}

// TestParkRespectsQuorumFloor: the active set never shrinks below the
// quorum, even under negligible demand.
func TestParkRespectsQuorumFloor(t *testing.T) {
	coord, err := New(Config{
		Servers: 4, FreqExponent: 1, Profile: power.Xeon(), Trace: flatTrace(8, 0.05),
		EpochSlots: 2, Strategy: &staticStrategy{pol: policy.Policy{Frequency: 1, Plan: policy.NoSleep()}},
		Predictor: predict.NewNaivePrevious(),
		Seed:      1, Dispatcher: farm.JSQ{},
		Park: true, Quorum: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(fleetJobs(50, 2, 5, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, fe := range rep.FleetEpochs {
		if fe.Active < 3 {
			t.Fatalf("epoch %d: active %d below quorum floor 3", fe.Index, fe.Active)
		}
	}
}

// TestUnparkPaysExactWake: a server unparked after sleeping in the deepest
// state must record exactly one wake of exactly the deep-sleep latency.
func TestUnparkPaysExactWake(t *testing.T) {
	const k = 2
	tr := flatTrace(12, 0.05)
	for i := 4; i < 12; i++ {
		tr.Utilization[i] = 0.9
	}
	jobs := fleetJobs(200, 8, 4, 13)
	pol := policy.Policy{Frequency: 1, Plan: policy.NoSleep()}
	coord, err := New(Config{
		Servers: k, FreqExponent: 1, Profile: power.Xeon(), Trace: tr,
		EpochSlots: 2, Strategy: &staticStrategy{pol: pol},
		Predictor: predict.NewNaivePrevious(),
		Seed:      1, Dispatcher: farm.JSQ{},
		Park: true, ParkTargetRho: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(jobs))
	if err != nil {
		t.Fatal(err)
	}
	unparked := 0
	for _, fe := range rep.FleetEpochs {
		unparked += fe.Unparked
	}
	if unparked != 1 {
		t.Fatalf("unpark events %d != 1 (%+v)", unparked, rep.FleetEpochs)
	}
	wantWake := power.Xeon().Wake(power.DeeperSleep)
	if rep.PerServer[1].Wakes != 1 || rep.PerServer[1].WakeTime != wantWake {
		t.Fatalf("server 1 wakes=%d wakeTime=%.17g, want 1 wake of exactly %.17g",
			rep.PerServer[1].Wakes, rep.PerServer[1].WakeTime, wantWake)
	}
	// The NoSleep policy never wakes, so server 0 must record none.
	if rep.PerServer[0].Wakes != 0 {
		t.Fatalf("server 0 wakes=%d", rep.PerServer[0].Wakes)
	}
}

// TestNewValidation covers the configuration error surface, the quorum >
// fleet rejection included.
func TestNewValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Servers: 4, FreqExponent: 1, Profile: power.Xeon(), Trace: flatTrace(8, 0.3),
			EpochSlots: 2, Strategy: &staticStrategy{pol: policy.Policy{Frequency: 1, Plan: policy.NoSleep()}},
			Predictor: predict.NewNaivePrevious(), Dispatcher: farm.JSQ{},
		}
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero servers", func(c *Config) { c.Servers = 0 }},
		{"nil trace", func(c *Config) { c.Trace = nil }},
		{"no strategy", func(c *Config) { c.Strategy = nil }},
		{"no profile", func(c *Config) { c.Profile = nil }},
		{"no dispatcher", func(c *Config) { c.Dispatcher = nil }},
		{"dispatcher without sliced routing", func(c *Config) { c.Dispatcher = pickOnly{} }},
		{"no predictor", func(c *Config) { c.Predictor = nil }},
		{"per-server without factory", func(c *Config) { c.PerServer = true }},
		{"quorum exceeds fleet", func(c *Config) { c.Quorum = 5 }},
		{"negative quorum", func(c *Config) { c.Quorum = -1 }},
		{"park target above 1", func(c *Config) { c.ParkTargetRho = 1.5 }},
		{"min active exceeds fleet", func(c *Config) { c.MinActive = 9 }},
		{"zero epoch slots", func(c *Config) { c.EpochSlots = 0 }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	coord, err := New(base())
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := coord.Run(nil); err == nil {
		t.Error("nil source accepted")
	}
}

// pickOnly routes by Pick alone: neither a Preassigner nor a Router, so the
// coordinator's sliced serving path cannot drive it.
type pickOnly struct{}

func (pickOnly) Pick(*farm.Farm, queue.Job) int { return 0 }
func (pickOnly) Name() string                   { return "pick-only" }

// TestWriteLogsRoundtrip: the fleet epoch and server logs must come back
// with the right kinds, shapes and values through the column store.
func TestWriteLogsRoundtrip(t *testing.T) {
	coord, err := New(Config{
		Servers: 3, FreqExponent: 1, Profile: power.Xeon(), Trace: flatTrace(8, 0.3),
		EpochSlots: 2, Strategy: &staticStrategy{pol: policy.Policy{Frequency: 0.7, Plan: policy.SingleState(power.Sleep)}},
		Predictor: predict.NewNaivePrevious(),
		Seed:      1, Dispatcher: farm.JSQ{},
		Quorum: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coord.Run(stream.Slice(fleetJobs(120, 10, 5, 2)))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	epochPath := filepath.Join(dir, "epochs.col")
	if err := WriteEpochLog(epochPath, rep); err != nil {
		t.Fatal(err)
	}
	r, err := colstore.Open(epochPath)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Schema().Kind != colstore.KindFleetEpochs {
		t.Fatalf("kind %d", r.Schema().Kind)
	}
	if r.Rows() != len(rep.Epochs) {
		t.Fatalf("rows %d != %d", r.Rows(), len(rep.Epochs))
	}
	ci := r.Schema().ColIndex("active")
	if ci < 0 {
		t.Fatal("no active column")
	}
	col, err := r.Col(0, ci, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, fe := range rep.FleetEpochs {
		if col[i] != float64(fe.Active) {
			t.Fatalf("epoch %d active %g != %d", i, col[i], fe.Active)
		}
	}

	srvPath := filepath.Join(dir, "servers.col")
	if err := WriteServerLog(srvPath, rep); err != nil {
		t.Fatal(err)
	}
	rs, err := colstore.Open(srvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if rs.Schema().Kind != colstore.KindFleetServers {
		t.Fatalf("kind %d", rs.Schema().Kind)
	}
	if rs.Rows() != 3 {
		t.Fatalf("rows %d != 3", rs.Rows())
	}
	ji := rs.Schema().ColIndex("jobs")
	col, err = rs.Col(0, ji, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range col {
		total += v
	}
	if int(total) != rep.Jobs {
		t.Fatalf("logged jobs %g != %d", total, rep.Jobs)
	}
}
