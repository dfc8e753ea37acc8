package farm

import (
	"fmt"
	"math/rand"
	"testing"

	"sleepscale/internal/par"
	"sleepscale/internal/queue"
)

// deepCfg is a three-phase sleep ladder whose boundaries (0.05 s, 0.5 s, 2 s)
// fall inside the test streams' idle gaps, so the least-work-left index
// exercises every bucket and bucket crossing, not just the pre-sleep window.
func deepCfg() queue.Config {
	return queue.Config{
		Frequency: 1, FreqExponent: 1, ActivePower: 250, IdlePower: 120,
		Phases: []queue.SleepPhase{
			{Name: "c1", Power: 60, WakeLatency: 1e-3, EnterAfter: 0.05},
			{Name: "c3", Power: 30, WakeLatency: 0.01, EnterAfter: 0.5},
			{Name: "c6", Power: 8, WakeLatency: 0.05, EnterAfter: 2},
		},
	}
}

// configMix returns per-server configurations for the heterogeneous routing
// suites, built as a fleet builds them: every server gets its own copy of its
// phase list, so classes are found by content, not by shared backing.
//
//   - "quorum": about a quarter of the servers run deepCfg capped to its
//     shallowest phase, the rest run it whole — the two classes of a sleep
//     quorum.
//   - "parked": the quorum mix plus about an eighth of the servers parked in
//     an immediate deep sleep — three classes.
//   - "random8": each server draws one of nine configurations (four
//     frequencies × two ladders, plus never-sleep), so large farms hold at
//     least eight classes.
//   - "distinct": every server runs its own frequency, more classes than the
//     least-work-left index takes on (maxClasses), so it falls back to the
//     linear scan.
func configMix(mix string, k int, seed int64) []queue.Config {
	rng := rand.New(rand.NewSource(seed))
	deep := deepCfg()
	shallow := deepCfg()
	shallow.Phases = shallow.Phases[:1]
	parked := deepCfg()
	parked.Phases = []queue.SleepPhase{{Name: "park", Power: 8, WakeLatency: 0.05, EnterAfter: 0}}
	var menu []queue.Config
	for _, f := range []float64{1, 0.9, 0.8, 0.7} {
		d, sh := deep, shallow
		d.Frequency, sh.Frequency = f, f
		menu = append(menu, d, sh)
	}
	never := deepCfg()
	never.Phases = nil
	menu = append(menu, never)

	cfgs := make([]queue.Config, k)
	for s := range cfgs {
		c := deep
		switch mix {
		case "quorum", "parked":
			switch r := rng.Intn(8); {
			case r < 2:
				c = shallow
			case r == 2 && mix == "parked":
				c = parked
			}
		case "random8":
			c = menu[rng.Intn(len(menu))]
		case "distinct":
			c.Frequency = 0.5 + 0.5*rng.Float64()
		default:
			panic("unknown configuration mix " + mix)
		}
		c.Phases = append([]queue.SleepPhase(nil), c.Phases...)
		cfgs[s] = c
	}
	return cfgs
}

// heteroMixes are the per-server configuration mixes the equivalence suites
// run beyond the uniform farm.
var heteroMixes = []string{"quorum", "parked", "random8", "distinct"}

// newMixFarm builds a farm whose server s runs cfgs[s].
func newMixFarm(t *testing.T, cfgs []queue.Config, disp Dispatcher) *Farm {
	t.Helper()
	f, err := New(len(cfgs), cfgs[0], disp)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < len(cfgs); s++ {
		if err := f.Server(s).SetConfigAt(0, cfgs[s]); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// serveMix runs jobs through a fresh farm over cfgs: sequentially (Pick
// against live engines) without opts.Parallel, through the sliced driver
// with it.
func serveMix(t *testing.T, cfgs []queue.Config, disp Dispatcher, jobs []queue.Job, opts DispatchOptions) Result {
	t.Helper()
	f := newMixFarm(t, cfgs, disp)
	var err error
	if opts.Parallel {
		_, err = f.ServeSourceSliced(&sliceSource{jobs: jobs}, opts)
	} else {
		_, err = f.ServeSource(&sliceSource{jobs: jobs})
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Finish(f.LastFree())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// indexedDispatchers returns fresh constructors for the disciplines that have
// an O(log k) routing index, priced by cfg.
func indexedDispatchers(cfg queue.Config) []struct {
	name string
	mk   func() Dispatcher
} {
	return []struct {
		name string
		mk   func() Dispatcher
	}{
		{"jsq", func() Dispatcher { return JSQ{} }},
		{"lwl", func() Dispatcher { return &LeastWorkLeft{Cfg: cfg} }},
	}
}

// TestRoutingIndexEquivalenceFullDispatch pins indexed routing to the linear
// scans through complete simulations: for every dispatcher, seed and fleet
// size, the sequential Pick dispatch, the sliced dispatch with LinearRouting
// and the sliced dispatch through the index must produce bit-identical
// results. k = 1 degenerates the tree to a single leaf; 7 is a non-power of
// two (padded leaves in play); 1000 runs the descent ten levels deep.
func TestRoutingIndexEquivalenceFullDispatch(t *testing.T) {
	for _, k := range []int{1, 7, 1000} {
		jobs := 20000
		if k >= 1000 {
			jobs = 4000 // the O(k)-per-job reference paths dominate the cost
		}
		// The shared dispatchers() table prices least-work-left with
		// testCfg; these farms run deepCfg, so build a fresh table. The
		// lwl entry deliberately leaves Cfg zero: every dispatch path —
		// Pick, the index, and the linear ConfigRouter arm — prices from
		// the engines' live configuration, so the static field must not
		// matter.
		disps := []struct {
			name string
			mk   func() Dispatcher
		}{
			{"round-robin", func() Dispatcher { return &RoundRobin{} }},
			{"random", func() Dispatcher { return &Random{Rng: rand.New(rand.NewSource(77))} }},
			{"jsq", func() Dispatcher { return JSQ{} }},
			{"pd2", func() Dispatcher { return &PowerOfD{D: 2, Rng: rand.New(rand.NewSource(55))} }},
			{"pd3", func() Dispatcher { return &PowerOfD{D: 3, Rng: rand.New(rand.NewSource(56))} }},
			{"lwl", func() Dispatcher { return &LeastWorkLeft{} }},
		}
		for _, seed := range []int64{1, 2, 3} {
			stream := expJobs(jobs, 10*float64(k), 5, seed)
			for _, d := range disps {
				want, err := DispatchSource(k, deepCfg(), d.mk(), &sliceSource{jobs: stream}, DispatchOptions{})
				if err != nil {
					t.Fatalf("k=%d seed=%d %s sequential: %v", k, seed, d.name, err)
				}
				indexed, err := DispatchSource(k, deepCfg(), d.mk(), &sliceSource{jobs: stream},
					DispatchOptions{Parallel: true, SliceJobs: 777})
				if err != nil {
					t.Fatalf("k=%d seed=%d %s indexed: %v", k, seed, d.name, err)
				}
				requireResultsEqual(t, indexed, want)
				linear, err := DispatchSource(k, deepCfg(), d.mk(), &sliceSource{jobs: stream},
					DispatchOptions{Parallel: true, SliceJobs: 777, LinearRouting: true})
				if err != nil {
					t.Fatalf("k=%d seed=%d %s linear: %v", k, seed, d.name, err)
				}
				requireResultsEqual(t, linear, want)
			}
		}
		// Per-server configurations, at a load light enough that servers
		// idle into every sleep phase between jobs.
		for _, mix := range heteroMixes {
			for _, seed := range []int64{1, 2} {
				cfgs := configMix(mix, k, seed)
				stream := expJobs(jobs, 2*float64(k), 5, seed)
				for _, d := range indexedDispatchers(deepCfg()) {
					tag := fmt.Sprintf("k=%d %s seed=%d %s", k, mix, seed, d.name)
					want := serveMix(t, cfgs, d.mk(), stream, DispatchOptions{})
					t.Run(tag, func(t *testing.T) {
						requireResultsEqual(t, serveMix(t, cfgs, d.mk(), stream,
							DispatchOptions{Parallel: true, SliceJobs: 777}), want)
						requireResultsEqual(t, serveMix(t, cfgs, d.mk(), stream,
							DispatchOptions{Parallel: true, SliceJobs: 777, LinearRouting: true}), want)
					})
				}
			}
		}
	}
}

// shadowState builds a randomized freeAt/anchor shadow: freeAt scattered
// around the stream's opening arrivals (so servers straddle the busy/idle
// boundary), with a quarter of the anchors pushed past freeAt — the state a
// SetConfigAt during an idle period leaves behind.
func shadowState(k int, seed int64) (freeAt, anchor []float64) {
	rng := rand.New(rand.NewSource(seed))
	freeAt = make([]float64, k)
	anchor = make([]float64, k)
	for i := range freeAt {
		freeAt[i] = rng.Float64() * 3
		anchor[i] = freeAt[i]
		if rng.Intn(4) == 0 {
			anchor[i] += rng.Float64() * 2
		}
	}
	return freeAt, anchor
}

// routeLinearReference advances one job through the linear-scan reference
// path exactly as the sliced driver's linear arm does: a ConfigRouter prices
// from the live engine configuration snapshot, others use their anchored
// scan (or plain RouteVirtual); then the driver's shadow commit under the
// picked server's own configuration.
func routeLinearReference(disp Dispatcher, cfgs []queue.Config, freeAt, anchor []float64, j queue.Job) int {
	var s int
	if crr, ok := disp.(ConfigRouter); ok {
		s = crr.RouteVirtualConfigs(cfgs, freeAt, anchor, j)
	} else if ar, ok := disp.(AnchoredRouter); ok {
		s = ar.RouteVirtualAnchored(freeAt, anchor, j)
	} else {
		s = disp.(VirtualRouter).RouteVirtual(freeAt, j)
	}
	nf := cfgs[s].NextFreeAtAnchored(freeAt[s], anchor[s], j)
	freeAt[s], anchor[s] = nf, nf
	return s
}

// TestRoutingIndexEquivalence10k drives the indexes decision by decision
// against the linear scans at fleet scale — k = 10,000, where a full farm
// comparison would be dominated by engine accounting — asserting every routing
// decision and the final shadow agree bitwise. The least-work-left cases
// include a dispatcher Cfg differing from (or zeroed against) the engine
// configuration: routing must price from the live engine configuration and
// ignore the dispatcher's static field, exactly as the linear ConfigRouter
// path does. The per-server mixes (a quorum's two classes, a parked third,
// a random mix of at least eight) must keep the index engaged. One index
// instance per case is reused across seeds via reset, which is the rebuild
// path the sliced driver exercises per call.
func TestRoutingIndexEquivalence10k(t *testing.T) {
	const k = 10000
	slowEng := deepCfg()
	slowEng.Frequency = 0.8
	uniform := func(c queue.Config) func(int64) []queue.Config {
		return func(int64) []queue.Config {
			cfgs := make([]queue.Config, k)
			for s := range cfgs {
				cfgs[s] = c
			}
			return cfgs
		}
	}
	mixed := func(mix string) func(int64) []queue.Config {
		return func(seed int64) []queue.Config { return configMix(mix, k, seed) }
	}
	type indexCase struct {
		name string
		mk   func() Dispatcher
		cfgs func(seed int64) []queue.Config
	}
	cases := []indexCase{
		{"jsq", func() Dispatcher { return JSQ{} }, uniform(deepCfg())},
		{"lwl", func() Dispatcher { return &LeastWorkLeft{Cfg: deepCfg()} }, uniform(deepCfg())},
		{"lwl-stale-cfg", func() Dispatcher { return &LeastWorkLeft{Cfg: deepCfg()} }, uniform(slowEng)},
		{"lwl-zero-cfg", func() Dispatcher { return &LeastWorkLeft{} }, uniform(deepCfg())},
	}
	for _, mix := range []string{"quorum", "parked", "random8"} {
		cases = append(cases,
			indexCase{"jsq-" + mix, func() Dispatcher { return JSQ{} }, mixed(mix)},
			indexCase{"lwl-" + mix, func() Dispatcher { return &LeastWorkLeft{} }, mixed(mix)})
	}
	for _, tc := range cases {
		disp := tc.mk()
		var idx routeIndex
		var idxFree, idxAnchor []float64
		for _, seed := range []int64{1, 2, 3} {
			cfgs := tc.cfgs(seed)
			stream := expJobs(2000, 300, 5, seed)
			linFree, linAnchor := shadowState(k, seed*101)
			if idx == nil {
				idxFree = make([]float64, k)
				idxAnchor = make([]float64, k)
				idx = newRouteIndexFor(disp, idxFree, idxAnchor)
				if idx == nil {
					t.Fatalf("%s: no route index", tc.name)
				}
			}
			copy(idxFree, linFree)
			copy(idxAnchor, linAnchor)
			if !idx.reset(cfgs) {
				t.Fatalf("%s seed=%d: index declined the configuration mix", tc.name, seed)
			}
			for i, j := range stream {
				want := routeLinearReference(disp, cfgs, linFree, linAnchor, j)
				got := idx.route(j)
				if got != want {
					t.Fatalf("%s seed=%d job %d (t=%g): indexed route %d, linear route %d",
						tc.name, seed, i, j.Arrival, got, want)
				}
			}
			for s := range linFree {
				if idxFree[s] != linFree[s] || idxAnchor[s] != linAnchor[s] {
					t.Fatalf("%s seed=%d: shadow diverges at server %d: indexed (%.17g, %.17g) linear (%.17g, %.17g)",
						tc.name, seed, s, idxFree[s], idxAnchor[s], linFree[s], linAnchor[s])
				}
			}
		}
	}
}

// TestLWLIndexClassLimit pins the fallback rule: the least-work-left index
// takes on at most maxClasses(k) = max(1, ⌊k/4⌋) configuration classes and
// declines one more, while the JSQ index, which prices nothing, takes any mix.
func TestLWLIndexClassLimit(t *testing.T) {
	for k, want := range map[int]int{1: 1, 7: 1, 8: 2, 1000: 250, 10000: 2500} {
		if got := maxClasses(k); got != want {
			t.Errorf("maxClasses(%d) = %d, want %d", k, got, want)
		}
	}
	const k = 1000
	freeAt, anchor := shadowState(k, 5)
	withClasses := func(n int) []queue.Config {
		cfgs := make([]queue.Config, k)
		for s := range cfgs {
			cfgs[s] = deepCfg()
			cfgs[s].Frequency = 1 - float64(s%n)/float64(2*n)
		}
		return cfgs
	}
	lwl := newRouteIndexFor(&LeastWorkLeft{}, freeAt, anchor)
	if !lwl.reset(withClasses(maxClasses(k))) {
		t.Errorf("lwl index declined %d classes at k=%d", maxClasses(k), k)
	}
	if lwl.reset(withClasses(maxClasses(k) + 1)) {
		t.Errorf("lwl index took %d classes at k=%d", maxClasses(k)+1, k)
	}
	if !newRouteIndexFor(JSQ{}, freeAt, anchor).reset(configMix("distinct", k, 5)) {
		t.Error("jsq index declined a per-server configuration mix")
	}
}

// TestRoutingIndexRebuildAfterReset is the index lifecycle property: a warm
// farm Reset and re-served — same stream or a different one — must match a
// fresh farm bit for bit, which forces the cached index (and the anchored
// shadow) to rebuild correctly instead of leaking state across runs.
func TestRoutingIndexRebuildAfterReset(t *testing.T) {
	const k = 64
	streamA := expJobs(8000, 400, 5, 7)
	streamB := expJobs(5000, 250, 4, 8)
	for _, d := range indexedDispatchers(deepCfg()) {
		f, err := New(k, deepCfg(), d.mk())
		if err != nil {
			t.Fatal(err)
		}
		serve := func(stream []queue.Job) Summary {
			t.Helper()
			if err := f.Reset(deepCfg()); err != nil {
				t.Fatal(err)
			}
			if _, err := f.ServeSourceSliced(&sliceSource{jobs: stream}, DispatchOptions{Parallel: true, SliceJobs: 333}); err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
			return f.FinishSummary(f.LastFree())
		}
		fresh := func(stream []queue.Job) Summary {
			t.Helper()
			res, err := DispatchSource(k, deepCfg(), d.mk(), &sliceSource{jobs: stream}, DispatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return Summary{Jobs: res.Jobs, MeanResponse: res.MeanResponse, TotalAvgPower: res.TotalAvgPower, Energy: res.Energy}
		}
		wantA, wantB := fresh(streamA), fresh(streamB)
		// Warm runs: A, then B (different stream through the same index),
		// then A again (rebuild after serving something else).
		for i, c := range []struct {
			stream []queue.Job
			want   Summary
		}{{streamA, wantA}, {streamB, wantB}, {streamA, wantA}} {
			if got := serve(c.stream); got != c.want {
				t.Fatalf("%s run %d: warm farm %+v, fresh farm %+v", d.name, i, got, c.want)
			}
		}
	}
}

// TestSlicedDispatchAgreesAcrossIdleSwitch pins the anchored shadow: after a
// SetConfigAt lands during an idle period (the idle anchor moves past
// freeAt), the sliced dispatch — indexed and linear — must still route
// exactly as the sequential Pick path. Before the anchor shadow both virtual
// paths assumed anchor == freeAt and diverged here.
func TestSlicedDispatchAgreesAcrossIdleSwitch(t *testing.T) {
	const k = 8
	warm := expJobs(600, 40, 5, 3)
	tail := expJobs(600, 40, 5, 4)
	switchAt := warm[len(warm)-1].Arrival + 1.5 // inside the idle gap for most servers
	for i := range tail {
		tail[i].Arrival += switchAt + 0.5
	}
	for _, d := range indexedDispatchers(deepCfg()) {
		serve := func(opts DispatchOptions) Summary {
			t.Helper()
			f, err := New(k, deepCfg(), d.mk())
			if err != nil {
				t.Fatal(err)
			}
			run := func(stream []queue.Job) {
				t.Helper()
				if opts.Parallel {
					if _, err := f.ServeSourceSliced(&sliceSource{jobs: stream}, opts); err != nil {
						t.Fatalf("%s: %v", d.name, err)
					}
				} else if _, err := f.ServeSource(&sliceSource{jobs: stream}); err != nil {
					t.Fatalf("%s: %v", d.name, err)
				}
			}
			run(warm)
			for s := 0; s < k; s++ {
				if err := f.Server(s).SetConfigAt(switchAt, deepCfg()); err != nil {
					t.Fatal(err)
				}
			}
			run(tail)
			return f.FinishSummary(f.LastFree())
		}
		want := serve(DispatchOptions{})
		if got := serve(DispatchOptions{Parallel: true, SliceJobs: 97}); got != want {
			t.Fatalf("%s indexed diverges across idle switch:\n got %+v\nwant %+v", d.name, got, want)
		}
		if got := serve(DispatchOptions{Parallel: true, SliceJobs: 97, LinearRouting: true}); got != want {
			t.Fatalf("%s linear diverges across idle switch:\n got %+v\nwant %+v", d.name, got, want)
		}
	}
}

// TestSlicedDispatchStaysPooled fails if the sliced parallel mode's per-slice
// fan-out ran inline serial on a multi-executor pool — the silent degradation
// the run-queue pool redesign removed. On a single-executor default pool the
// parallel path is structurally serial, so there is nothing to assert.
func TestSlicedDispatchStaysPooled(t *testing.T) {
	pool := par.Default()
	if pool.Size() < 2 {
		t.Skipf("default pool has %d executor(s); parallel path is structurally serial here", pool.Size())
	}
	before := pool.Stats()
	jobs := expJobs(20000, 40, 5, 9)
	if _, err := DispatchSource(16, deepCfg(), JSQ{}, &sliceSource{jobs: jobs},
		DispatchOptions{Parallel: true, SliceJobs: 512}); err != nil {
		t.Fatal(err)
	}
	after := pool.Stats()
	if after.Inline != before.Inline {
		t.Errorf("sliced dispatch ran %d slice barriers inline serial on a %d-executor pool",
			after.Inline-before.Inline, pool.Size())
	}
	if after.Pooled == before.Pooled {
		t.Error("sliced dispatch never reached the worker pool")
	}
}
