package main

import (
	"fmt"
	"time"

	"sleepscale"
	"sleepscale/internal/core"
	"sleepscale/internal/farm"
	"sleepscale/internal/fault"
	"sleepscale/internal/fleet"
	"sleepscale/internal/policy"
	"sleepscale/internal/predict"
	"sleepscale/internal/stream"
	"sleepscale/internal/trace"
)

const (
	fleetServers = 1000
	fleetQuorum  = 250
	fleetSlots   = 720 // every 2nd minute of an email-store day
	fleetStride  = 2
	fleetSlotSec = 0.5
	fleetT       = 2
	// fleetLoad scales the curve's utilization, keeping its backup-window
	// peaks (0.85–0.95 per server) clear of saturation, where response
	// times would swing with the seed.
	fleetLoad = 0.75
	// A fleet-wide crash every ~10 s of simulated time (~36 a run), each
	// repaired in ~4 s: some epochs run with a server down, most do not.
	fleetMTBF = 10000.0
	fleetMTTR = 4.0
)

// fleetChaos is a k = 1,000 coordinated fleet with per-server static
// policies and naive predictors, a 250-server sleep quorum and JSQ
// routing, over an email-store load curve at 0.5 s slots, with seeded
// crash/repair renewals and a retry budget. The quorum makes server
// configurations differ, which forces the farm's linear routing scan.
type fleetChaos struct {
	seed   int64
	spec   sleepscale.Spec
	tr     *trace.Trace
	src    stream.Source
	faults fault.Source
	strat  core.Strategy
	qos    policy.QoS
}

func setupFleetChaos(seed int64) (instance, error) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		return nil, err
	}
	day := sleepscale.EmailStoreTrace(1, seed)
	// The stream is generated against a single-server-scale copy of the
	// curve with k-times longer slots, then compressed k-fold in time: each
	// fleet slot carries k servers' worth of arrivals.
	util := make([]float64, fleetSlots)
	for i := range util {
		util[i] = fleetLoad * day.Utilization[i*fleetStride]
	}
	gen := &trace.Trace{Name: "fleet-gen", SlotSeconds: fleetServers * fleetSlotSec, Utilization: util}
	tr := &trace.Trace{Name: "fleet-email-store", SlotSeconds: fleetSlotSec, Utilization: util}
	base, err := sleepscale.NewTraceSource(stats, gen, seed)
	if err != nil {
		return nil, err
	}
	src, err := sleepscale.ScaleRateSource(base, fleetServers)
	if err != nil {
		return nil, err
	}
	faults, err := sleepscale.NewFaultRenewal(sleepscale.FaultRenewalConfig{
		Servers: fleetServers, MTBF: fleetMTBF, MTTR: fleetMTTR, Horizon: tr.Duration(),
	}, seed)
	if err != nil {
		return nil, err
	}
	qos, err := sleepscale.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
	if err != nil {
		return nil, err
	}
	pol := sleepscale.Policy{Frequency: 1, Plan: sleepscale.SingleState(sleepscale.DeepSleep)}
	return &fleetChaos{
		seed: seed, spec: spec, tr: tr, src: src, faults: faults, qos: qos,
		strat: sleepscale.NewStaticStrategy(pol, "static"),
	}, nil
}

func (f *fleetChaos) run(t *tracer, _ int) (repOut, error) { return f.rep(t, nil) }

func (f *fleetChaos) untimed(probe func()) error {
	_, err := f.rep(nil, probe)
	return err
}

func (f *fleetChaos) rep(t *tracer, probe func()) (repOut, error) {
	f.src.Reset(f.seed)
	var (
		src     stream.Source = f.src
		faults  fault.Source  = f.faults
		strat                 = f.strat
		newPred               = func() predict.Predictor { return predict.NewNaivePrevious() }
		tsrc    *tracedSource
		tflt    *tracedFaults
	)
	if t != nil {
		tsrc = &tracedSource{inner: f.src, t: t}
		tflt = &tracedFaults{inner: f.faults, t: t}
		src, faults = tsrc, tflt
		strat = &tracedStrategy{inner: f.strat, t: t}
		newPred = func() predict.Predictor { return &tracedPredictor{inner: predict.NewNaivePrevious(), t: t} }
	}
	nEpochs := (f.tr.Len() + fleetT - 1) / fleetT
	marks := make([]time.Time, 0, nEpochs+1)
	var lost, quorumShort int64
	var invariant error
	coord, err := fleet.New(fleet.Config{
		Servers:      fleetServers,
		FreqExponent: f.spec.FreqExponent,
		Profile:      sleepscale.Xeon(),
		Trace:        f.tr,
		EpochSlots:   fleetT,
		Strategy:     strat,
		PerServer:    true,
		NewPredictor: newPred,
		Seed:         f.seed,
		Dispatcher:   farm.JSQ{},
		// The farm serves the servers on one worker. Spread over two, an
		// epoch waits for its slower worker, and on a shared 2-vCPU host a
		// stall on either vCPU stalls the epoch: jobs_per_s spread ~17%
		// across seeds on two workers against ~9% on one, at the same
		// median. The simulated outputs are the same for every count.
		Options: farm.DispatchOptions{Workers: 1},
		Quorum:  fleetQuorum,
		Faults:  faults,
		Retry:   fault.RetryPolicy{Budget: 3, Backoff: 0.05},
		Observer: func(e fleet.Epoch) {
			marks = append(marks, time.Now())
			if t != nil {
				t.epoch++
			}
			lost += int64(e.Lost)
			if probe != nil && (e.Index+1)%(nEpochs/probeSpacing) == 0 {
				probe()
			}
			// The quorum is installed at the epoch boundary, and a
			// duty-window server that crashes mid-epoch is not replaced
			// until the next one. So the close-time record can fall short
			// of min(Quorum, Active) by at most the epoch's crashes; with
			// no parking, Active + Crashes − Repairs is the boundary's
			// active count. Close-time shortfalls are counted, not failed.
			if e.Shallow < min(fleetQuorum, e.Active) {
				quorumShort++
			}
			want := min(fleetQuorum, e.Active+e.Crashes-e.Repairs)
			if e.Shallow+e.Crashes < want && invariant == nil {
				invariant = fmt.Errorf("fleet: epoch %d breaks the quorum: %d shallow of %d active (%d crashes, %d repairs this epoch), want ≥ %d at the boundary",
					e.Index, e.Shallow, e.Active, e.Crashes, e.Repairs, want)
			}
		},
	})
	if err != nil {
		return repOut{}, err
	}
	start := time.Now()
	marks = append(marks, start)
	rep, err := coord.Run(src)
	end := time.Now()
	if err != nil {
		return repOut{}, err
	}
	out := repOut{
		wall: end.Sub(start), offered: int64(rep.Offered), served: int64(rep.Completed),
		failed: int64(rep.Dropped),
	}
	out.busy = out.wall
	if t != nil {
		t.topNS += int64(out.wall)
		out.counters = map[string]float64{
			"stream.jobs":   float64(tsrc.jobs),
			"fault.events":  float64(tflt.events),
			"fleet.crashes": float64(rep.Crashes), "fleet.lost": float64(lost),
			"fleet.requeued": float64(rep.Requeued), "fleet.dropped": float64(rep.Dropped),
			"fleet.retries": float64(rep.Retries), "fleet.quorum_short_epochs": float64(quorumShort),
		}
	} else if err := out.closedLoop(marks, len(rep.Epochs)); err != nil {
		return out, fmt.Errorf("fleet: %w", err)
	}
	if invariant != nil {
		return out, invariant
	}
	if rep.Offered != rep.Completed+rep.Requeued+rep.Dropped {
		return out, fmt.Errorf("fleet: conservation broken: %d offered != %d completed + %d requeued + %d dropped",
			rep.Offered, rep.Completed, rep.Requeued, rep.Dropped)
	}
	if len(rep.Epochs) != nEpochs || len(marks) != nEpochs+1 {
		return out, fmt.Errorf("fleet: %d epoch records and %d observer calls, want %d", len(rep.Epochs), len(marks)-1, nEpochs)
	}

	fp := newFingerprinter()
	es, err := epochModel(fp, f.qos, rep.Epochs)
	if err != nil {
		return out, err
	}
	for _, e := range rep.FleetEpochs {
		fp.add(float64(e.Active), float64(e.Parked), float64(e.Shallow), float64(e.Unparked), e.MeanFrequency,
			float64(e.Down), float64(e.Crashes), float64(e.Repairs), float64(e.Lost), float64(e.Dropped))
	}
	if err := checkFinite("fleet report", rep.MeanResponse, rep.P95Response, rep.AvgPower, rep.Energy,
		rep.Duration, rep.EnergyProportionality, rep.JobsPerJoule); err != nil {
		return out, err
	}
	if err := checkEnergySum(es.energies, rep.Energy); err != nil {
		return out, err
	}
	fp.add(float64(rep.Jobs), rep.MeanResponse, rep.P95Response, rep.AvgPower, rep.Energy, rep.Duration,
		rep.EnergyProportionality, rep.JobsPerJoule, float64(rep.Offered), float64(rep.Completed),
		float64(rep.Requeued), float64(rep.Dropped), float64(rep.Retries), float64(rep.Crashes), float64(rep.Repairs))
	out.model = modelled{
		avgPower: rep.AvgPower, meanResp: rep.MeanResponse, p95Resp: es.p95,
		epochs: es.withJobs, qosMet: es.qosMet, fingerprint: fp.h,
	}
	return out, nil
}
