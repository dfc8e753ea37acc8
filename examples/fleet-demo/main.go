// Example fleet-demo: coordinate a 12-server fleet through one synthetic
// email-store day three ways and compare the energy story.
//
// The baseline is the coordinator's shared mode — one SleepScale decision
// per epoch applied fleet-wide. The coordinated runs drive the same epoch
// cycle with per-server state: first per-server policies with a staggered
// sleep quorum (3 servers always no deeper than C1, deep sleep rotating
// through the rest), then the same plus horizontal scaling, which parks
// surplus servers overnight — drained, deep-slept and removed from routing —
// and unparks them against the morning ramp, each wake-up paying the full
// deep-sleep latency.
//
// An Observer hook verifies the quorum invariant on every single epoch as
// it closes (Shallow ≥ min(Q, Active)) and tallies how far the active set
// breathes, so the demo doubles as a live invariant check.
package main

import (
	"fmt"
	"log"

	"sleepscale"
)

const (
	servers = 12
	quorum  = 3
	// loadScale multiplies the single-server-scale trace source, so the
	// fleet has real work to split: the overnight trough still leaves
	// surplus servers to park, and the morning ramp forces unparks.
	loadScale = 4
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fleet-demo: ")

	spec := sleepscale.DNS()
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		log.Fatal(err)
	}
	tr := sleepscale.EmailStoreTrace(1, 7)

	qos, err := sleepscale.NewMeanResponseQoS(0.9, spec.MaxServiceRate())
	if err != nil {
		log.Fatal(err)
	}
	mgr := sleepscale.NewManager(sleepscale.Xeon(), spec, qos)

	newStrategy := func() sleepscale.Strategy {
		st, err := sleepscale.NewSleepScaleStrategy(mgr, 400, 0.05)
		if err != nil {
			log.Fatal(err)
		}
		return st
	}
	// A trace source generates one server's worth of load at the trace's
	// utilization; scale it to fleet size so a fully-active fleet runs each
	// server near the trace's ρ — and the overnight trough leaves real
	// surplus for the scaler to park.
	newSource := func() sleepscale.StreamSource {
		src, err := sleepscale.NewTraceSource(stats, tr, 7)
		if err != nil {
			log.Fatal(err)
		}
		if src, err = sleepscale.ScaleRateSource(src, loadScale); err != nil {
			log.Fatal(err)
		}
		return src
	}

	fmt.Printf("fleet of %d servers, email-store day (%d slots, T=6), SleepScale policy\n\n", servers, tr.Len())
	fmt.Printf("%-28s  %10s  %10s  %10s  %8s  %8s\n",
		"run", "E[R] (s)", "E[P] (W)", "energy(MJ)", "EP", "jobs/kJ")

	// Baseline: the coordinator's shared mode — every server runs the one
	// decided policy, nobody parks, nothing rotates.
	shared, err := sleepscale.NewFleetCoordinator(sleepscale.FleetConfig{
		Servers:      servers,
		FreqExponent: spec.FreqExponent,
		Profile:      sleepscale.Xeon(),
		Trace:        tr,
		EpochSlots:   6,
		Strategy:     newStrategy(),
		Predictor:    sleepscale.NewNaivePredictor(),
		Seed:         7,
		Dispatcher:   sleepscale.JSQ{},
	})
	if err != nil {
		log.Fatal(err)
	}
	base, err := shared.Run(newSource())
	if err != nil {
		log.Fatal(err)
	}
	baseEnergy := base.Energy
	fmt.Printf("%-28s  %10.4f  %10.2f  %10.3f  %8s  %8.2f\n",
		"shared policy (baseline)", base.MeanResponse, base.AvgPower, base.Energy/1e6,
		"-", float64(base.Jobs)/base.Energy*1e3)

	coordinate := func(label string, park bool) {
		checked, minActive, maxActive, unparks := 0, servers, 0, 0
		coord, err := sleepscale.NewFleetCoordinator(sleepscale.FleetConfig{
			Servers:      servers,
			FreqExponent: spec.FreqExponent,
			Profile:      sleepscale.Xeon(),
			Trace:        tr,
			EpochSlots:   6,
			Strategy:     newStrategy(),
			PerServer:    true,
			NewPredictor: sleepscale.NewNaivePredictor,
			Seed:         7,
			Dispatcher:   sleepscale.JSQ{},
			Quorum:       quorum,
			Park:         park,
			// Aim each active server at ρ = 0.5: the headroom absorbs the
			// ramp while reactive sizing catches up epoch by epoch.
			ParkTargetRho: 0.5,
			Observer: func(fe sleepscale.FleetEpoch) {
				// The quorum invariant, checked as each epoch closes.
				want := quorum
				if fe.Active < want {
					want = fe.Active
				}
				if fe.Shallow < want {
					log.Fatalf("%s: epoch %d breaks quorum: %d shallow of %d active, want ≥ %d",
						label, fe.Index, fe.Shallow, fe.Active, want)
				}
				checked++
				if fe.Active < minActive {
					minActive = fe.Active
				}
				if fe.Active > maxActive {
					maxActive = fe.Active
				}
				unparks += fe.Unparked
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := coord.Run(newSource())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s  %10.4f  %10.2f  %10.3f  %8.4f  %8.2f\n",
			label, rep.MeanResponse, rep.AvgPower, rep.Energy/1e6,
			rep.EnergyProportionality, rep.JobsPerJoule*1e3)
		fmt.Printf("    quorum held on all %d epochs; active %d–%d servers, %d parked at peak, %d unparks (saved %.1f%% energy vs baseline)\n",
			checked, minActive, maxActive, servers-minActive, unparks,
			(1-rep.Energy/baseEnergy)*100)
	}

	coordinate("per-server + quorum", false)
	coordinate("per-server + quorum + park", true)
}
