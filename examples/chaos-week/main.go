// Example chaos-week: run a 10-server fleet through a week of email-store
// load while servers crash and come back, and check that the coordinator's
// degraded-mode story holds together.
//
// The baseline is the fault-free coordinated run (per-server policies,
// sleep quorum, overnight parking). The chaos run replays the exact same
// load with a seeded MTBF/MTTR renewal process layered on top: each crash
// loses the jobs in flight on that server (re-dispatched under a bounded
// retry policy), each repair rejoins the fleet cold through the full wake
// transition, and the quorum/park arithmetic recomputes over whatever is
// healthy. The same seed always produces the same outage timeline, so the
// whole week is replayable event for event.
//
// The demo doubles as a live invariant check: an Observer watches every
// epoch for quorum violations over the healthy set, and the run is only
// reported after the job-conservation ledger balances exactly —
// offered == completed + requeued + dropped.
package main

import (
	"fmt"
	"log"

	"sleepscale"
)

const (
	servers = 10
	quorum  = 2
	days    = 7
	// loadScale multiplies the single-server-scale trace source so the
	// fleet splits real work (see examples/fleet-demo).
	loadScale = 4
	// mtbf/mttr aim for a handful of outages over the week, long enough
	// for the coordinator to re-park around each hole.
	mtbf = 2 * 24 * 3600.0 // mean time between failures per server: 2 days
	mttr = 2 * 3600.0      // mean repair time: 2 hours
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos-week: ")

	spec := sleepscale.DNS()
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		log.Fatal(err)
	}
	tr := sleepscale.EmailStoreTrace(days, 7)
	qos, err := sleepscale.NewMeanResponseQoS(0.9, spec.MaxServiceRate())
	if err != nil {
		log.Fatal(err)
	}
	mgr := sleepscale.NewManager(sleepscale.Xeon(), spec, qos)

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

	run := func(label string, faults sleepscale.FaultSource) *sleepscale.FleetReport {
		strat, err := sleepscale.NewSleepScaleStrategy(mgr, 400, 0.05)
		if err != nil {
			log.Fatal(err)
		}
		minHealthy := servers
		coord, err := sleepscale.NewFleetCoordinator(sleepscale.FleetConfig{
			Servers:       servers,
			FreqExponent:  spec.FreqExponent,
			Profile:       sleepscale.Xeon(),
			Trace:         tr,
			EpochSlots:    6,
			Strategy:      strat,
			PerServer:     true,
			NewPredictor:  sleepscale.NewNaivePredictor,
			Seed:          7,
			Dispatcher:    sleepscale.JSQ{},
			Quorum:        quorum,
			Park:          true,
			ParkTargetRho: 0.5,
			Faults:        faults,
			Retry:         sleepscale.FaultRetryPolicy{Budget: 3, Backoff: 0.5},
			Observer: func(fe sleepscale.FleetEpoch) {
				// Quorum over the healthy set, degraded when the fleet is.
				// It is installed at the epoch boundary, and a duty-window
				// server crashing mid-epoch is replaced only at the next
				// one, so this epoch's crashes and repairs enter the check.
				want := min(quorum, fe.Active+fe.Crashes-fe.Repairs)
				if fe.Shallow+fe.Crashes < want {
					log.Fatalf("%s: epoch %d breaks quorum: %d shallow of %d active (%d crashes, %d repairs, down %d), want ≥ %d at the boundary",
						label, fe.Index, fe.Shallow, fe.Active, fe.Crashes, fe.Repairs, fe.Down, want)
				}
				if healthy := servers - fe.Down; healthy < minHealthy {
					minHealthy = healthy
				}
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := coord.Run(newSource())
		if err != nil {
			log.Fatal(err)
		}
		if faults != nil {
			// The conservation ledger must balance to the job.
			if rep.Offered != rep.Completed+rep.Requeued+rep.Dropped {
				log.Fatalf("%s: conservation broken: %d offered != %d completed + %d requeued + %d dropped",
					label, rep.Offered, rep.Completed, rep.Requeued, rep.Dropped)
			}
		}
		fmt.Printf("%-22s  %10.4f  %10.2f  %10.3f  %8.4f\n",
			label, rep.MeanResponse, rep.AvgPower, rep.Energy/1e6, rep.EnergyProportionality)
		if faults != nil {
			fmt.Printf("    %d crashes, %d repairs; fleet never below %d healthy servers\n",
				rep.Crashes, rep.Repairs, minHealthy)
			fmt.Printf("    ledger: %d offered = %d completed + %d requeued + %d dropped (%d retries)\n",
				rep.Offered, rep.Completed, rep.Requeued, rep.Dropped, rep.Retries)
		}
		return rep
	}

	fmt.Printf("fleet of %d servers, %d-day email-store week (%d slots, T=6)\n", servers, days, tr.Len())
	fmt.Printf("MTBF %.0f h/server, MTTR %.0f h, retry budget 3 with 0.5 s/attempt backoff\n\n", mtbf/3600, mttr/3600)
	fmt.Printf("%-22s  %10s  %10s  %10s  %8s\n", "run", "E[R] (s)", "E[P] (W)", "energy(MJ)", "EP")

	calm := run("calm week", nil)

	faults, err := sleepscale.NewFaultRenewal(sleepscale.FaultRenewalConfig{
		Servers: servers, MTBF: mtbf, MTTR: mttr, Horizon: tr.Duration(),
	}, 7)
	if err != nil {
		log.Fatal(err)
	}
	chaos := run("chaos week", faults)

	fmt.Printf("\nsurviving the outages cost %.1f%% extra response time and %.1f%% energy\n",
		(chaos.MeanResponse/calm.MeanResponse-1)*100, (chaos.Energy/calm.Energy-1)*100)
	fmt.Printf("first outages: ")
	for i, ev := range chaos.FaultEvents {
		if i == 6 {
			fmt.Printf("…")
			break
		}
		fmt.Printf("[%.0fh s%d %s] ", ev.Time/3600, ev.Server, ev.Kind)
	}
	fmt.Println()
}
