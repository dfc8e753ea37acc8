package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"sleepscale/internal/core"
	"sleepscale/internal/policy"
)

// workloads.json records, for every workload, its loop type and size or
// rate, why it was chosen, the layers it stresses and bypasses, and the
// per-layer → end-to-end predictions later changes are judged against.
//
//go:embed workloads.json
var workloadsJSON []byte

// workloadRecord is the part of a workload's record the program reads.
type workloadRecord struct {
	Name      string  `json:"name"`
	Loop      string  `json:"loop"`
	Size      string  `json:"size"`
	EpochRate float64 `json:"epoch_rate_hz"` // open loop only
	Why       string  `json:"why"`
}

func workloadRecords() (map[string]workloadRecord, error) {
	var recs []workloadRecord
	if err := json.Unmarshal(workloadsJSON, &recs); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	out := make(map[string]workloadRecord, len(recs))
	for _, r := range recs {
		out[r.Name] = r
	}
	return out, nil
}

// instance is one workload's inputs, built by setup from the seed.
type instance interface {
	// run executes one repetition through the runner's public entry
	// point. size is the number of epochs for the open-loop daemon and
	// ignored by the batch workloads, which always run their whole input.
	// A nil tracer is the untraced run.
	run(t *tracer, size int) (repOut, error)
	// untimed runs one repetition outside any measurement. As the warm-up
	// it makes process-wide state — the heap, the worker pool, the
	// evaluator pools — warm before measuring. As the memory pass it calls
	// probe at evenly spaced epoch boundaries.
	untimed(probe func()) error
}

// probeSpacing is how many probes a memory pass makes over a run.
const probeSpacing = 8

// modelled holds the simulated outputs of a repetition. They depend only on
// the seed, never on the host, so every repetition and the traced run must
// reproduce them bit for bit.
type modelled struct {
	avgPower, meanResp, p95Resp float64
	epochs, qosMet              int
	fingerprint                 uint64 // over every modelled output, epoch by epoch
}

// repOut is everything one repetition reports.
type repOut struct {
	model   modelled
	offered int64 // jobs offered to the runner
	served  int64 // jobs the runner completed
	failed  int64 // jobs dropped, shed or rejected
	wall    time.Duration
	busy    time.Duration // wall minus time blocked on input
	// hostMS is the host time the runner spent on each epoch, latMS runs
	// from when each epoch was due to when it was out, and rate is the jobs
	// served per second: over the repetition in a batch run, over the
	// session's schedule on the daemon.
	hostMS, latMS []float64
	rate          float64
	// counters are the workload's own per-layer counts.
	counters map[string]float64
}

// closedLoop sets the timings of a batch repetition whose epochs complete
// at the given marks, after the first. In a closed loop an epoch runs from
// its predecessor's completion to its own, and is due when its predecessor
// is done, so its latency is its host time.
func (o *repOut) closedLoop(marks []time.Time, epochs int) error {
	if len(marks) != epochs+1 {
		return fmt.Errorf("%d epoch marks for %d epochs", len(marks)-1, epochs)
	}
	o.hostMS = make([]float64, epochs)
	for i := range o.hostMS {
		o.hostMS[i] = float64(marks[i+1].Sub(marks[i])) / 1e6
	}
	o.latMS = o.hostMS
	o.rate = float64(o.served) / o.busy.Seconds()
	return nil
}

// fingerprinter folds modelled values into a hash, bit for bit.
type fingerprinter struct{ h uint64 }

func newFingerprinter() *fingerprinter { return &fingerprinter{h: fnv.New64a().Sum64()} }

func (f *fingerprinter) add(vs ...float64) {
	for _, v := range vs {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			f.h ^= b & 0xff
			f.h *= 1099511628211
			b >>= 8
		}
	}
}

func (f *fingerprinter) addBytes(bs []byte) {
	for _, b := range bs {
		f.h ^= uint64(b)
		f.h *= 1099511628211
	}
}

// checkFinite fails on the first non-finite modelled value.
func checkFinite(what string, vs ...float64) error {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: modelled value %d is %g", what, i, v)
		}
	}
	return nil
}

// checkEnergySum verifies that per-epoch energies sum to the run's total.
// Each epoch's energy is a difference of running totals, so the sum
// telescopes to the total up to rounding.
func checkEnergySum(epochs []float64, total float64) error {
	var sum float64
	for _, e := range epochs {
		sum += e
	}
	if math.Abs(sum-total) > 1e-9*math.Max(1, math.Abs(total)) {
		return fmt.Errorf("per-epoch energies sum to %.17g J, report says %.17g J", sum, total)
	}
	return nil
}

// epochSummary is what the checks and the modelled metrics need from a
// run's per-epoch records.
type epochSummary struct {
	withJobs, qosMet int
	energies         []float64
	// p95 is the job-weighted mean of the epochs' p95 responses. Every
	// runner reports per-epoch p95s, while whole-run percentiles differ:
	// the daemon keeps no whole-run sample and the fleet reports its worst
	// server's.
	p95 float64
}

// epochModel folds the per-epoch records every batch runner reports into
// the fingerprint, checks they are finite and summarizes them.
func epochModel(fp *fingerprinter, qos policy.QoS, recs []core.EpochRecord) (epochSummary, error) {
	var es epochSummary
	es.energies = make([]float64, len(recs))
	jobs := 0
	for i, r := range recs {
		fp.add(float64(r.Index), r.Predicted, r.Realized, r.Policy.Frequency, float64(r.Jobs),
			r.MeanDelay, r.P95Delay, r.Energy, r.BusyTime, r.WakeTime, r.IdleTime)
		if err := checkFinite(fmt.Sprintf("epoch %d", r.Index), r.Predicted, r.Realized, r.MeanDelay,
			r.P95Delay, r.Energy, r.BusyTime, r.WakeTime, r.IdleTime); err != nil {
			return es, err
		}
		es.energies[i] = r.Energy
		es.add(qos, r.Jobs, r.MeanDelay, r.P95Delay)
		jobs += r.Jobs
	}
	es.finish(jobs)
	return es, nil
}

// add books one epoch's QoS outcome and p95.
func (es *epochSummary) add(qos policy.QoS, jobs int, meanDelay, p95Delay float64) {
	if jobs == 0 {
		return
	}
	es.withJobs++
	es.p95 += float64(jobs) * p95Delay
	if qos.EpochWithinBudget(meanDelay, p95Delay) {
		es.qosMet++
	}
}

func (es *epochSummary) finish(jobs int) {
	if jobs > 0 {
		es.p95 /= float64(jobs)
	}
}
