package core

import (
	"encoding"
	"fmt"
	"sort"

	"sleepscale/internal/eventlog"
	"sleepscale/internal/policy"
	"sleepscale/internal/power"
	"sleepscale/internal/predict"
	"sleepscale/internal/queue"
)

// LiveConfig configures a LiveRunner: a RunnerConfig minus the trace and the
// generating workload — in live mode both jobs and telemetry slots arrive
// from outside, unbounded.
type LiveConfig struct {
	// SlotSeconds is the telemetry slot length in seconds.
	SlotSeconds float64
	// EpochSlots is T: slots per policy epoch.
	EpochSlots int
	// FreqExponent is the workload's β.
	FreqExponent float64
	// Profile supplies the power model.
	Profile *power.Profile
	// Predictor forecasts per-slot utilization. It must implement
	// encoding.BinaryMarshaler/Unmarshaler for State/Restore to work (all
	// predictors in internal/predict do).
	Predictor predict.Predictor
	// Strategy picks the per-epoch policy.
	Strategy Strategy
	// WindowEpochs is the job-log window depth (default 3).
	WindowEpochs int
	// Seed drives the strategy's bootstrap resampling.
	Seed int64
	// RetainResponses keeps the raw per-job response sample for whole-run
	// percentiles. Off (the default, and the serve daemon's mode) the
	// engine folds responses into streaming moments only — O(1) memory over
	// an unbounded run; Finish then reports exact counts, means and energy
	// but zero whole-run percentiles (per-epoch P95s are unaffected).
	RetainResponses bool
}

func (c LiveConfig) loopConfig() loopConfig {
	return loopConfig{
		SlotSeconds:  c.SlotSeconds,
		EpochSlots:   c.EpochSlots,
		FreqExponent: c.FreqExponent,
		Profile:      c.Profile,
		Predictor:    c.Predictor,
		Strategy:     c.Strategy,
		WindowEpochs: c.WindowEpochs,
		Seed:         c.Seed,

		RetainResponses: c.RetainResponses,
	}
}

func (c LiveConfig) windowEpochs() int {
	if c.WindowEpochs <= 0 {
		return 3
	}
	return c.WindowEpochs
}

// LiveRunner is the live-serving form of the §6 runner: the same epoch
// machine the batch runners replay traces through, driven one event at a
// time. Offer jobs as they arrive and realized slot utilizations as slots
// complete; every EpochSlots-th slot closes an epoch — predict, decide,
// switch policy, serve, observe — and yields its EpochRecord. The loop is
// allocation-free at steady state and holds O(pending + one epoch) memory
// however long it runs.
//
// Determinism contract: a LiveRunner fed the jobs and slots of a batch run's
// trace produces bit-identical epoch records to Run/RunSource (they share
// the machine), and a runner restored from State continues bit-identically
// to one that never stopped.
type LiveRunner struct {
	cfg  LiveConfig
	loop *epochLoop
}

// NewLiveRunner validates cfg and returns a runner positioned before the
// first slot.
func NewLiveRunner(cfg LiveConfig) (*LiveRunner, error) {
	loop, err := newEpochLoop(cfg.loopConfig())
	if err != nil {
		return nil, err
	}
	return &LiveRunner{cfg: cfg, loop: loop}, nil
}

// OfferJob hands the runner one arriving job, rejected with the runner
// unchanged unless it passes queue.ValidateJob against the last arrival; the
// job is served once the slot containing its arrival completes.
func (r *LiveRunner) OfferJob(j queue.Job) error { return r.loop.OfferJob(j) }

// OfferSlot hands the runner one completed telemetry slot's realized
// utilization; closed reports whether the slot completed an epoch, in which
// case rec is its record. A non-finite or negative utilization is rejected
// (queue.ErrNonFinite, ErrNegativeUtilization) with the runner unchanged.
func (r *LiveRunner) OfferSlot(rho float64) (rec EpochRecord, closed bool, err error) {
	return r.loop.OfferSlot(rho)
}

// Epoch is the index of the epoch currently being assembled.
func (r *LiveRunner) Epoch() int { return r.loop.epoch }

// Slot is the global index of the next telemetry slot.
func (r *LiveRunner) Slot() int { return r.loop.slot }

// JobsOffered counts jobs ever offered; JobsServed counts those served.
func (r *LiveRunner) JobsOffered() int64 { return r.loop.jobsOffered }

// JobsServed counts jobs served so far.
func (r *LiveRunner) JobsServed() int64 { return r.loop.jobsServed }

// AtBoundary reports whether the runner sits exactly on an epoch boundary —
// the only instants at which State may be captured.
func (r *LiveRunner) AtBoundary() bool { return r.loop.atBoundary() }

// Duration is the simulated span covered by completed slots, seconds.
func (r *LiveRunner) Duration() float64 { return r.loop.duration() }

// Finish ends the stream: a partially-filled final epoch is closed short
// (rec/closed, exactly as a batch run's last epoch covers only the trace's
// remaining slots), the engine is finalized at the last completed slot
// boundary, and the whole-run aggregate is returned. Pending jobs not
// covered by a completed slot are never served, matching the batch
// semantics of leaving jobs beyond the trace unread.
func (r *LiveRunner) Finish() (rec EpochRecord, closed bool, report RunReport, err error) {
	rec, closed, err = r.loop.FinishEpoch()
	if err != nil {
		return EpochRecord{}, false, RunReport{}, err
	}
	report = RunReport{
		Strategy:   r.cfg.Strategy.Name(),
		Predictor:  r.cfg.Predictor.Name(),
		PlanEpochs: make(map[string]int),
	}
	r.loop.fillReport(&report)
	if r.loop.eng == nil {
		return rec, closed, report, nil
	}
	res, err := r.loop.eng.Finish(r.loop.duration())
	if err != nil {
		return EpochRecord{}, false, RunReport{}, err
	}
	report.Jobs = res.Jobs
	report.MeanResponse = res.MeanResponse
	report.P95Response = res.ResponseP95
	report.AvgPower = res.AvgPower
	report.Energy = res.Energy
	report.Duration = res.Duration
	return rec, closed, report, nil
}

// LivePhase is one serialized sleep-plan phase of the policy in force.
type LivePhase struct {
	// CPU and Platform are the power.CPUState/PlatformState enum values.
	CPU, Platform int
	// Enter is τ in seconds.
	Enter float64
}

// LiveState is the complete resumable state of a LiveRunner, captured at an
// epoch boundary. All fields are plain exported values (the predictor is a
// self-describing binary blob), so any codec can persist it; RestoreLiveRunner
// rebuilds a runner that continues bit-identically — same decisions, same
// engine billing, same epoch records — under the same LiveConfig. Runner
// configuration is deliberately not part of the state: a checkpoint is
// restored into a runner built from the same config that produced it.
type LiveState struct {
	// Epoch and Slot position the run; Slot is always Epoch*EpochSlots at a
	// boundary.
	Epoch, Slot int
	// LastArrival is the latest offered arrival, for order validation.
	LastArrival float64
	// JobsOffered and JobsServed are the lifetime job counts.
	JobsOffered, JobsServed int64
	// Pending holds offered jobs not yet covered by a completed slot.
	Pending []queue.Job
	// LastMean, LastP95 and LastJobs summarize the epoch just closed.
	LastMean, LastP95 float64
	LastJobs          int
	// FreqSum accumulates selected frequencies for MeanFrequency.
	FreqSum float64
	// PlanNames/PlanCounts are the per-plan epoch counts, name-sorted.
	PlanNames  []string
	PlanCounts []int64
	// RngDraws is the decision RNG's cursor: the number of draws consumed.
	RngDraws uint64
	// Predictor is the predictor's MarshalBinary blob.
	Predictor []byte
	// Window is the job-log window contents.
	Window eventlog.WindowState
	// HasEngine is false only before the first epoch ever opened.
	HasEngine bool
	// CurFrequency and CurPlanName/CurPhases serialize the policy in force,
	// from which the engine's configuration is re-derived on restore.
	CurFrequency float64
	CurPlanName  string
	CurPhases    []LivePhase
	// Engine is the queue engine's resumable state.
	Engine queue.EngineState
	// PrevTotals is the running-total baseline for epoch deltas.
	PrevTotals queue.Snapshot
}

// State captures the runner's resumable state. It fails unless the runner
// sits on an epoch boundary (no epoch open) and the predictor implements
// encoding.BinaryMarshaler. The runner is not mutated; the returned state
// shares no memory with it.
func (r *LiveRunner) State() (*LiveState, error) {
	l := r.loop
	if !l.atBoundary() {
		return nil, fmt.Errorf("core: live state: epoch %d open (%d/%d slots); state is only capturable at epoch boundaries",
			l.epoch, len(l.rhos), l.cfg.EpochSlots)
	}
	bm, ok := r.cfg.Predictor.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("core: predictor %s is not checkpointable", r.cfg.Predictor.Name())
	}
	blob, err := bm.MarshalBinary()
	if err != nil {
		return nil, err
	}
	st := &LiveState{
		Epoch:       l.epoch,
		Slot:        l.slot,
		LastArrival: l.lastArrival,
		JobsOffered: l.jobsOffered,
		JobsServed:  l.jobsServed,
		Pending:     append([]queue.Job(nil), l.pending[l.pendHead:]...),
		LastMean:    l.lastMean,
		LastP95:     l.lastP95,
		LastJobs:    l.lastJobs,
		FreqSum:     l.freqSum,
		RngDraws:    l.decideSrc.draws,
		Predictor:   blob,
		Window:      l.window.State(),
		PrevTotals:  l.prevTotals,
	}
	for name := range l.planEpochs {
		st.PlanNames = append(st.PlanNames, name)
	}
	sort.Strings(st.PlanNames)
	for _, name := range st.PlanNames {
		st.PlanCounts = append(st.PlanCounts, int64(l.planEpochs[name]))
	}
	if l.eng != nil {
		st.HasEngine = true
		st.CurFrequency = l.curPol.Frequency
		st.CurPlanName = l.curPol.Plan.Name
		for _, ph := range l.curPol.Plan.Phases {
			st.CurPhases = append(st.CurPhases, LivePhase{
				CPU: int(ph.State.CPU), Platform: int(ph.State.Platform), Enter: ph.Enter,
			})
		}
		st.Engine = l.eng.State()
	}
	return st, nil
}

// RestoreLiveRunner rebuilds a runner from a captured state under cfg, which
// must be the configuration that produced the state (same predictor and
// strategy construction, same seed, same slot geometry). The restored runner
// continues bit-identically to the original: every subsequent OfferJob,
// OfferSlot, State and Finish behaves exactly as the uninterrupted runner's
// would. Malformed state returns an error, never panics.
func RestoreLiveRunner(cfg LiveConfig, st *LiveState) (*LiveRunner, error) {
	r, err := NewLiveRunner(cfg)
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("core: restore: nil state")
	}
	if st.Epoch < 0 || st.Slot != st.Epoch*cfg.EpochSlots {
		return nil, fmt.Errorf("core: restore: slot %d not the boundary of epoch %d (T=%d)",
			st.Slot, st.Epoch, cfg.EpochSlots)
	}
	if len(st.PlanNames) != len(st.PlanCounts) {
		return nil, fmt.Errorf("core: restore: %d plan names, %d counts", len(st.PlanNames), len(st.PlanCounts))
	}
	if st.Window.Capacity != cfg.windowEpochs() {
		return nil, fmt.Errorf("core: restore: window capacity %d, config wants %d",
			st.Window.Capacity, cfg.windowEpochs())
	}
	bu, ok := cfg.Predictor.(encoding.BinaryUnmarshaler)
	if !ok {
		return nil, fmt.Errorf("core: predictor %s is not checkpointable", cfg.Predictor.Name())
	}
	if err := bu.UnmarshalBinary(st.Predictor); err != nil {
		return nil, err
	}
	window, err := eventlog.RestoreWindow(st.Window)
	if err != nil {
		return nil, err
	}
	l := r.loop
	l.window = window
	l.decideSrc.skipTo(st.RngDraws)
	l.epoch, l.slot = st.Epoch, st.Slot
	l.lastArrival = st.LastArrival
	l.jobsOffered, l.jobsServed = st.JobsOffered, st.JobsServed
	l.pending = append(l.pending[:0], st.Pending...)
	l.pendHead = 0
	l.lastMean, l.lastP95, l.lastJobs = st.LastMean, st.LastP95, st.LastJobs
	l.freqSum = st.FreqSum
	for i, name := range st.PlanNames {
		l.planEpochs[name] = int(st.PlanCounts[i])
	}
	l.prevTotals = st.PrevTotals
	if st.HasEngine {
		pol := policy.Policy{
			Frequency: st.CurFrequency,
			Plan:      policy.SleepPlan{Name: st.CurPlanName},
		}
		for _, ph := range st.CurPhases {
			pol.Plan.Phases = append(pol.Plan.Phases, policy.PlanPhase{
				State: power.State{CPU: power.CPUState(ph.CPU), Platform: power.PlatformState(ph.Platform)},
				Enter: ph.Enter,
			})
		}
		// AppendConfig re-derives the engine configuration in force;
		// RestoreEngine deep-copies its phases, so no scratch aliasing.
		qcfg, err := pol.AppendConfig(cfg.Profile, cfg.FreqExponent, nil)
		if err != nil {
			return nil, fmt.Errorf("core: restore: policy in force: %w", err)
		}
		eng, err := queue.RestoreEngine(qcfg, st.Engine)
		if err != nil {
			return nil, err
		}
		l.eng = eng
		l.curPol = pol
	}
	return r, nil
}
