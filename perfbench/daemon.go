package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sleepscale"
	"sleepscale/internal/core"
	"sleepscale/internal/policy"
	"sleepscale/internal/predict"
	"sleepscale/internal/serve"
	"sleepscale/internal/stream"
)

const (
	daemonT          = 5 // cmd/sleepscaled defaults: T = 5 slots of 60 s
	daemonSlotSec    = 60
	daemonCheckpoint = 16
)

// daemonSleepScale is the live daemon with cmd/sleepscaled's defaults
// (SleepScale over 200 bootstrap jobs, α = 0.1, ρ_B = 0.8, LMS(10, 0.5),
// T = 5 slots of 60 s), checkpointing every 16 epochs and teeing the
// colstore epoch log, fed a file-server week pre-encoded as SSW1 frames at
// a fixed wall-clock epoch rate. Unlike the daemon, it decides on one
// worker (see session).
type daemonSleepScale struct {
	seed      int64
	spec      sleepscale.Spec
	qos       policy.QoS
	data      []byte        // the week's wire stream, magic included, no end frame
	epochEnd  []int         // data offset just past each epoch's closing slot frame
	epochJobs []int         // job frames up to the end of each epoch
	period    time.Duration // one epoch's frames are released per period
	dir       string
}

func setupDaemon(seed int64, epochRate float64, dir string) (instance, error) {
	spec := sleepscale.DNS()
	stats, err := sleepscale.NewFittedStats(spec)
	if err != nil {
		return nil, err
	}
	tr := sleepscale.FileServerTrace(7, seed)
	src, err := sleepscale.NewTraceSource(stats, tr, seed)
	if err != nil {
		return nil, err
	}
	qos, err := sleepscale.NewMeanResponseQoS(0.8, spec.MaxServiceRate())
	if err != nil {
		return nil, err
	}
	d := &daemonSleepScale{
		seed: seed, spec: spec, qos: qos, dir: dir,
		period: time.Duration(float64(time.Second) / epochRate),
	}
	var buf bytes.Buffer
	buf.Grow(17 * 260000)
	w := serve.NewWireWriter(&buf)
	cur := stream.NewCursor(src)
	jobs := 0
	for s, rho := range tr.Utilization {
		slotEnd := float64(s+1) * tr.SlotSeconds
		for {
			j, ok := cur.Peek()
			if !ok || j.Arrival >= slotEnd {
				break
			}
			if err := w.Job(j); err != nil {
				return nil, err
			}
			cur.Advance()
			jobs++
		}
		if err := w.Slot(rho); err != nil {
			return nil, err
		}
		if (s+1)%daemonT == 0 {
			if err := w.Flush(); err != nil {
				return nil, err
			}
			d.epochEnd = append(d.epochEnd, buf.Len())
			d.epochJobs = append(d.epochJobs, jobs)
		}
	}
	if err := stream.Err(src); err != nil {
		return nil, err
	}
	d.data = buf.Bytes()
	return d, nil
}

// weekEpochs is the number of whole epochs in the encoded week.
func (d *daemonSleepScale) weekEpochs() int { return len(d.epochEnd) }

// ndjsonSink keeps the daemon's NDJSON output in memory and stamps each
// record's write time: the end of that epoch's latency. A memory pass also
// calls probe every probeEvery records.
type ndjsonSink struct {
	buf        []byte
	at         []time.Time
	records    atomic.Int64
	probe      func()
	probeEvery int
}

func (s *ndjsonSink) Write(p []byte) (int, error) {
	s.at = append(s.at, time.Now())
	s.buf = append(s.buf, p...)
	if n := s.records.Add(1); s.probe != nil && n%int64(s.probeEvery) == 0 {
		s.probe()
	}
	return len(p), nil
}

// epochLine is the part of a daemon NDJSON epoch record the checks read.
type epochLine struct {
	Done      bool     `json:"done"`
	Epoch     *int     `json:"epoch"`
	Jobs      int      `json:"jobs"`
	MeanDelay float64  `json:"mean_delay"`
	P95Delay  float64  `json:"p95_delay"`
	Energy    *float64 `json:"energy"`
	Predicted float64  `json:"predicted"`
	Realized  float64  `json:"realized"`
	Frequency float64  `json:"frequency"`
}

// timings sets the timings of a session whose epochs were written out at
// the given times. Epoch e was due at origin + (e+1)·period and released
// lagNS[e] later; the daemon spent host time on it from its release, or
// from the previous epoch's write if that came later, until its own write.
// The session's rate is the open loop's delivered throughput: the jobs of
// its epochs over the time from the start of the schedule to the last
// write. It stays at the offered rate while the daemon keeps up and falls
// when it falls behind; the daemon's jobs per busy second are a per-layer
// figure.
func (d *daemonSleepScale) timings(o *repOut, written []time.Time, origin time.Time, period time.Duration, lagNS []float64) {
	n := len(written)
	o.hostMS, o.latMS = make([]float64, n), make([]float64, n)
	for e := range n {
		due := origin.Add(time.Duration(e+1) * period)
		o.latMS[e] = float64(written[e].Sub(due)) / 1e6
		begin := due.Add(time.Duration(lagNS[e]))
		if e > 0 && written[e-1].After(begin) {
			begin = written[e-1]
		}
		o.hostMS[e] = float64(written[e].Sub(begin)) / 1e6
	}
	o.rate = float64(d.epochJobs[n-1]) / written[n-1].Sub(origin).Seconds()
}

// daemonUntimedEpochs is the length of the untimed sessions: the first
// ~50 epochs of a fresh process run at twice the steady decision time, and
// a session's live heap does not grow with its length.
const daemonUntimedEpochs = 100

func (d *daemonSleepScale) run(t *tracer, epochs int) (repOut, error) {
	return d.session(t, epochs, d.period, nil)
}

// untimed runs a short session with every epoch due at once.
func (d *daemonSleepScale) untimed(probe func()) error {
	_, err := d.session(nil, min(daemonUntimedEpochs, d.weekEpochs()), 0, probe)
	return err
}

// session serves the first epochs of the week, releasing one epoch's
// frames per period.
func (d *daemonSleepScale) session(t *tracer, epochs int, period time.Duration, probe func()) (repOut, error) {
	if epochs < 1 || epochs > d.weekEpochs() {
		return repOut{}, fmt.Errorf("daemon: %d epochs outside [1, %d]", epochs, d.weekEpochs())
	}
	ckpt := filepath.Join(d.dir, "daemon.ckpt")
	elog := filepath.Join(d.dir, "daemon.epochs")
	for _, p := range []string{ckpt, ckpt + ".prev", ckpt + ".tmp", elog} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return repOut{}, err
		}
	}
	mgr := sleepscale.NewManager(sleepscale.Xeon(), d.spec, d.qos)
	// Decisions score candidates on the serving goroutine. Spread over the
	// worker pool, a decision waits for its slowest worker, and on a shared
	// 2-vCPU host a stall on either vCPU then stalls the epoch: the daemon's
	// figures swung ~20% between runs, against ~5% serial. The selected
	// policy is the same for every Parallelism.
	mgr.Parallelism = 1
	var strat core.Strategy
	strat, err := sleepscale.NewSleepScaleStrategy(mgr, 200, 0.1)
	if err != nil {
		return repOut{}, err
	}
	var pred predict.Predictor
	if pred, err = sleepscale.NewLMSPredictor(10, 0.5); err != nil {
		return repOut{}, err
	}
	sink := &ndjsonSink{buf: make([]byte, 0, 320*(epochs+1)), at: make([]time.Time, 0, epochs+1),
		probe: probe, probeEvery: max(1, epochs/probeSpacing)}
	cut := d.epochEnd[epochs-1]
	feedData := append(d.data[:cut:cut], 'e')
	feed := newOpenFeed(feedData)
	var (
		out io.Writer = sink
		in  io.Reader = feed
	)
	if t != nil {
		out = &tracedWriter{inner: sink, t: t}
		in = &tracedReader{inner: feed, t: t}
		pred = &tracedPredictor{inner: pred, t: t}
		strat = &tracedStrategy{inner: strat, t: t}
	}
	srv, err := serve.NewServer(serve.Config{
		Runner: core.LiveConfig{
			SlotSeconds:  daemonSlotSec,
			EpochSlots:   daemonT,
			FreqExponent: d.spec.FreqExponent,
			Profile:      sleepscale.Xeon(),
			Predictor:    pred,
			Strategy:     strat,
			Seed:         d.seed,
		},
		CheckpointPath:  ckpt,
		CheckpointEvery: daemonCheckpoint,
		EpochLogPath:    elog,
		Out:             out,
	})
	if err != nil {
		return repOut{}, err
	}

	var (
		wg   sync.WaitGroup
		sch  schedule
		stop = make(chan struct{})
	)
	origin := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		sch = feed.generate(origin, period, d.epochEnd[:epochs], func() int { return int(sink.records.Load()) }, stop)
	}()
	start := time.Now()
	rep, done, err := srv.Serve(in)
	end := time.Now()
	close(stop)
	wg.Wait()
	if err != nil {
		return repOut{}, err
	}
	if !done {
		return repOut{}, fmt.Errorf("daemon: serve stopped before the end frame")
	}

	offered := int64(d.epochJobs[epochs-1])
	o := repOut{
		wall: end.Sub(start), busy: end.Sub(start) - time.Duration(feed.waitNS),
		offered: offered, served: int64(rep.Jobs),
		failed: srv.Shed() + offered - int64(rep.Jobs),
	}
	if len(sink.at) == epochs+1 && len(sch.lagNS) == epochs {
		d.timings(&o, sink.at[:epochs], origin, period, sch.lagNS)
	}
	ckptBytes := int64(0)
	if fi, err := os.Stat(ckpt); err == nil {
		ckptBytes = fi.Size() * int64(epochs/daemonCheckpoint)
	}
	lagP99 := percentile(sch.lagNS, 99) / 1e6
	o.counters = map[string]float64{
		"serve.frames_in":            float64(offered + int64(epochs*daemonT) + 1),
		"serve.feed_wait_ms":         float64(feed.waitNS) / 1e6,
		"serve.out_records":          float64(sink.records.Load()),
		"serve.out_bytes":            float64(len(sink.buf)),
		"serve.checkpoint_bytes":     float64(ckptBytes),
		"loadgen.lag_p99_ms":         lagP99,
		"loadgen.backlog_max_epochs": float64(sch.backlogMax),
		"loadgen.late_epochs":        float64(sch.lateEpochs),
	}
	if t != nil {
		t.topNS += int64(o.busy)
		t.waitNS += feed.waitNS
	}
	if sch.lateEpochs > 0 && period > 0 {
		fmt.Printf("warning: the load generator fell behind: %d of %d epochs released a period (%v) or more late; lag p99 %.3f ms\n",
			sch.lateEpochs, epochs, period, lagP99)
	}
	if srv.Shed() != 0 || offered != int64(rep.Jobs) {
		return o, fmt.Errorf("daemon: %d jobs offered, %d served, %d shed", offered, rep.Jobs, srv.Shed())
	}

	// Exactly one record per closed epoch, then the done summary.
	lines := bytes.Split(bytes.TrimSuffix(sink.buf, []byte("\n")), []byte("\n"))
	if len(lines) != epochs+1 || len(sink.at) != epochs+1 {
		return o, fmt.Errorf("daemon: %d NDJSON records for %d epochs, want one per epoch plus the summary", len(lines), epochs)
	}
	fp := newFingerprinter()
	es := epochSummary{energies: make([]float64, epochs)}
	for e, line := range lines {
		var l epochLine
		if err := json.Unmarshal(line, &l); err != nil {
			return o, fmt.Errorf("daemon: record %d: %w", e, err)
		}
		if e == epochs {
			if !l.Done {
				return o, fmt.Errorf("daemon: last record is not the done summary: %s", line)
			}
			break
		}
		if l.Done || l.Epoch == nil || *l.Epoch != e || l.Energy == nil {
			return o, fmt.Errorf("daemon: record %d is not epoch %d's: %s", e, e, line)
		}
		if err := checkFinite(fmt.Sprintf("daemon epoch %d", e), l.Predicted, l.Realized, l.Frequency,
			l.MeanDelay, l.P95Delay, *l.Energy); err != nil {
			return o, err
		}
		es.energies[e] = *l.Energy
		es.add(d.qos, l.Jobs, l.MeanDelay, l.P95Delay)
	}
	if err := checkFinite("daemon report", rep.MeanResponse, rep.AvgPower, rep.Energy, rep.Duration, rep.MeanFrequency); err != nil {
		return o, err
	}
	es.finish(rep.Jobs)
	if err := checkEnergySum(es.energies, rep.Energy); err != nil {
		return o, err
	}
	// The NDJSON records carry every modelled value the daemon reports.
	fp.addBytes(sink.buf)
	o.model = modelled{
		avgPower: rep.AvgPower, meanResp: rep.MeanResponse, p95Resp: es.p95,
		epochs: es.withJobs, qosMet: es.qosMet, fingerprint: fp.h,
	}
	return o, nil
}
